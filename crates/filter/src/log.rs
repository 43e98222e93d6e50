//! The trace-log record format.
//!
//! "A filter sends its output to a log file located in the `/usr/tmp`
//! directory. Each filter has its own log file." (§3.4)
//!
//! The paper stored reduced binary records; this implementation writes
//! one self-describing text line per accepted record so that analysis
//! programs (and humans) can read logs without carrying the
//! descriptions file around. Discarded (`#`) fields simply do not
//! appear on the line.
//!
//! Line shape:
//!
//! ```text
//! event=send machine=0 cpuTime=2113 procTime=10 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701
//! ```
//!
//! The format is line- and token-structured, so names and values are
//! escaped on write (and unescaped on parse): backslash, `=`, and
//! every character [`char::is_whitespace`] accepts — the set the
//! parser splits tokens on — become backslash escapes. The common ones
//! take two characters (`\\`, `\s`, `\t`, `\n`, `\r`, `\e`); any
//! other whitespace, such as a vertical tab or U+0085, is written as
//! `\u{hex}`. Every standard field renders as digits, dots, and colons —
//! escaping never fires for them and the classic line shape above is
//! byte-identical — but a hostile or future value containing
//! whitespace or `=` can no longer corrupt the line structure.
//! [`LogRecord::parse`] of [`fmt::Display`] output is the identity for
//! *any* record.

use crate::desc::{Descriptions, FieldRef};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Writes `s` escaped so it contains no whitespace, `=`, or bare
/// backslash. Writes `s` as is when no escaping is needed — the case
/// for every standard field name and value.
fn write_escaped<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    // The ASCII characters that need escaping are `\`, `=`, space and
    // `\t`..=`\r`; all others are non-ASCII, so ASCII-only strings
    // without those bytes are written as they are.
    if !s
        .bytes()
        .any(|b| b >= 0x80 || matches!(b, b'\\' | b'=' | b' ' | b'\t'..=b'\r'))
    {
        return out.write_str(s);
    }
    for c in s.chars() {
        match c {
            '\\' => out.write_str("\\\\")?,
            ' ' => out.write_str("\\s")?,
            '\t' => out.write_str("\\t")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '=' => out.write_str("\\e")?,
            c if c.is_whitespace() => write!(out, "\\u{{{:x}}}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Writes a field value's display form, escaped.
fn write_value(out: &mut String, value: FieldRef<'_>) -> fmt::Result {
    match value {
        FieldRef::Int(v) => write!(out, "{v}"),
        // The common name value, written without formatting.
        FieldRef::Name(_) if value.is_blank() => out.write_char('-'),
        // Only a UNIX path can hold a character that needs escaping.
        FieldRef::Name(_) => write_escaped(out, &value.to_string()),
    }
}

/// Whether a rule's discard list strips the field `name`. The rules
/// alias `size` means `msgLength`.
fn discarded(discard: &[String], name: &str) -> bool {
    discard
        .iter()
        .any(|d| d == name || (d == "size" && name == "msgLength"))
}

/// Reverses the escaping of a written token. Unknown escape pairs
/// (and a trailing lone backslash) are kept verbatim, so parsing stays
/// total.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => out.push('='),
            Some('u') => match unescape_code_point(chars.as_str()) {
                Some((c, rest)) => {
                    out.push(c);
                    chars = rest.chars();
                }
                None => out.push_str("\\u"),
            },
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    Cow::Owned(out)
}

/// Reads the `{hex}` of a `\u{hex}` escape from the front of `s`,
/// returning the character and what follows the `}`.
fn unescape_code_point(s: &str) -> Option<(char, &str)> {
    let (hex, rest) = s.strip_prefix('{')?.split_once('}')?;
    let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
    Some((c, rest))
}

/// One record of a trace log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogRecord {
    /// The event name (`send`, `accept`, …).
    pub event: String,
    /// Field name/value pairs in layout order (values in display
    /// form).
    pub fields: Vec<(String, String)>,
}

impl LogRecord {
    /// Builds a record from a raw meter message, skipping the named
    /// discard fields. `None` when [`Descriptions::visit`] cannot
    /// decode the record.
    pub fn from_raw(desc: &Descriptions, record: &[u8], discard: &[String]) -> Option<LogRecord> {
        let raw = desc.visit(record)?;
        let fields = raw
            .iter()
            .filter(|(name, _)| !discarded(discard, name))
            .map(|(name, value)| (name.to_owned(), value.to_string()))
            .collect();
        Some(LogRecord {
            event: raw.event().to_owned(),
            fields,
        })
    }

    /// Writes the log line of a raw meter message, without the
    /// trailing newline, straight into `out`: the same line as
    /// [`LogRecord::from_raw`] followed by `to_string`, with no
    /// intermediate record. Returns `false`, writing nothing, when
    /// [`Descriptions::visit`] cannot decode the record.
    pub fn render(
        desc: &Descriptions,
        record: &[u8],
        discard: &[String],
        out: &mut String,
    ) -> bool {
        let Some(raw) = desc.visit(record) else {
            return false;
        };
        let mut line = || -> fmt::Result {
            out.push_str("event=");
            write_escaped(out, raw.event())?;
            for (name, value) in raw.iter() {
                if !discarded(discard, name) {
                    out.push(' ');
                    write_escaped(out, name)?;
                    out.push('=');
                    write_value(out, value)?;
                }
            }
            Ok(())
        };
        line().expect("write to String");
        true
    }

    /// Looks up a field's display value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a field as an integer.
    pub fn get_int(&self, name: &str) -> Option<u64> {
        self.get(name)?.parse().ok()
    }

    /// Splits one log line into tokens without copying: returns the
    /// event name and fills `fields` with each other token's name and
    /// value exactly as written, still escaped (see [`unescape`]).
    /// Returns `None` for lines that are not records, as
    /// [`LogRecord::parse`] does.
    pub fn tokens<'a>(line: &'a str, fields: &mut Vec<(&'a str, &'a str)>) -> Option<Cow<'a, str>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut event = "";
        fields.clear();
        for token in line.split_whitespace() {
            let (name, value) = token.split_once('=')?;
            if name == "event" {
                event = value;
            } else {
                fields.push((name, value));
            }
        }
        let event = unescape(event);
        (!event.is_empty()).then_some(event)
    }

    /// Parses one log line.
    ///
    /// Returns `None` for lines that are not records (blank, comments).
    pub fn parse(line: &str) -> Option<LogRecord> {
        let mut tokens = Vec::new();
        let event = LogRecord::tokens(line, &mut tokens)?.into_owned();
        let fields = tokens
            .into_iter()
            .map(|(n, v)| (unescape(n).into_owned(), unescape(v).into_owned()))
            .collect();
        Some(LogRecord { event, fields })
    }

    /// Parses a whole log file.
    pub fn parse_log(text: &str) -> Vec<LogRecord> {
        text.lines().filter_map(LogRecord::parse).collect()
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("event=")?;
        write_escaped(f, &self.event)?;
        for (n, v) in &self.fields {
            f.write_char(' ')?;
            write_escaped(f, n)?;
            f.write_char('=')?;
            write_escaped(f, v)?;
        }
        Ok(())
    }
}

/// Summary statistics over a trace log, handy for quick looks and for
/// the example programs' output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogSummary {
    /// Record count per event name.
    pub by_event: HashMap<String, usize>,
    /// Total records.
    pub total: usize,
}

impl LogSummary {
    /// Tallies a set of records.
    pub fn of(records: &[LogRecord]) -> LogSummary {
        let mut by_event = HashMap::new();
        for r in records {
            *by_event.entry(r.event.clone()).or_insert(0) += 1;
        }
        LogSummary {
            total: records.len(),
            by_event,
        }
    }
}

impl fmt::Display for LogSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} event records", self.total)?;
        let mut names: Vec<&String> = self.by_event.keys().collect();
        names.sort();
        for n in names {
            writeln!(f, "  {:<12} {}", n, self.by_event[n])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};

    fn send_record() -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 0,
                cpu_time: 2113,
                seq: 0,
                proc_time: 10,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 2120,
                pc: 4,
                sock: 5,
                msg_length: 64,
                dest_name: Some(SockName::inet(1, 1701)),
            }),
        }
        .encode()
    }

    #[test]
    fn raw_to_line_and_back() {
        let d = Descriptions::standard();
        let rec = LogRecord::from_raw(&d, &send_record(), &[]).unwrap();
        let line = rec.to_string();
        assert_eq!(
            line,
            "event=send machine=0 cpuTime=2113 procTime=10 traceType=1 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701"
        );
        let back = LogRecord::parse(&line).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.get_int("msgLength"), Some(64));
        assert_eq!(back.get("destName"), Some("inet:1:1701"));
    }

    #[test]
    fn discard_fields_vanish() {
        let d = Descriptions::standard();
        let rec =
            LogRecord::from_raw(&d, &send_record(), &["machine".into(), "pc".into()]).unwrap();
        assert_eq!(rec.get("machine"), None);
        assert_eq!(rec.get("pc"), None);
        assert_eq!(rec.get_int("pid"), Some(2120));
    }

    #[test]
    fn size_alias_discards_msg_length() {
        let d = Descriptions::standard();
        let rec = LogRecord::from_raw(&d, &send_record(), &["size".into()]).unwrap();
        assert_eq!(rec.get("msgLength"), None);
    }

    /// Satellite regression: values containing spaces, `=`, newlines,
    /// tabs, or backslashes used to corrupt the line structure (the
    /// parser split on whitespace and the first `=`). They now escape
    /// on write and unescape on parse, so display→parse is the
    /// identity for arbitrary records.
    #[test]
    fn hostile_values_round_trip_exactly() {
        let rec = LogRecord {
            event: "odd event".into(),
            fields: vec![
                ("plain".into(), "42".into()),
                ("spaced".into(), "two words".into()),
                ("eq".into(), "a=b=c".into()),
                ("multi\nline".into(), "first\nsecond\r\n".into()),
                ("tabs".into(), "a\tb".into()),
                ("slashes".into(), "C:\\path\\n not a newline".into()),
                ("empty".into(), String::new()),
            ],
        };
        let line = rec.to_string();
        assert!(!line.contains('\n'), "one record, one line: {line:?}");
        let back = LogRecord::parse(&line).expect("line parses");
        assert_eq!(back, rec);
        // Multiple hostile records in one log stay one-per-line.
        let log = format!("{rec}\n{rec}\n");
        let all = LogRecord::parse_log(&log);
        assert_eq!(all, vec![rec.clone(), rec]);
    }

    #[test]
    fn benign_lines_are_unchanged_by_escaping() {
        // The exact classic line shape must keep round-tripping
        // untouched — escaping never fires for standard fields.
        let line = "event=send machine=0 cpuTime=2113 procTime=10 traceType=1 pid=2120 pc=4 sock=5 msgLength=64 destName=inet:1:1701";
        let rec = LogRecord::parse(line).unwrap();
        assert_eq!(rec.to_string(), line);
    }

    #[test]
    fn unknown_escapes_parse_leniently() {
        let rec = LogRecord::parse("event=x a=\\q b=trailing\\").unwrap();
        assert_eq!(rec.get("a"), Some("\\q"));
        assert_eq!(rec.get("b"), Some("trailing\\"));
    }

    #[test]
    fn parse_log_skips_junk() {
        let text = "\n# comment\nevent=fork pid=1 newPid=2\nnot-a-record\n";
        let recs = LogRecord::parse_log(text);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].event, "fork");
    }

    #[test]
    fn summary_counts() {
        let recs = LogRecord::parse_log("event=send pid=1\nevent=send pid=2\nevent=fork pid=1\n");
        let s = LogSummary::of(&recs);
        assert_eq!(s.total, 3);
        assert_eq!(s.by_event["send"], 2);
        assert_eq!(s.by_event["fork"], 1);
        let shown = s.to_string();
        assert!(shown.contains("3 event records"));
        assert!(shown.contains("send"));
    }
}
