//! Event record descriptions — the filter's message-format DSL.
//!
//! "The event record descriptions define the message formats. These
//! descriptions are stored in a file with there being a description
//! for each type of event. A description is a list of fields within an
//! event record. … The digits next to a field specify the position of
//! the field within the message. For example, the field sock … starts
//! on the eighth byte …, is four bytes long and is displayed in base
//! ten." (§3.4, Fig. 3.2)
//!
//! Format of a description file, exactly as in Fig. 3.2:
//!
//! ```text
//! HEADER size machine cpuTime procTime traceType
//! SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
//! ```
//!
//! Each event line is the event name, its trace-type number followed
//! by a comma, then `name,offset,length,base` tuples. Offsets are
//! within the event *body* (after the standard 24-byte header). Base
//! 10 fields are little-endian integers; base 16 fields are raw bytes
//! (socket names).

use dpm_meter::{SockName, NAME_LEN};
use std::collections::HashMap;
use std::fmt;

/// One field of an event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDesc {
    /// Field name, e.g. `msgLength`.
    pub name: String,
    /// Byte offset within the event body.
    pub offset: usize,
    /// Byte length (2, 4, or 16).
    pub len: usize,
    /// Display base: 10 for integers, 16 for raw byte fields.
    pub base: u32,
}

/// The description of one event type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventDesc {
    /// Event name as written in the file, lower-cased (`send`).
    pub name: String,
    /// The `traceType` value identifying this event on the wire.
    pub trace_type: u32,
    /// Body fields in file order.
    pub fields: Vec<FieldDesc>,
}

/// A parsed descriptions file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Descriptions {
    header_fields: Vec<String>,
    by_type: HashMap<u32, Layout>,
    by_name: HashMap<String, u32>,
}

/// One event type resolved for decoding: the description, and the
/// fields a log line shows (header then body, minus `size` and the
/// `*Len` bookkeeping fields) at their offsets within the record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    event: EventDesc,
    slots: Vec<Slot>,
    /// Bytes a record needs to hold every slot.
    min_len: usize,
}

/// One shown field: its name and where it sits in the whole record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    name: String,
    offset: usize,
    len: usize,
    is_name: bool,
}

impl Layout {
    fn resolve(event: EventDesc) -> Layout {
        let header = HEADER_LAYOUT
            .iter()
            .filter(|(name, ..)| *name != "size")
            .map(|&(name, offset, len)| Slot {
                name: name.to_owned(),
                offset,
                len,
                is_name: false,
            });
        let body = event
            .fields
            .iter()
            .filter(|f| !f.name.ends_with("Len"))
            .map(|f| Slot {
                name: f.name.clone(),
                offset: HEADER_LEN.saturating_add(f.offset),
                len: f.len,
                is_name: f.base == 16,
            });
        let slots: Vec<Slot> = header.chain(body).collect();
        let min_len = slots
            .iter()
            .map(|s| s.offset.saturating_add(s.len))
            .fold(HEADER_LEN, usize::max);
        Layout {
            event,
            slots,
            min_len,
        }
    }
}

/// A field value read in place from a raw record: what [`RawFields`]
/// yields and the rules compare, with no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldRef<'a> {
    /// An integer (base-10 field).
    Int(u64),
    /// Raw bytes (base-16 field, i.e. a socket name).
    Name(&'a [u8]),
}

impl FieldRef<'_> {
    /// Whether this is a name field holding only zero bytes, which
    /// the log shows as `-` ("no name").
    pub fn is_blank(&self) -> bool {
        matches!(self, FieldRef::Name(b) if b.iter().all(|&x| x == 0))
    }
}

impl fmt::Display for FieldRef<'_> {
    /// Integers print in decimal. Byte fields print as a decoded
    /// socket name when possible (`inet:1:1701`), `-` when blank,
    /// otherwise as hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldRef::Int(v) => write!(f, "{v}"),
            FieldRef::Name(_) if self.is_blank() => f.write_str("-"),
            FieldRef::Name(b) => {
                if b.len() == NAME_LEN {
                    if let Ok(name) = SockName::decode(b) {
                        return write!(f, "{name}");
                    }
                }
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

/// The log fields of one raw record, read in place through its event
/// type's layout: header fields, then body fields, without `size`
/// and the `*Len` bookkeeping fields. Made by [`Descriptions::visit`].
#[derive(Debug, Clone, Copy)]
pub struct RawFields<'d, 'r> {
    layout: &'d Layout,
    record: &'r [u8],
}

impl<'d, 'r> RawFields<'d, 'r> {
    /// The event name (`send`, `accept`, …).
    pub fn event(&self) -> &'d str {
        &self.layout.event.name
    }

    /// The fields in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (&'d str, FieldRef<'r>)> + '_ {
        self.layout
            .slots
            .iter()
            .map(|s| (s.name.as_str(), self.read(s)))
    }

    /// The first field called `name`, if the layout shows one.
    pub fn get(&self, name: &str) -> Option<FieldRef<'r>> {
        let slot = self.layout.slots.iter().find(|s| s.name == name)?;
        Some(self.read(slot))
    }

    fn read(&self, slot: &Slot) -> FieldRef<'r> {
        // `visit` checked the record covers every slot.
        let bytes = &self.record[slot.offset..slot.offset + slot.len];
        if slot.is_name {
            FieldRef::Name(bytes)
        } else {
            FieldRef::Int(le_int(bytes))
        }
    }
}

/// Error parsing a descriptions file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DescParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "descriptions line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DescParseError {}

/// Standard header layout (24 bytes): field name, offset, length.
/// `dummy` is not listed — the paper's Fig. 3.2 header omits it too.
const HEADER_LAYOUT: &[(&str, usize, usize)] = &[
    ("size", 0, 4),
    ("machine", 4, 2),
    ("cpuTime", 8, 4),
    ("procTime", 16, 4),
    ("traceType", 20, 4),
];

/// Length of the standard header on the wire (re-exported from the
/// meter crate so the two layouts can never drift apart).
pub use dpm_meter::HEADER_LEN;

impl Descriptions {
    /// Parses a descriptions file.
    ///
    /// # Errors
    ///
    /// Returns [`DescParseError`] naming the offending line for any
    /// syntax problem: malformed tuples, duplicate event names or
    /// types, or a missing `HEADER` line.
    pub fn parse(text: &str) -> Result<Descriptions, DescParseError> {
        let mut out = Descriptions::default();
        let err = |line: usize, message: &str| DescParseError {
            line,
            message: message.to_owned(),
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let head = tokens.next().expect("nonempty line");
            if head.eq_ignore_ascii_case("HEADER") {
                out.header_fields = tokens.map(str::to_owned).collect();
                continue;
            }
            // Event line: NAME <type>, field,off,len,base ...
            let name = head.to_ascii_lowercase();
            let type_tok = tokens
                .next()
                .ok_or_else(|| err(lineno, "missing trace type"))?;
            let type_tok = type_tok.trim_end_matches(',');
            let trace_type: u32 = type_tok
                .parse()
                .map_err(|_| err(lineno, &format!("bad trace type `{type_tok}`")))?;
            let mut fields = Vec::new();
            for tuple in tokens {
                let parts: Vec<&str> = tuple.trim_end_matches(',').split(',').collect();
                if parts.len() != 4 {
                    return Err(err(lineno, &format!("bad field tuple `{tuple}`")));
                }
                let parse_num = |s: &str| -> Result<usize, DescParseError> {
                    s.parse()
                        .map_err(|_| err(lineno, &format!("bad number `{s}`")))
                };
                fields.push(FieldDesc {
                    name: parts[0].to_owned(),
                    offset: parse_num(parts[1])?,
                    len: parse_num(parts[2])?,
                    base: parse_num(parts[3])? as u32,
                });
            }
            if out.by_name.contains_key(&name) {
                return Err(err(lineno, &format!("duplicate event `{name}`")));
            }
            if out.by_type.contains_key(&trace_type) {
                return Err(err(lineno, &format!("duplicate trace type {trace_type}")));
            }
            out.by_name.insert(name.clone(), trace_type);
            out.by_type.insert(
                trace_type,
                Layout::resolve(EventDesc {
                    name,
                    trace_type,
                    fields,
                }),
            );
        }
        if out.header_fields.is_empty() {
            return Err(err(0, "missing HEADER line"));
        }
        Ok(out)
    }

    /// The descriptions of the standard meter message formats — the
    /// file the measurement tool ships ("standard filenames …
    /// `descriptions`", §4.3). Covers every event of Appendix A.
    pub fn standard_text() -> &'static str {
        "\
HEADER size machine cpuTime procTime traceType
SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16
RECEIVECALL 2, pid,0,4,10 pc,4,4,10 sock,8,4,10
RECEIVE 3, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 sourceNameLen,16,4,10 sourceName,20,16,16
SOCKET 4, pid,0,4,10 pc,4,4,10 sock,8,4,10 domain,12,4,10 type,16,4,10 protocol,20,4,10
DUP 5, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10
DESTSOCKET 6, pid,0,4,10 pc,4,4,10 sock,8,4,10
FORK 7, pid,0,4,10 pc,4,4,10 newPid,8,4,10
ACCEPT 8, pid,0,4,10 pc,4,4,10 sock,8,4,10 newSock,12,4,10 sockNameLen,16,4,10 peerNameLen,20,4,10 sockName,24,16,16 peerName,40,16,16
CONNECT 9, pid,0,4,10 pc,4,4,10 sock,8,4,10 sockNameLen,12,4,10 peerNameLen,16,4,10 sockName,20,16,16 peerName,36,16,16
TERMPROC 10, pid,0,4,10 pc,4,4,10 reason,8,4,10
"
    }

    /// Parses [`Descriptions::standard_text`]; never fails.
    pub fn standard() -> Descriptions {
        Descriptions::parse(Descriptions::standard_text()).expect("standard descriptions parse")
    }

    /// The event description for a trace type.
    pub fn event(&self, trace_type: u32) -> Option<&EventDesc> {
        self.by_type.get(&trace_type).map(|l| &l.event)
    }

    /// The trace type for an event name (lower-case).
    pub fn type_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// All described events, ordered by trace type.
    pub fn events(&self) -> Vec<&EventDesc> {
        let mut v: Vec<&EventDesc> = self.by_type.values().map(|l| &l.event).collect();
        v.sort_by_key(|e| e.trace_type);
        v
    }

    /// Extracts the trace type from a raw record.
    pub fn record_type(record: &[u8]) -> Option<u32> {
        read_int(record, 20, 4).map(|v| v as u32)
    }

    /// Extracts a named field from a raw record, consulting the header
    /// layout first and then the event body fields (the `*Len` fields
    /// included). This is the rules layer's lookup: its pseudo-field
    /// `type` resolves to `traceType`, and an event name can be used
    /// as a `type` value. Log lines and typed events read fields
    /// through [`Descriptions::visit`] instead, where `type` is a
    /// SOCKET body field.
    pub fn field<'r>(&self, record: &'r [u8], name: &str) -> Option<FieldRef<'r>> {
        let name = if name == "type" { "traceType" } else { name };
        if let Some(&(_, off, len)) = HEADER_LAYOUT.iter().find(|(h, ..)| *h == name) {
            return read_int(record, off, len).map(FieldRef::Int);
        }
        let event = self.event(Self::record_type(record)?)?;
        let field = event.fields.iter().find(|f| f.name == name)?;
        let bytes = record
            .get(HEADER_LEN.saturating_add(field.offset)..)?
            .get(..field.len)?;
        Some(if field.base == 16 {
            FieldRef::Name(bytes)
        } else {
            FieldRef::Int(le_int(bytes))
        })
    }

    /// The log fields of a raw record, read in place: the one decoder
    /// behind every rendered line and every typed event. Returns
    /// `None` when no description matches the record's trace type or
    /// the record is too short for its event's layout.
    pub fn visit<'d, 'r>(&'d self, record: &'r [u8]) -> Option<RawFields<'d, 'r>> {
        let layout = self.by_type.get(&Self::record_type(record)?)?;
        (record.len() >= layout.min_len).then_some(RawFields { layout, record })
    }
}

fn read_int(buf: &[u8], off: usize, len: usize) -> Option<u64> {
    buf.get(off..off + len).map(le_int)
}

/// A little-endian integer of up to eight bytes (extra bytes ignored).
fn le_int(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .take(8)
        .enumerate()
        .fold(0, |v, (i, &b)| v | u64::from(b) << (8 * i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg};

    fn send_record() -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 5,
                cpu_time: 9_999,
                seq: 0,
                proc_time: 40,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 2120,
                pc: 7,
                sock: 4,
                msg_length: 612,
                dest_name: Some(SockName::inet(1, 1701)),
            }),
        }
        .encode()
    }

    #[test]
    fn figure_3_2_line_parses() {
        // The exact description of Fig. 3.2.
        let text = "HEADER size machine cpuTime procTime traceType\n\
                    SEND 1, pid,0,4,10 pc,4,4,10 sock,8,4,10 msgLength,12,4,10 destNameLen,16,4,10 destName,20,16,16\n";
        let d = Descriptions::parse(text).unwrap();
        let e = d.event(1).unwrap();
        assert_eq!(e.name, "send");
        assert_eq!(e.fields.len(), 6);
        assert_eq!(e.fields[2].name, "sock");
        assert_eq!(
            (e.fields[2].offset, e.fields[2].len, e.fields[2].base),
            (8, 4, 10)
        );
        assert_eq!(e.fields[5].name, "destName");
        assert_eq!(
            (e.fields[5].offset, e.fields[5].len, e.fields[5].base),
            (20, 16, 16)
        );
    }

    #[test]
    fn standard_descriptions_cover_all_ten_events() {
        let d = Descriptions::standard();
        assert_eq!(d.events().len(), 10);
        for t in 1..=10 {
            assert!(d.event(t).is_some(), "trace type {t} missing");
        }
        assert_eq!(d.type_of("send"), Some(1));
        assert_eq!(d.type_of("ACCEPT"), Some(8));
        assert_eq!(d.type_of("nothing"), None);
    }

    #[test]
    fn field_extraction_from_a_real_record() {
        let d = Descriptions::standard();
        let r = send_record();
        assert_eq!(d.field(&r, "machine"), Some(FieldRef::Int(5)));
        assert_eq!(d.field(&r, "cpuTime"), Some(FieldRef::Int(9_999)));
        assert_eq!(d.field(&r, "type"), Some(FieldRef::Int(1)));
        assert_eq!(d.field(&r, "pid"), Some(FieldRef::Int(2120)));
        assert_eq!(d.field(&r, "msgLength"), Some(FieldRef::Int(612)));
        let dest = d.field(&r, "destName").unwrap();
        assert_eq!(dest.to_string(), "inet:1:1701");
        assert_eq!(d.field(&r, "nonexistent"), None);
    }

    #[test]
    fn visit_skips_bookkeeping() {
        let d = Descriptions::standard();
        let r = send_record();
        let fields = d.visit(&r).unwrap();
        assert_eq!(fields.event(), "send");
        let names: Vec<&str> = fields.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "machine",
                "cpuTime",
                "procTime",
                "traceType",
                "pid",
                "pc",
                "sock",
                "msgLength",
                "destName"
            ]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = Descriptions::parse("HEADER size\nSEND x, pid,0,4,10\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad trace type"));

        let e = Descriptions::parse("HEADER a\nSEND 1, pid,0,4\n").unwrap_err();
        assert!(e.message.contains("bad field tuple"));

        let e = Descriptions::parse("SEND 1, pid,0,4,10\n").unwrap_err();
        assert!(e.message.contains("missing HEADER"));

        let e = Descriptions::parse("HEADER a\nSEND 1,\nSEND 2,\n").unwrap_err();
        assert!(e.message.contains("duplicate event"));

        let e = Descriptions::parse("HEADER a\nSEND 1,\nRECV 1,\n").unwrap_err();
        assert!(e.message.contains("duplicate trace type"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let d = Descriptions::parse(
            "# comment\n\nHEADER size machine cpuTime procTime traceType\n\nSEND 1, pid,0,4,10\n",
        )
        .unwrap();
        assert!(d.event(1).is_some());
    }

    #[test]
    fn zero_name_field_displays_as_dash() {
        let d = Descriptions::standard();
        let r = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 0,
                cpu_time: 0,
                seq: 0,
                proc_time: 0,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 1,
                sock: 1,
                msg_length: 1,
                dest_name: None,
            }),
        }
        .encode();
        assert_eq!(d.field(&r, "destName").unwrap().to_string(), "-");
    }
}
