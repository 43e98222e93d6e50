//! Selection rules (templates) — what the filter keeps, and what it
//! strips.
//!
//! "The selection rules are stored in another file and are used to
//! select and edit event records. … The conditions that may be used to
//! specify selection criteria in a template are `>`, `<`, `=`, `!=`,
//! `>=`, and `<=`. … A wildcard value which matches any value may be
//! specified … indicated by the character `*`. To reduce the size of
//! the data which is saved in the trace file, any field value may be
//! prefixed with the discard character `#`. If an event record is
//! accepted by the filter, any fields with this value prefix will be
//! discarded." (§3.4, Figs. 3.3–3.4)
//!
//! A record is kept when **any** rule matches (each rule is a
//! template; a template matches when **all** its conditions hold). An
//! empty rule set keeps everything.

use crate::desc::{Descriptions, FieldRef};
use std::fmt;

/// Comparison operator of a condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Ge => ">=",
        })
    }
}

/// Right-hand side of a condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `*` — matches any value.
    Any,
    /// An integer literal, e.g. `10000`.
    Int(u64),
    /// A decimal prefix pattern, e.g. `1*` (matches `pid=1*`).
    Prefix(String),
    /// Another field's name, e.g. `peerName` in
    /// `sockName=peerName` — a field-to-field comparison.
    Field(String),
    /// Any other literal text, matched against the field's display
    /// form (so `destName=inet:1:1701` works).
    Text(String),
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Any => f.write_str("*"),
            Pattern::Int(v) => write!(f, "{v}"),
            Pattern::Prefix(p) => write!(f, "{p}*"),
            Pattern::Field(n) => f.write_str(n),
            Pattern::Text(t) => f.write_str(t),
        }
    }
}

/// One condition of a template: `field op pattern`, optionally with
/// the `#` discard prefix on the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Field name (header or body field; `type` is `traceType`).
    pub field: String,
    /// Comparison operator.
    pub op: Op,
    /// Right-hand side.
    pub pattern: Pattern,
    /// Whether the matched field is stripped from the saved record.
    pub discard: bool,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            self.field,
            self.op,
            if self.discard { "#" } else { "" },
            self.pattern
        )
    }
}

/// One template: all conditions must hold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rule {
    /// The conjunctive conditions.
    pub conditions: Vec<Condition>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A parsed templates file: one rule per line; a record is kept when
/// any rule matches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rules {
    /// The templates, in file order.
    pub rules: Vec<Rule>,
}

/// Error parsing a templates file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "templates line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for RuleParseError {}

/// Result of matching a record against the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Discard the record.
    Reject,
    /// Keep the record, stripping the named fields (from `#` values).
    Keep {
        /// Field names to strip from the saved record.
        discard_fields: Vec<String>,
    },
}

impl Rules {
    /// Parses a templates file: one rule per line, conditions
    /// comma-separated, e.g. `machine=0, type=1, pid=21*, size>=512`.
    /// Blank lines and `#`-comment lines (a `#` **starting** the line)
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`RuleParseError`] naming the offending line.
    pub fn parse(text: &str) -> Result<Rules, RuleParseError> {
        let mut rules = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut conditions = Vec::new();
            for part in line.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                conditions.push(parse_condition(part).map_err(|m| RuleParseError {
                    line: lineno,
                    message: m,
                })?);
            }
            if conditions.is_empty() {
                return Err(RuleParseError {
                    line: lineno,
                    message: "empty rule".to_owned(),
                });
            }
            rules.push(Rule { conditions });
        }
        Ok(Rules { rules })
    }

    /// Matches a raw event record. With no rules at all, everything is
    /// kept unedited.
    pub fn verdict(&self, desc: &Descriptions, record: &[u8]) -> Verdict {
        if self.rules.is_empty() {
            return Verdict::Keep {
                discard_fields: Vec::new(),
            };
        }
        for rule in &self.rules {
            if let Some(discards) = match_rule(rule, desc, record) {
                return Verdict::Keep {
                    discard_fields: discards,
                };
            }
        }
        Verdict::Reject
    }
}

/// Parses a single condition like `cpuTime<10000`, `pid=#1*`, or
/// `sockName=peerName`.
fn parse_condition(s: &str) -> Result<Condition, String> {
    // Find the operator; check two-character ones first.
    let ops: &[(&str, Op)] = &[
        ("!=", Op::Ne),
        ("<=", Op::Le),
        (">=", Op::Ge),
        ("<", Op::Lt),
        (">", Op::Gt),
        ("=", Op::Eq),
    ];
    for (tok, op) in ops {
        if let Some(pos) = s.find(tok) {
            let field = s[..pos].trim();
            let mut value = s[pos + tok.len()..].trim();
            if field.is_empty() || value.is_empty() {
                return Err(format!("malformed condition `{s}`"));
            }
            let discard = value.starts_with('#');
            if discard {
                value = value[1..].trim();
                if value.is_empty() {
                    return Err(format!("discard prefix without value in `{s}`"));
                }
            }
            let pattern = parse_pattern(value);
            if matches!(pattern, Pattern::Prefix(_) | Pattern::Any)
                && !matches!(op, Op::Eq | Op::Ne)
            {
                return Err(format!(
                    "wildcard patterns only work with = and != in `{s}`"
                ));
            }
            return Ok(Condition {
                field: field.to_owned(),
                op: *op,
                pattern,
                discard,
            });
        }
    }
    Err(format!("no operator in condition `{s}`"))
}

fn parse_pattern(value: &str) -> Pattern {
    if value == "*" {
        return Pattern::Any;
    }
    if let Some(stripped) = value.strip_suffix('*') {
        if !stripped.is_empty() && stripped.chars().all(|c| c.is_ascii_digit()) {
            return Pattern::Prefix(stripped.to_owned());
        }
    }
    if let Ok(v) = value.parse::<u64>() {
        return Pattern::Int(v);
    }
    // A bare identifier that looks like a field name is a
    // field-to-field comparison; anything else is literal text.
    let is_ident = value.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if is_ident
        && value
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic())
    {
        Pattern::Field(value.to_owned())
    } else {
        Pattern::Text(value.to_owned())
    }
}

/// Returns the discard-field list if the rule matches, else `None`.
fn match_rule(rule: &Rule, desc: &Descriptions, record: &[u8]) -> Option<Vec<String>> {
    let mut discards = Vec::new();
    for cond in &rule.conditions {
        if !match_condition(cond, desc, record) {
            return None;
        }
        if cond.discard {
            discards.push(cond.field.clone());
        }
    }
    Some(discards)
}

fn match_condition(cond: &Condition, desc: &Descriptions, record: &[u8]) -> bool {
    let Some(value) = lookup(desc, record, &cond.field) else {
        return false; // field absent from this event type: no match
    };
    match &cond.pattern {
        Pattern::Any => matches!(cond.op, Op::Eq),
        Pattern::Int(rhs) => match value {
            FieldRef::Int(lhs) => compare(cond.op, lhs, *rhs),
            FieldRef::Name(_) => {
                // Numeric literal against a name field compares the
                // display form (the paper's `destName=228320140`).
                text_compare(cond.op, &value.to_string(), &rhs.to_string())
            }
        },
        Pattern::Prefix(pfx) => {
            let s = value.to_string();
            let hit = s.starts_with(pfx.as_str());
            if cond.op == Op::Ne {
                !hit
            } else {
                hit
            }
        }
        Pattern::Field(other) => {
            // Field-to-field comparison; if `other` is not a field of
            // this record, fall back to text comparison.
            match lookup(desc, record, other) {
                Some(rhs) => values_compare(cond.op, value, rhs),
                None => text_compare(cond.op, &value.to_string(), other),
            }
        }
        Pattern::Text(t) => text_compare(cond.op, &value.to_string(), t),
    }
}

/// Resolves a field, also accepting the alias `size` for `msgLength`
/// (the paper's Fig. 3.4 rule `size>=512` against send records) and
/// event names as `type` values.
fn lookup<'r>(desc: &Descriptions, record: &'r [u8], field: &str) -> Option<FieldRef<'r>> {
    if field == "size" {
        // `size` in rules means the message payload length, not the
        // record's own header size field.
        return desc.field(record, "msgLength");
    }
    desc.field(record, field)
}

fn compare(op: Op, lhs: u64, rhs: u64) -> bool {
    match op {
        Op::Eq => lhs == rhs,
        Op::Ne => lhs != rhs,
        Op::Lt => lhs < rhs,
        Op::Gt => lhs > rhs,
        Op::Le => lhs <= rhs,
        Op::Ge => lhs >= rhs,
    }
}

fn text_compare(op: Op, lhs: &str, rhs: &str) -> bool {
    match op {
        Op::Eq => lhs == rhs,
        Op::Ne => lhs != rhs,
        Op::Lt => lhs < rhs,
        Op::Gt => lhs > rhs,
        Op::Le => lhs <= rhs,
        Op::Ge => lhs >= rhs,
    }
}

fn values_compare(op: Op, lhs: FieldRef<'_>, rhs: FieldRef<'_>) -> bool {
    match (lhs, rhs) {
        (FieldRef::Int(a), FieldRef::Int(b)) => compare(op, a, b),
        _ => text_compare(op, &lhs.to_string(), &rhs.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{
        trace_type, MeterAccept, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName,
    };

    fn record(machine: u16, cpu: u32, body: MeterBody) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: cpu,
                seq: 0,
                proc_time: 0,
                trace_type: body.trace_type(),
            },
            body,
        }
        .encode()
    }

    fn send(
        machine: u16,
        cpu: u32,
        pid: u32,
        sock: u32,
        len: u32,
        dest: Option<SockName>,
    ) -> Vec<u8> {
        record(
            machine,
            cpu,
            MeterBody::Send(MeterSendMsg {
                pid,
                pc: 0,
                sock,
                msg_length: len,
                dest_name: dest,
            }),
        )
    }

    fn desc() -> Descriptions {
        Descriptions::standard()
    }

    /// The first rule of Fig. 3.3: `machine=5, cpuTime<10000`.
    #[test]
    fn figure_3_3_first_rule() {
        let rules = Rules::parse("machine=5, cpuTime<10000\n").unwrap();
        let d = desc();
        let yes = send(5, 9_999, 1, 1, 1, None);
        let wrong_machine = send(4, 9_999, 1, 1, 1, None);
        let too_late = send(5, 10_000, 1, 1, 1, None);
        assert!(matches!(rules.verdict(&d, &yes), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &wrong_machine), Verdict::Reject);
        assert_eq!(rules.verdict(&d, &too_late), Verdict::Reject);
    }

    /// The second rule of Fig. 3.3:
    /// `machine=0, type=1, sock=4, destName=228320140`.
    #[test]
    fn figure_3_3_second_rule() {
        let dest = SockName::inet(228_320_140 >> 16, (228_320_140 & 0xffff) as u16);
        let dest_str = dest.to_string();
        let rules =
            Rules::parse(&format!("machine=0, type=1, sock=4, destName={dest_str}\n")).unwrap();
        let d = desc();
        let yes = send(0, 1, 9, 4, 100, Some(dest.clone()));
        let no = send(0, 1, 9, 4, 100, Some(SockName::inet(1, 1)));
        assert!(matches!(rules.verdict(&d, &yes), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &no), Verdict::Reject);
    }

    /// Fig. 3.4: `machine=#*, type=1, pid=1*, size>=512` — wildcard
    /// with discard, prefix pattern, and the `size` alias.
    #[test]
    fn figure_3_4_wildcard_prefix_discard() {
        let rules = Rules::parse("machine=#*, type=1, pid=1*, size>=512\n").unwrap();
        let d = desc();
        let yes = send(3, 1, 1_234, 1, 612, None);
        match rules.verdict(&d, &yes) {
            Verdict::Keep { discard_fields } => {
                assert_eq!(discard_fields, vec!["machine".to_owned()]);
            }
            Verdict::Reject => panic!("record should match"),
        }
        let wrong_pid = send(3, 1, 9_234, 1, 612, None);
        assert_eq!(rules.verdict(&d, &wrong_pid), Verdict::Reject);
        let too_small = send(3, 1, 1_234, 1, 511, None);
        assert_eq!(rules.verdict(&d, &too_small), Verdict::Reject);
    }

    /// Fig. 3.4: `type=8, sockName=peerName` — field-to-field equality
    /// on an accept record.
    #[test]
    fn figure_3_4_field_to_field() {
        let rules = Rules::parse("type=8, sockName=peerName\n").unwrap();
        let d = desc();
        let name = SockName::inet(1, 80);
        let same = record(
            0,
            0,
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 0,
                sock: 1,
                new_sock: 2,
                sock_name: Some(name.clone()),
                peer_name: Some(name.clone()),
            }),
        );
        let different = record(
            0,
            0,
            MeterBody::Accept(MeterAccept {
                pid: 1,
                pc: 0,
                sock: 1,
                new_sock: 2,
                sock_name: Some(name),
                peer_name: Some(SockName::inet(2, 81)),
            }),
        );
        assert!(matches!(rules.verdict(&d, &same), Verdict::Keep { .. }));
        assert_eq!(rules.verdict(&d, &different), Verdict::Reject);
        assert_eq!(record_type_of(&same), trace_type::ACCEPT);
    }

    fn record_type_of(r: &[u8]) -> u32 {
        Descriptions::record_type(r).unwrap()
    }

    #[test]
    fn any_rule_matching_keeps_the_record() {
        let rules = Rules::parse("machine=1\nmachine=2\n").unwrap();
        let d = desc();
        assert!(matches!(
            rules.verdict(&d, &send(2, 0, 1, 1, 1, None)),
            Verdict::Keep { .. }
        ));
        assert_eq!(
            rules.verdict(&d, &send(3, 0, 1, 1, 1, None)),
            Verdict::Reject
        );
    }

    #[test]
    fn empty_rules_keep_everything() {
        let rules = Rules::parse("").unwrap();
        assert!(matches!(
            rules.verdict(&desc(), &send(9, 9, 9, 9, 9, None)),
            Verdict::Keep { discard_fields } if discard_fields.is_empty()
        ));
    }

    #[test]
    fn missing_field_fails_the_condition() {
        // `destName` does not exist on a fork record.
        let rules = Rules::parse("destName=*\n").unwrap();
        let fork = record(
            0,
            0,
            MeterBody::Fork(dpm_meter::MeterFork {
                pid: 1,
                pc: 0,
                new_pid: 2,
            }),
        );
        assert_eq!(rules.verdict(&desc(), &fork), Verdict::Reject);
    }

    #[test]
    fn not_equal_and_bounds_operators() {
        let d = desc();
        let r = send(0, 500, 42, 7, 100, None);
        for (rule, expect) in [
            ("pid!=42", false),
            ("pid!=41", true),
            ("cpuTime>=500", true),
            ("cpuTime>500", false),
            ("cpuTime<=500", true),
            ("cpuTime<500", false),
        ] {
            let rules = Rules::parse(rule).unwrap();
            let got = matches!(rules.verdict(&d, &r), Verdict::Keep { .. });
            assert_eq!(got, expect, "rule `{rule}`");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Rules::parse("pid~3\n").is_err());
        assert!(Rules::parse("=5\n").is_err());
        assert!(Rules::parse("pid=\n").is_err());
        assert!(Rules::parse("pid=#\n").is_err());
        assert!(Rules::parse("pid>1*\n").is_err(), "prefix with ordering op");
        assert!(Rules::parse(",\n").is_err(), "empty rule");
        let err = Rules::parse("ok=1\npid~3\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comment_lines_are_ignored() {
        let rules = Rules::parse("# only sends\ntype=1\n").unwrap();
        assert_eq!(rules.rules.len(), 1);
    }

    #[test]
    fn display_round_trip() {
        let text = "machine=#*, type=1, pid=1*, size>=512";
        let rules = Rules::parse(text).unwrap();
        assert_eq!(rules.rules[0].to_string(), text);
    }
}
