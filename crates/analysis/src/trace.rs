//! Typed view of a trace log.
//!
//! "The analysis routines provide the means for interpreting the
//! traces created by filters. They give meaning to the data by
//! summarizing and operating on the event records collected." (§3.3)
//!
//! This module turns the filter's records into typed [`Event`]s, once
//! per record and straight from its source: from log text, a line's
//! tokens are read in place (unescaped only where a value needs it);
//! from raw meter records, fields are read in place through the
//! [`Descriptions`] layout, integers as integers, and a socket name is
//! formatted only when it is present. A process is identified by
//! `(machine, pid)` because pid uniqueness is per machine in 4.2BSD.

use dpm_filter::log::unescape;
use dpm_filter::{Descriptions, FieldRef, LogRecord, RawFields};
use dpm_logstore::{Frame, StoreReader};
use std::borrow::Cow;
use std::fmt;

/// Identifies a process across the whole computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcKey {
    /// Machine (host id).
    pub machine: u32,
    /// Process id on that machine.
    pub pid: u32,
}

impl fmt::Display for ProcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}:p{}", self.machine, self.pid)
    }
}

/// What happened, typed per event kind. Name fields hold the display
/// form of socket names (e.g. `inet:1:1701`); `None` when the trace
/// record carried no name (stream sends) or the field was discarded by
/// the filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A message was sent.
    Send {
        /// Payload length.
        len: u32,
        /// Destination name (datagrams only).
        dest: Option<String>,
    },
    /// A receive was requested (may have blocked).
    RecvCall,
    /// A message was received.
    Recv {
        /// Payload length.
        len: u32,
        /// Source name (datagrams only).
        source: Option<String>,
    },
    /// A socket was created.
    Socket {
        /// Domain code (1 = UNIX, 2 = Internet).
        domain: u32,
        /// Type code (1 = stream, 2 = datagram).
        sock_type: u32,
    },
    /// A descriptor was duplicated.
    Dup {
        /// The duplicate socket (same file-table entry).
        new_sock: u32,
    },
    /// A socket was closed.
    DestSocket,
    /// The process forked.
    Fork {
        /// The child's pid.
        child: u32,
    },
    /// A connection was accepted.
    Accept {
        /// The new connection socket.
        new_sock: u32,
        /// Name bound to the accepting socket.
        sock_name: Option<String>,
        /// Name bound to the connecting socket.
        peer_name: Option<String>,
    },
    /// A connection was initiated.
    Connect {
        /// Name bound to the connecting socket.
        sock_name: Option<String>,
        /// Name bound to the accepting socket.
        peer_name: Option<String>,
    },
    /// The process terminated (0 = normal, 1 = killed).
    Term {
        /// Termination reason code.
        reason: u32,
    },
}

impl EventKind {
    /// The event name as it appears in the log.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Send { .. } => "send",
            EventKind::RecvCall => "receivecall",
            EventKind::Recv { .. } => "receive",
            EventKind::Socket { .. } => "socket",
            EventKind::Dup { .. } => "dup",
            EventKind::DestSocket => "destsocket",
            EventKind::Fork { .. } => "fork",
            EventKind::Accept { .. } => "accept",
            EventKind::Connect { .. } => "connect",
            EventKind::Term { .. } => "termproc",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Index in the parsed trace (stable identifier for analyses).
    pub idx: usize,
    /// The process that produced the event.
    pub proc: ProcKey,
    /// Machine-local clock stamp, milliseconds. "The system clock time
    /// is useful for establishing the order of events on a particular
    /// machine" (§4.1) — *not* comparable across machines.
    pub cpu_time: u32,
    /// CPU time charged to the process, 10 ms granularity.
    pub proc_time: u32,
    /// The socket involved, when the event has one.
    pub sock: Option<u32>,
    /// The typed payload.
    pub kind: EventKind,
}

/// A parsed trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Events in log order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Parses a trace from the filter's log text, one line at a time.
    /// Records that lack the fields needed to type them (heavily
    /// `#`-reduced logs) are skipped; analyses degrade gracefully
    /// rather than failing.
    pub fn parse(log_text: &str) -> Trace {
        let mut t = Trace::default();
        let mut tokens = Vec::new();
        for line in log_text.lines() {
            if let Some(event) = LogRecord::tokens(line, &mut tokens) {
                t.push(&LineFields {
                    event,
                    tokens: &tokens,
                });
            }
        }
        t
    }

    /// Appends one decoded log record to the trace, typing it exactly
    /// as [`Trace::parse`]/[`Trace::from_frames`] would. Returns
    /// whether the record produced an event (records that lack the
    /// fields needed to type them are skipped).
    pub fn push_record(&mut self, r: &LogRecord) -> bool {
        self.push(r)
    }

    /// Appends one raw meter record, decoded with `desc`, to the
    /// trace. Returns `None` when no description decodes the record,
    /// otherwise whether it produced an event. This is the append
    /// primitive live consumers grow a trace with, one record at a
    /// time: a trace grown by `push_raw` in frame order is equal to
    /// [`Trace::from_frames`] over the same frames.
    pub fn push_raw(&mut self, desc: &Descriptions, raw: &[u8]) -> Option<bool> {
        Some(self.push(&desc.visit(raw)?))
    }

    fn push(&mut self, r: &impl Fields) -> bool {
        match typed_event(self.events.len(), r) {
            Some(ev) => {
                self.events.push(ev);
                true
            }
            None => false,
        }
    }

    /// Builds a trace straight from a binary log store, decoding each
    /// stored raw meter record with `desc` — no intermediate text log.
    /// Frames are consumed in arrival (sequence) order, so a
    /// store-backed filter and a text-backed filter over the same
    /// input yield the same trace.
    pub fn from_store(reader: &StoreReader, desc: &Descriptions) -> Trace {
        Trace::from_frames(reader.scan(), desc)
    }

    /// Builds a trace from a binary log store in *canonical* order:
    /// frames sorted by `(machine, pid, meter sequence, store
    /// sequence)` rather than arrival order. Two stores holding the
    /// same set of records — say, a flat filter's store and the root of
    /// a filter tree whose aggregates interleaved their children
    /// differently — yield byte-identical canonical traces.
    pub fn from_store_canonical(reader: &StoreReader, desc: &Descriptions) -> Trace {
        let mut frames: Vec<Frame<'_>> = reader.scan().collect();
        frames.sort_by_key(|f| {
            let meter_seq = dpm_filter::RecordView::new(f.raw).seq();
            (f.proc.machine, f.proc.pid, meter_seq, f.seq)
        });
        Trace::from_frames(frames, desc)
    }

    /// Builds a trace from an iterator of stored [`Frame`]s, in the
    /// iterator's order. Reduction (`#` discards) is deferred to read
    /// time by the store, so records are decoded in full; frames whose
    /// raw bytes no description matches are skipped, like unparseable
    /// text records.
    pub fn from_frames<'a, I>(frames: I, desc: &Descriptions) -> Trace
    where
        I: IntoIterator<Item = Frame<'a>>,
    {
        let mut t = Trace::default();
        for f in frames {
            t.push_raw(desc, f.raw);
        }
        t
    }

    /// The distinct processes, in first-appearance order.
    pub fn processes(&self) -> Vec<ProcKey> {
        let mut seen = Vec::new();
        for e in &self.events {
            if !seen.contains(&e.proc) {
                seen.push(e.proc);
            }
        }
        seen
    }

    /// The distinct machines, ascending.
    pub fn machines(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.events.iter().map(|e| e.proc.machine).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Events of one process, in log order.
    pub fn of_process(&self, p: ProcKey) -> Vec<&Event> {
        self.events.iter().filter(|e| e.proc == p).collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What typing a record needs from it, whatever it was decoded from.
trait Fields {
    /// The event name (`send`, `accept`, …).
    fn event(&self) -> &str;
    /// An integer field; `None` when absent or not a number.
    fn int(&self, field: &str) -> Option<u64>;
    /// A socket-name field's display form; `None` when absent or
    /// blank (`-`).
    fn name(&self, field: &str) -> Option<String>;
}

/// One log line's tokens, borrowed from the text and still escaped.
struct LineFields<'t, 'a> {
    event: Cow<'a, str>,
    tokens: &'t [(&'a str, &'a str)],
}

impl LineFields<'_, '_> {
    /// The written value of the first token named `field`. A name
    /// needing no escapes is written as is, so the typed fields match
    /// on the raw token name.
    fn value(&self, field: &str) -> Option<&str> {
        self.tokens
            .iter()
            .find(|(n, _)| *n == field)
            .map(|(_, v)| *v)
    }
}

impl Fields for LineFields<'_, '_> {
    fn event(&self) -> &str {
        &self.event
    }

    fn int(&self, field: &str) -> Option<u64> {
        // An escaped value unescapes to a non-digit, so a value that
        // parses needed no unescaping.
        self.value(field)?.parse().ok()
    }

    fn name(&self, field: &str) -> Option<String> {
        match self.value(field)? {
            "-" => None,
            v => Some(unescape(v).into_owned()),
        }
    }
}

impl Fields for LogRecord {
    fn event(&self) -> &str {
        &self.event
    }

    fn int(&self, field: &str) -> Option<u64> {
        self.get_int(field)
    }

    fn name(&self, field: &str) -> Option<String> {
        match self.get(field)? {
            "-" => None,
            v => Some(v.to_owned()),
        }
    }
}

impl Fields for RawFields<'_, '_> {
    fn event(&self) -> &str {
        RawFields::event(self)
    }

    fn int(&self, field: &str) -> Option<u64> {
        match self.get(field)? {
            FieldRef::Int(v) => Some(v),
            // As the log line would show it.
            name => name.to_string().parse().ok(),
        }
    }

    fn name(&self, field: &str) -> Option<String> {
        let value = self.get(field)?;
        (!value.is_blank()).then(|| value.to_string())
    }
}

fn typed_event(idx: usize, r: &impl Fields) -> Option<Event> {
    let machine = r.int("machine")? as u32;
    let pid = r.int("pid")? as u32;
    let cpu_time = r.int("cpuTime").unwrap_or(0) as u32;
    let proc_time = r.int("procTime").unwrap_or(0) as u32;
    let sock = r.int("sock").map(|v| v as u32);
    let kind = match r.event() {
        "send" => EventKind::Send {
            len: r.int("msgLength")? as u32,
            dest: r.name("destName"),
        },
        "receivecall" => EventKind::RecvCall,
        "receive" => EventKind::Recv {
            len: r.int("msgLength")? as u32,
            source: r.name("sourceName"),
        },
        "socket" => EventKind::Socket {
            domain: r.int("domain")? as u32,
            sock_type: r.int("type")? as u32,
        },
        "dup" => EventKind::Dup {
            new_sock: r.int("newSock")? as u32,
        },
        "destsocket" => EventKind::DestSocket,
        "fork" => EventKind::Fork {
            child: r.int("newPid")? as u32,
        },
        "accept" => EventKind::Accept {
            new_sock: r.int("newSock")? as u32,
            sock_name: r.name("sockName"),
            peer_name: r.name("peerName"),
        },
        "connect" => EventKind::Connect {
            sock_name: r.name("sockName"),
            peer_name: r.name("peerName"),
        },
        "termproc" => EventKind::Term {
            reason: r.int("reason").unwrap_or(0) as u32,
        },
        _ => return None,
    };
    Some(Event {
        idx,
        proc: ProcKey { machine, pid },
        cpu_time,
        proc_time,
        sock,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
event=socket machine=0 cpuTime=10 procTime=0 traceType=4 pid=100 pc=1 sock=1 domain=2 type=2 protocol=0
event=send machine=0 cpuTime=20 procTime=0 traceType=1 pid=100 pc=2 sock=1 msgLength=64 destName=inet:1:53
event=receivecall machine=1 cpuTime=5 procTime=0 traceType=2 pid=200 pc=1 sock=9
event=receive machine=1 cpuTime=30 procTime=10 traceType=3 pid=200 pc=1 sock=9 msgLength=64 sourceName=inet:0:1024
event=termproc machine=0 cpuTime=40 procTime=10 traceType=10 pid=100 pc=3 reason=0
";

    #[test]
    fn parses_typed_events() {
        let t = Trace::parse(LOG);
        assert_eq!(t.len(), 5);
        assert_eq!(
            t.events[1].kind,
            EventKind::Send {
                len: 64,
                dest: Some("inet:1:53".into())
            }
        );
        assert_eq!(
            t.events[3].proc,
            ProcKey {
                machine: 1,
                pid: 200
            }
        );
        assert_eq!(t.events[4].kind, EventKind::Term { reason: 0 });
    }

    #[test]
    fn processes_and_machines() {
        let t = Trace::parse(LOG);
        assert_eq!(
            t.processes(),
            vec![
                ProcKey {
                    machine: 0,
                    pid: 100
                },
                ProcKey {
                    machine: 1,
                    pid: 200
                }
            ]
        );
        assert_eq!(t.machines(), vec![0, 1]);
        assert_eq!(
            t.of_process(ProcKey {
                machine: 0,
                pid: 100
            })
            .len(),
            3
        );
    }

    #[test]
    fn dash_names_are_none() {
        let t = Trace::parse(
            "event=send machine=0 cpuTime=1 procTime=0 traceType=1 pid=1 pc=1 sock=1 msgLength=5 destName=-\n",
        );
        assert_eq!(t.events[0].kind, EventKind::Send { len: 5, dest: None });
    }

    #[test]
    fn unparseable_records_are_skipped() {
        let t = Trace::parse("event=send machine=0 pid=1\nevent=weird machine=0 pid=1\n");
        assert!(t.is_empty());
    }

    /// Regression: a SOCKET record's body field `type` (stream or
    /// datagram) used to be read through the rules layer's `type` →
    /// `traceType` alias, so every socket rendered `type=4` and typed
    /// as `sock_type: 4`.
    #[test]
    fn socket_type_is_the_body_field_not_the_trace_type() {
        use dpm_logstore::{LogStore, MemBackend, StoreConfig};
        use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSockCrt};
        use std::sync::Arc;

        let raw = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 0,
                cpu_time: 10,
                seq: 0,
                proc_time: 0,
                trace_type: dpm_meter::trace_type::SOCKET,
            },
            body: MeterBody::SockCrt(MeterSockCrt {
                pid: 100,
                pc: 1,
                sock: 3,
                domain: 2,
                sock_type: 2, // datagram
                protocol: 0,
            }),
        }
        .encode();
        let desc = Descriptions::standard();
        let line = LogRecord::from_raw(&desc, &raw, &[]).unwrap().to_string();
        assert_eq!(
            line,
            "event=socket machine=0 cpuTime=10 procTime=0 traceType=4 pid=100 pc=1 sock=3 domain=2 type=2 protocol=0"
        );
        let want = EventKind::Socket {
            domain: 2,
            sock_type: 2,
        };
        assert_eq!(Trace::parse(&line).events[0].kind, want);

        let store = LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
        let mut w = store.writer(0);
        w.append(&raw);
        w.flush();
        assert_eq!(
            Trace::from_store(&store.reader(), &desc).events[0].kind,
            want
        );
    }

    #[test]
    fn store_backed_trace_matches_text_backed_trace() {
        use dpm_logstore::{LogStore, MemBackend, StoreConfig};
        use dpm_meter::{
            MeterBody, MeterFork, MeterHeader, MeterMsg, MeterSendMsg, MeterTermProc, SockName,
            TermReason,
        };
        use std::sync::Arc;

        let msg = |machine: u16, cpu: u32, body: MeterBody| {
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
        };
        let raws: Vec<Vec<u8>> = vec![
            msg(
                0,
                10,
                MeterBody::Send(MeterSendMsg {
                    pid: 100,
                    pc: 1,
                    sock: 3,
                    msg_length: 64,
                    dest_name: Some(SockName::inet(1, 53)),
                }),
            ),
            msg(
                1,
                20,
                MeterBody::Fork(MeterFork {
                    pid: 200,
                    pc: 2,
                    new_pid: 201,
                }),
            ),
            msg(
                0,
                30,
                MeterBody::TermProc(MeterTermProc {
                    pid: 100,
                    pc: 3,
                    reason: TermReason::Normal,
                }),
            ),
        ];
        let desc = Descriptions::standard();

        // Text path: render each record to a log line, then parse.
        let mut text = String::new();
        for raw in &raws {
            let rec = LogRecord::from_raw(&desc, raw, &[]).expect("decode");
            text.push_str(&rec.to_string());
            text.push('\n');
        }
        let from_text = Trace::parse(&text);

        // Store path: append the same raw records, read back, decode.
        let store = LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
        let mut w = store.writer(0);
        for raw in &raws {
            w.append(raw);
        }
        w.flush();
        let reader = store.reader();
        let from_store = Trace::from_store(&reader, &desc);

        assert_eq!(from_store.len(), 3);
        assert_eq!(from_store, from_text);
    }
}
