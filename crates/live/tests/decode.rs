//! The one record decoder, checked from every side it is used.
//!
//! Over generated records of all ten trace types — random integers,
//! and names that are absent, Internet, UNIX (paths holding a space
//! and `=`, or the vertical tab, form feed and U+0085 that Unicode
//! also counts as whitespace) or socketpair names — with and without
//! `#` discards:
//!
//! * a rendered line parses back to the record [`LogRecord::from_raw`]
//!   builds;
//! * typing the rendered log, the raw frames and the live engine's
//!   frames gives one trace;
//! * truncated records and arbitrary bytes are refused, never a panic.

use dpm_analysis::Trace;
use dpm_filter::{Descriptions, LogRecord};
use dpm_live::LiveTrace;
use dpm_logstore::{LogStore, MemBackend, OwnedFrame, StoreConfig};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterDup, MeterFork, MeterHeader,
    MeterMsg, MeterRecvCall, MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName,
    TermReason,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_name() -> impl Strategy<Value = Option<SockName>> {
    prop_oneof![
        Just(None),
        (any::<u32>(), any::<u16>()).prop_map(|(host, port)| Some(SockName::inet(host, port))),
        prop_oneof![
            Just("/tmp/a b=c"),
            Just("/tmp/v\x0Bf\x0Cn\u{85}x"),
            Just("/tmp/s"),
            Just("C:\\x\ty"),
            Just(""),
            Just("/usr/tmp/a-very-long-socket-name"),
        ]
        .prop_map(|path| Some(SockName::unix(path))),
        any::<u64>().prop_map(|id| Some(SockName::Internal(id))),
    ]
}

/// One record of trace type `1..=10`, built from drawn integers and
/// names. Its meter seq is filled in by the caller.
fn arb_msg() -> impl Strategy<Value = MeterMsg> {
    (
        1u32..=10,
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 6..7),
        arb_name(),
        arb_name(),
    )
        .prop_map(|(trace_type, machine, cpu_time, proc_time, n, a, b)| {
            let (pid, pc, sock) = (n[0], n[1], n[2]);
            let body = match trace_type {
                1 => MeterBody::Send(MeterSendMsg {
                    pid,
                    pc,
                    sock,
                    msg_length: n[3],
                    dest_name: a,
                }),
                2 => MeterBody::RecvCall(MeterRecvCall { pid, pc, sock }),
                3 => MeterBody::Recv(MeterRecvMsg {
                    pid,
                    pc,
                    sock,
                    msg_length: n[3],
                    source_name: a,
                }),
                4 => MeterBody::SockCrt(MeterSockCrt {
                    pid,
                    pc,
                    sock,
                    domain: n[3],
                    sock_type: n[4],
                    protocol: n[5],
                }),
                5 => MeterBody::Dup(MeterDup {
                    pid,
                    pc,
                    sock,
                    new_sock: n[3],
                }),
                6 => MeterBody::DestSock(MeterDestSock { pid, pc, sock }),
                7 => MeterBody::Fork(MeterFork {
                    pid,
                    pc,
                    new_pid: n[3],
                }),
                8 => MeterBody::Accept(MeterAccept {
                    pid,
                    pc,
                    sock,
                    new_sock: n[3],
                    sock_name: a,
                    peer_name: b,
                }),
                9 => MeterBody::Connect(MeterConnect {
                    pid,
                    pc,
                    sock,
                    sock_name: a,
                    peer_name: b,
                }),
                _ => MeterBody::TermProc(MeterTermProc {
                    pid,
                    pc,
                    reason: if n[3] % 2 == 0 {
                        TermReason::Normal
                    } else {
                        TermReason::Killed
                    },
                }),
            };
            MeterMsg {
                header: MeterHeader {
                    size: 0,
                    machine,
                    cpu_time,
                    seq: 0,
                    proc_time,
                    trace_type,
                },
                body,
            }
        })
}

/// Raw records with distinct meter seqs (or none), so the live
/// engine's `(machine, pid, seq)` dedup keeps every one.
fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (proptest::collection::vec(arb_msg(), 1..30), any::<bool>()).prop_map(|(msgs, sequenced)| {
        msgs.into_iter()
            .enumerate()
            .map(|(i, mut m)| {
                m.header.seq = if sequenced { i as u32 + 1 } else { 0 };
                m.encode()
            })
            .collect()
    })
}

/// A `#` discard list: any of the fields rules can strip, including
/// the `size` alias for `msgLength`.
fn arb_discard() -> impl Strategy<Value = Vec<String>> {
    const FIELDS: [&str; 8] = [
        "machine", "procTime", "pc", "size", "type", "destName", "peerName", "reason",
    ];
    proptest::collection::vec(0usize..FIELDS.len(), 0..3)
        .prop_map(|picks| picks.into_iter().map(|i| FIELDS[i].to_owned()).collect())
}

fn render(desc: &Descriptions, raw: &[u8], discard: &[String]) -> Option<String> {
    let mut line = String::new();
    LogRecord::render(desc, raw, discard, &mut line).then_some(line)
}

proptest! {
    /// A rendered line is the record `from_raw` builds, written out.
    #[test]
    fn rendered_line_parses_to_the_decoded_record(
        records in arb_records(),
        discard in arb_discard(),
    ) {
        let desc = Descriptions::standard();
        for raw in &records {
            let line = render(&desc, raw, &discard).expect("a whole record renders");
            prop_assert!(!line.contains('\n'), "one record, one line: {line:?}");
            let rec = LogRecord::from_raw(&desc, raw, &discard).expect("a whole record decodes");
            prop_assert_eq!(&line, &rec.to_string());
            prop_assert_eq!(LogRecord::parse(&line), Some(rec));
        }
    }

    /// The rendered log, the raw frames and the live engine type the
    /// same records into the same trace.
    #[test]
    fn text_raw_and_live_traces_agree(records in arb_records()) {
        let desc = Descriptions::standard();
        let mut log = String::new();
        for raw in &records {
            log.push_str(&render(&desc, raw, &[]).expect("a whole record renders"));
            log.push('\n');
        }
        let store = LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
        let mut w = store.writer(0);
        for raw in &records {
            w.append(raw);
        }
        w.flush();
        let reader = store.reader();

        let from_frames = Trace::from_frames(reader.scan(), &desc);
        prop_assert_eq!(from_frames.len(), records.len(), "every record types");
        prop_assert_eq!(&Trace::parse(&log), &from_frames);
        let mut live = LiveTrace::new(desc.clone());
        live.ingest_batch(reader.scan().map(|f| OwnedFrame::of(&f)));
        prop_assert_eq!(live.trace(), &from_frames);
    }

    /// Truncated records are refused by rendering and typing alike.
    #[test]
    fn truncated_records_are_refused(records in arb_records(), cut in any::<usize>()) {
        let desc = Descriptions::standard();
        for raw in &records {
            let short = &raw[..cut % raw.len()];
            prop_assert_eq!(render(&desc, short, &[]), None);
            prop_assert_eq!(LogRecord::from_raw(&desc, short, &[]), None);
            prop_assert_eq!(Trace::default().push_raw(&desc, short), None);
        }
    }

    /// Arbitrary bytes never panic a decoder, and rendering, decoding
    /// and typing agree on whether they are a record.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
        trace_type in 0u32..12,
    ) {
        let desc = Descriptions::standard();
        // Half the time, aim the trace-type field at a real layout.
        let mut raw = bytes;
        if raw.len() >= 24 && trace_type > 0 {
            raw[20..24].copy_from_slice(&trace_type.to_le_bytes());
        }
        let line = render(&desc, &raw, &[]);
        let rec = LogRecord::from_raw(&desc, &raw, &[]);
        prop_assert_eq!(line.is_some(), rec.is_some());
        prop_assert_eq!(Trace::default().push_raw(&desc, &raw).is_some(), rec.is_some());
        if let Some(line) = line {
            let _ = Trace::parse(&line);
        }
    }
}
