//! The `replay` workload: the filter, store, live and analysis layers
//! in one thread, with no simulator in the way.
//!
//! Set-up builds, from the seed, the meter byte stream the `flat`
//! job's two stages make (see `sim.rs`): `/bin/stage` 0 connects to
//! stage 1 and writes each item `i` as the line `item{i}\n`; stage 1
//! reads the lines one byte per `read` call, as `Proc::read_line`
//! does, then reports its count on its stdout. So every item send
//! pairs with the one-byte receives of its bytes. Each process's
//! records are flushed in runs of the kernel's meter buffer size, and
//! the two processes' flushes interleave as they reach a filter.
//!
//! The timed pass feeds the stream in 4 KiB chunks (the filter's read
//! size) through `FilterEngine::feed_records` into a `SegmentWriter`
//! on a `MemBackend`, with a `StoreTail` and a `LiveTrace` following
//! the store beside the writer; then `StoreReader` → `Trace::from_store`
//! → `Analysis::of_trace` gives the result.

use crate::spans::{Tracer, ROOT};
use crate::{check_item_sends, item_count, mix, per, render, timed_setup, Outcome, Tm};
use dpm_analysis::{Analysis, ProcKey, Trace};
use dpm_filter::{Descriptions, FilterEngine, Rules};
use dpm_live::LiveTrace;
use dpm_logstore::{
    seal_manifest_hook, Backend, LogStore, MemBackend, StoreConfig, StoreReader, StoreTail,
};
use dpm_meter::{
    MeterAccept, MeterBody, MeterConnect, MeterDestSock, MeterHeader, MeterMsg, MeterRecvCall,
    MeterRecvMsg, MeterSendMsg, MeterSockCrt, MeterTermProc, SockName, TermReason,
};
use dpm_simos::ClusterConfig;
use std::sync::Arc;
use std::time::Instant;

/// Bytes handed to the filter engine per call.
const CHUNK: usize = 4096;
/// The tail polls the store once per this many chunks fed.
const POLL_EVERY: usize = 16;
const DIR: &str = "/store";
const SENDER_HOST: u16 = 0;
const RECEIVER_HOST: u16 = 1;
/// Stage 1's listening port (`PIPE_PORT + 1`) and stage 0's local one.
const PORT: u16 = 2101;
const LOCAL_PORT: u16 = 1026;
/// `AF_INET`, `SOCK_STREAM` as the simulated kernel meters them.
const INET: u32 = 2;
const STREAM: u32 = 1;
/// The socket the simulated kernel gives stage 1's stdout.
const STDOUT_SOCK: u32 = 6;

/// One process's metered records, in order.
struct ProcStream {
    machine: u16,
    pid: u32,
    /// System calls made so far: the records' `pc`.
    pc: u32,
    clock: u32,
    seq: u32,
    msgs: Vec<MeterMsg>,
}

impl ProcStream {
    fn new(machine: u16, pid: u32) -> ProcStream {
        ProcStream {
            machine,
            pid,
            pc: 0,
            clock: 1_000,
            seq: 0,
            msgs: Vec::new(),
        }
    }

    /// Makes `calls` system calls, the last of which is metered as
    /// `body(pid, pc)`; 0 meters an event of the current call.
    fn call(&mut self, calls: u32, body: impl FnOnce(u32, u32) -> MeterBody) {
        self.pc += calls;
        let body = body(self.pid, self.pc);
        self.seq += 1;
        self.clock += 1;
        self.msgs.push(MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: self.machine,
                cpu_time: self.clock,
                seq: self.seq,
                proc_time: self.clock / 10,
                trace_type: body.trace_type(),
            },
            body,
        });
    }

    fn sock_crt(&mut self, calls: u32, sock: u32) {
        self.call(calls, |pid, pc| {
            MeterBody::SockCrt(MeterSockCrt {
                pid,
                pc,
                sock,
                domain: INET,
                sock_type: STREAM,
                protocol: 0,
            })
        });
    }

    fn dest_sock(&mut self, calls: u32, sock: u32) {
        self.call(calls, |pid, pc| {
            MeterBody::DestSock(MeterDestSock { pid, pc, sock })
        });
    }

    fn recv_call(&mut self, sock: u32) {
        self.call(1, |pid, pc| {
            MeterBody::RecvCall(MeterRecvCall { pid, pc, sock })
        });
    }

    fn send(&mut self, sock: u32, len: usize) {
        self.call(1, |pid, pc| {
            MeterBody::Send(MeterSendMsg {
                pid,
                pc,
                sock,
                msg_length: len as u32,
                dest_name: None,
            })
        });
    }

    /// Meters the process's exit and splits its records into the
    /// kernel's flushes: one per full meter buffer, and the rest when
    /// the process ends.
    fn exit(mut self, buffer: usize) -> Vec<Vec<MeterMsg>> {
        self.call(0, |pid, pc| {
            MeterBody::TermProc(MeterTermProc {
                pid,
                pc,
                reason: TermReason::Normal,
            })
        });
        self.msgs.chunks(buffer).map(<[MeterMsg]>::to_vec).collect()
    }
}

/// The generated input: messages in stream order, and what the checks
/// need to know about them.
struct Input {
    msgs: Vec<MeterMsg>,
    flushes: u64,
    sender: ProcKey,
    items: u64,
}

/// Builds the flat job's meter records from the seed. The seed picks
/// the item count, the process ids, how many of stage 0's connects
/// stage 1 refuses while it is still starting, and the order in which
/// the two processes' flushes reach the filter.
fn generate(seed: u64) -> Input {
    let items = item_count(seed);
    let buffer = ClusterConfig::default().meter_buffer_msgs as usize;
    let mut tx = ProcStream::new(SENDER_HOST, 2_000 + (mix(seed, 2) % 1_000) as u32);
    let mut rx = ProcStream::new(RECEIVER_HOST, 3_000 + (mix(seed, 3) % 1_000) as u32);
    let sender = ProcKey {
        machine: u32::from(SENDER_HOST),
        pid: tx.pid,
    };
    let local = SockName::inet(u32::from(SENDER_HOST), LOCAL_PORT);
    let remote = SockName::inet(u32::from(RECEIVER_HOST), PORT);

    // Stage 0: each refused connect leaves a socket created and closed.
    let mut sock = 9;
    for _ in 0..mix(seed, 4) % 3 {
        tx.sock_crt(1, sock);
        tx.dest_sock(2, sock);
        sock += 1;
    }
    tx.sock_crt(1, sock);
    tx.call(1, |pid, pc| {
        MeterBody::Connect(MeterConnect {
            pid,
            pc,
            sock,
            sock_name: Some(local.clone()),
            peer_name: Some(remote.clone()),
        })
    });
    let mut sent = 0;
    for i in 0..items {
        let len = format!("item{i}\n").len();
        tx.send(sock, len);
        sent += len;
    }
    tx.dest_sock(1, sock);

    // Stage 1: socket, bind, listen, accept; one receive call and one
    // one-byte receive per byte; a last call that finds end of stream.
    rx.sock_crt(1, 9);
    rx.call(3, |pid, pc| {
        MeterBody::Accept(MeterAccept {
            pid,
            pc,
            sock: 9,
            new_sock: 10,
            sock_name: Some(remote.clone()),
            peer_name: Some(local.clone()),
        })
    });
    for _ in 0..sent {
        rx.recv_call(10);
        rx.call(0, |pid, pc| {
            MeterBody::Recv(MeterRecvMsg {
                pid,
                pc,
                sock: 10,
                msg_length: 1,
                source_name: None,
            })
        });
    }
    rx.recv_call(10);
    rx.dest_sock(1, 10);
    rx.send(STDOUT_SOCK, format!("sink got {items} items\n").len());

    // Interleave the flushes: each next one comes from a process with
    // a seeded chance in proportion to the flushes it has left.
    let tx = tx.exit(buffer);
    let rx = rx.exit(buffer);
    let flushes = (tx.len() + rx.len()) as u64;
    let mut msgs = Vec::new();
    let (mut ti, mut ri) = (0usize, 0usize);
    for turn in 0..flushes {
        let (tx_left, rx_left) = ((tx.len() - ti) as u64, (rx.len() - ri) as u64);
        let flush = if mix(seed, 1 << 40 | turn) % (tx_left + rx_left) < tx_left {
            ti += 1;
            &tx[ti - 1]
        } else {
            ri += 1;
            &rx[ri - 1]
        };
        msgs.extend(flush.iter().cloned());
    }
    Input {
        msgs,
        flushes,
        sender,
        items,
    }
}

/// The meter wire bytes of `msgs`, as the kernel sends them.
fn encode(msgs: &[MeterMsg]) -> Vec<u8> {
    let mut wire = Vec::new();
    for m in msgs {
        m.encode_into(&mut wire);
    }
    wire
}

/// One iteration of `replay`.
pub fn run(seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let sp = tr.begin("setup", ROOT);
    let ((input, stream), setup_s) = timed_setup(
        || {
            let input = generate(seed);
            let stream = encode(&input.msgs);
            (input, stream)
        },
        drop,
    );
    tr.end(sp);
    out.setup_s = setup_s;
    out.expected = input.msgs.len() as u64;
    let tm_before = Tm::now();

    let desc = Descriptions::standard();
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let t0 = Instant::now();
    let mut store = LogStore::open(Arc::clone(&backend), DIR, StoreConfig::default());
    store.set_seal_hook(seal_manifest_hook(Arc::clone(&backend), DIR));
    let mut writer = store.writer(0);
    let mut engine = FilterEngine::new(desc.clone(), Rules::default());
    let mut tail = StoreTail::new();
    let mut live = LiveTrace::new(desc.clone());
    let mut kept: Vec<u8> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let follow = |tr: &mut Tracer, tail: &mut StoreTail, live: &mut LiveTrace| {
        let frames = tr.time("logstore.tail", ROOT, || tail.poll(&*backend, DIR));
        tr.time("live.ingest", ROOT, || live.ingest_batch(frames));
    };
    for (i, chunk) in stream.chunks(CHUNK).enumerate() {
        kept.clear();
        ends.clear();
        tr.time("filter.feed", ROOT, || {
            engine.feed_records(chunk, &mut |view, _rec| {
                kept.extend_from_slice(view.bytes());
                ends.push(kept.len());
            })
        });
        tr.time("logstore.append", ROOT, || {
            let mut from = 0;
            for &end in &ends {
                writer.append(&kept[from..end]);
                from = end;
            }
        });
        if (i + 1) % POLL_EVERY == 0 {
            follow(tr, &mut tail, &mut live);
        }
    }
    tr.time("logstore.append", ROOT, || writer.flush());
    follow(tr, &mut tail, &mut live);
    let t_complete = t0.elapsed().as_secs_f64();

    let sp = tr.begin("result", ROOT);
    let reader = tr.time("logstore.scan", sp, || StoreReader::load(&*backend, DIR));
    let trace = tr.time("analysis.parse", sp, || Trace::from_store(&reader, &desc));
    let analysis = tr.time("analysis.analyze", sp, || Analysis::of_trace(trace));
    tr.end(sp);
    out.result_s = t0.elapsed().as_secs_f64();
    out.records = reader.n_records();
    out.records_per_s = out.records as f64 / t_complete;

    // Output checks: the live view equals the batch one field for
    // field, every input record is stored once, every item send pairs.
    out.check(out.records == out.expected, move || {
        format!(
            "store holds {} records, the input has {}",
            out.records, out.expected
        )
    });
    out.check(live.trace() == &analysis.trace, || {
        "live trace differs from the batch trace".to_owned()
    });
    out.check(live.pairing() == &analysis.pairing, || {
        "live pairing differs from the batch pairing".to_owned()
    });
    out.check(live.hb() == &analysis.hb, || {
        "live happens-before differs from the batch one".to_owned()
    });
    out.check(live.stats() == &analysis.stats, || {
        "live statistics differ from the batch ones".to_owned()
    });
    check_item_sends(&mut out, &analysis, input.sender, input.items, true);

    if tr.is_on() {
        // Set-up encodes the stream several times; time one pass.
        std::hint::black_box(tr.time("meter.encode", ROOT, || encode(&input.msgs)));
        tr.time("filter.render", ROOT, || {
            std::hint::black_box(render(&desc, &reader))
        });
    }

    let tm = Tm::now();
    let store_bytes: u64 = reader.segments_info().iter().map(|s| s.data_len).sum();
    out.counts = vec![
        ("logstore.records", out.records as f64),
        ("meter.records", out.expected as f64),
        (
            "meter.bytes_per_record",
            per(stream.len() as u64, out.expected),
        ),
        ("meter.records_per_flush", per(out.expected, input.flushes)),
        ("simnet.cross_bytes_per_record", 0.0),
        ("prefilter.accept_ratio", 0.0),
        ("filter.dups_suppressed", engine.stats().duplicates as f64),
        ("aggregate.dups_at_root", 0.0),
        ("logstore.bytes_per_record", per(store_bytes, out.records)),
        (
            "logstore.flushes",
            tm.delta(&tm_before, "store", "flush_batch_bytes") as f64,
        ),
        (
            "logstore.seals",
            tm.delta(&tm_before, "store", "seals") as f64,
        ),
        ("meterd.rpc_served", 0.0),
        ("meterd.rpc_retries", 0.0),
        ("net.connect_retries", 0.0),
    ];
    out
}
