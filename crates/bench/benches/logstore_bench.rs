//! Criterion benchmark E4b: the binary log store against the flat
//! text log — ingest throughput at the filter's sink, and point-query
//! latency at read time (`by_proc` via the per-segment postings vs
//! re-parsing the whole text log, the paper's §3.3 analysis path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpm_filter::{Descriptions, FilterEngine, LogRecord, DEFAULT_BATCH_BYTES};
use dpm_logstore::{LogStore, MemBackend, ProcId, StoreConfig};
use dpm_meter::{trace_type, MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
use std::hint::black_box;
use std::sync::Arc;

const RECORDS: usize = 4096;
const PIDS: u32 = 64;

/// A wire chunk of `records` send records spread over `PIDS` distinct
/// processes, so the point-query benchmark has a real key to chase.
fn wire_chunk(records: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..records {
        let msg = MeterMsg {
            header: MeterHeader {
                size: 0,
                machine: 3,
                cpu_time: i as u32,
                seq: 0,
                proc_time: 20,
                trace_type: trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 1000 + (i as u32 % PIDS),
                pc: 9,
                sock: 4,
                msg_length: 612,
                dest_name: Some(SockName::inet(1, 53)),
            }),
        };
        msg.encode_into(&mut wire);
    }
    wire
}

/// Ingest: run the same wire stream through the filter engine into
/// (a) the text sink discipline the shard workers use — render each
/// kept record, batch to [`DEFAULT_BATCH_BYTES`], append to a backend
/// file — and (b) the store's group-commit segment writer.
fn bench_ingest(c: &mut Criterion) {
    let wire = wire_chunk(RECORDS);
    let mut g = c.benchmark_group("logstore_ingest");
    g.throughput(Throughput::Elements(RECORDS as u64));

    g.bench_with_input(
        BenchmarkId::from_parameter("text_sink"),
        &wire,
        |b, wire| {
            b.iter(|| {
                let backend = MemBackend::new();
                let mut engine = FilterEngine::standard();
                let mut batch = String::new();
                let mut kept = 0usize;
                let desc = Descriptions::standard();
                engine.feed_records(wire, &mut |view, discard| {
                    if LogRecord::render(&desc, view.bytes(), discard, &mut batch) {
                        batch.push('\n');
                    }
                    if batch.len() >= DEFAULT_BATCH_BYTES {
                        dpm_logstore::Backend::append(&backend, "/log.f1", batch.as_bytes());
                        batch.clear();
                    }
                    kept += 1;
                });
                if !batch.is_empty() {
                    dpm_logstore::Backend::append(&backend, "/log.f1", batch.as_bytes());
                }
                black_box(kept)
            });
        },
    );

    g.bench_with_input(
        BenchmarkId::from_parameter("store_sink"),
        &wire,
        |b, wire| {
            b.iter(|| {
                let store =
                    LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
                let mut engine = FilterEngine::standard();
                let mut w = store.writer(0);
                let mut kept = 0usize;
                engine.feed_records(wire, &mut |view, _discard| {
                    w.append(view.bytes());
                    kept += 1;
                });
                w.flush();
                black_box(kept)
            });
        },
    );
    g.finish();
}

/// Point query: all records of one process. The store jumps through
/// the per-segment `(machine, pid)` postings; the text path must
/// re-parse the entire log, which is what every analysis pass over a
/// flat text file pays.
fn bench_point_query(c: &mut Criterion) {
    let wire = wire_chunk(RECORDS);

    // Build both representations once.
    let store = LogStore::open(Arc::new(MemBackend::new()), "/log", StoreConfig::default());
    let mut engine = FilterEngine::standard();
    let desc = Descriptions::standard();
    let mut text = String::new();
    {
        let mut w = store.writer(0);
        engine.feed_records(&wire, &mut |view, discard| {
            w.append(view.bytes());
            if LogRecord::render(&desc, view.bytes(), discard, &mut text) {
                text.push('\n');
            }
        });
        w.flush();
    }
    let reader = store.reader();
    let target = ProcId {
        machine: 3,
        pid: 1000,
    };

    let mut g = c.benchmark_group("logstore_point_query");
    g.throughput(Throughput::Elements((RECORDS as u64) / PIDS as u64));

    g.bench_function(BenchmarkId::from_parameter("store_by_proc"), |b| {
        b.iter(|| black_box(reader.by_proc(target).len()));
    });

    g.bench_function(BenchmarkId::from_parameter("text_full_scan"), |b| {
        b.iter(|| {
            let hits = LogRecord::parse_log(&text)
                .into_iter()
                .filter(|r| r.get("pid") == Some("1000"))
                .count();
            black_box(hits)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ingest, bench_point_query);
criterion_main!(benches);
