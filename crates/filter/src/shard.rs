//! The sharded filter pipeline: fan meter connections across workers.
//!
//! One filter process may be the target of many meter connections —
//! every metered process on a machine streams its event records to the
//! same filter (§3.3). A single [`FilterEngine`] handles that fine
//! until record volume grows; [`ShardedFilter`] scales the hot path by
//! fanning connections across `N` worker threads.
//!
//! Design points:
//!
//! * **One engine per connection.** Reassembly state is inherently
//!   per-stream (a record straddles chunks *of its own connection*),
//!   so each worker keeps an independent [`FilterEngine`] per
//!   connection it owns. Connections are assigned to shards round
//!   robin at [`ShardedFilter::open_conn`] time and never migrate,
//!   which keeps per-connection record order intact.
//! * **Per-shard statistics.** Each worker publishes its counters to a
//!   shard-local set of atomics after every message;
//!   [`ShardedFilter::snapshot`] merges them without stopping the
//!   pipeline.
//! * **Batched log writes.** Kept records are rendered into a
//!   shard-local buffer and handed to the shard's sink in batches
//!   (threshold [`DEFAULT_BATCH_BYTES`]) rather than line by line.
//!   Batches always end on a line boundary. A shard flushes when its
//!   queue goes idle, when a connection closes, and at shutdown, so
//!   logs stay fresh for `getlog` without per-line write amplification.
//!
//! Determinism: a shard serving one connection produces byte-identical
//! sink output to a lone [`FilterEngine`] fed the same stream — the
//! sharding layer adds no transformation, only transport. (Verified by
//! a test below and by `tests/shard_pipeline.rs`.)

use crate::desc::Descriptions;
use crate::engine::{FilterEngine, FilterStats, RecordView};
use crate::log::LogRecord;
use crate::rules::Rules;
use dpm_logstore::SegmentWriter;
use dpm_telemetry::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The ingesting side's clock, for the emit→ingest staleness readout:
/// returns "now" in the same machine-local milliseconds the meter
/// header's `cpu_time` is stamped in. `None` (library/test use, where
/// there is no machine) skips the staleness histogram.
pub type IngestClock = Arc<dyn Fn() -> u32 + Send + Sync>;

/// Bytes of rendered log lines a shard accumulates before writing a
/// batch to its sink (it also flushes on idle, close, and shutdown).
pub const DEFAULT_BATCH_BYTES: usize = 8 * 1024;

/// A shard's log writer: receives whole batches of rendered lines.
pub type ShardSink = Box<dyn FnMut(&[u8]) + Send>;

/// Where one shard's kept records go.
///
/// * [`ShardLog::Text`] — rendered log lines, batched in the worker
///   and handed to the sink (the classic §3.4 text log).
/// * [`ShardLog::Store`] — raw wire records appended to a binary
///   log-store [`SegmentWriter`]; batching is the writer's own group
///   commit, and the worker drives `flush()` on idle/close/shutdown
///   so the two modes share one freshness discipline.
///
/// (The writer is boxed: a `SegmentWriter` carries its own batch and
/// index state and would otherwise dwarf the text variant.)
pub enum ShardLog {
    /// Batched rendered-text lines.
    Text(ShardSink),
    /// Raw records into the binary log store.
    Store(Box<SegmentWriter>),
}

/// One shard's logging state: the destination plus the text batch
/// buffer (unused in store mode — the store batches internally).
struct ShardLogger {
    log: ShardLog,
    desc: Descriptions,
    batch: String,
    batch_bytes: usize,
}

impl ShardLogger {
    /// Writes one kept record to the shard's log: its line, rendered
    /// straight into the batch, or its raw bytes.
    fn write(&mut self, view: RecordView<'_>, discard: &[String]) {
        match &mut self.log {
            ShardLog::Text(_) => {
                if LogRecord::render(&self.desc, view.bytes(), discard, &mut self.batch) {
                    self.batch.push('\n');
                }
                if self.batch.len() >= self.batch_bytes {
                    self.flush();
                }
            }
            ShardLog::Store(writer) => {
                writer.append(view.bytes());
            }
        }
    }

    /// Flushes buffered output to the destination.
    fn flush(&mut self) {
        match &mut self.log {
            ShardLog::Text(sink) => {
                if !self.batch.is_empty() {
                    sink(self.batch.as_bytes());
                    self.batch.clear();
                }
            }
            ShardLog::Store(writer) => writer.flush(),
        }
    }
}

/// Messages from connection feeders to shard workers.
enum Msg {
    /// Bytes read from one meter connection.
    Data { conn: u64, bytes: Vec<u8> },
    /// The connection hit EOF or was closed.
    Close { conn: u64 },
    /// Flush the batch buffer and acknowledge.
    Flush(Sender<()>),
}

/// Lock-free counters one worker publishes for its shard.
#[derive(Default)]
struct ShardCounters {
    seen: AtomicU64,
    kept: AtomicU64,
    rejected: AtomicU64,
    duplicates: AtomicU64,
    garbage_bytes: AtomicU64,
}

impl ShardCounters {
    fn publish(&self, s: FilterStats) {
        self.seen.store(s.seen, Ordering::Relaxed);
        self.kept.store(s.kept, Ordering::Relaxed);
        self.rejected.store(s.rejected, Ordering::Relaxed);
        self.duplicates.store(s.duplicates, Ordering::Relaxed);
        self.garbage_bytes.store(s.garbage_bytes, Ordering::Relaxed);
    }

    fn load(&self) -> FilterStats {
        FilterStats {
            seen: self.seen.load(Ordering::Relaxed),
            kept: self.kept.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            garbage_bytes: self.garbage_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A handle for feeding one meter connection's bytes into the
/// pipeline. Clone it freely; all clones refer to the same stream.
///
/// Feeds from a single reader arrive at the owning shard in order, so
/// per-connection record order is preserved end to end.
#[derive(Clone)]
pub struct ConnHandle {
    conn: u64,
    shard: usize,
    tx: Sender<Msg>,
    /// The owning shard's queue-depth gauge: feeds increment it, the
    /// worker decrements as it drains.
    depth: Arc<Gauge>,
}

impl ConnHandle {
    /// The shard this connection was assigned to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Feeds a chunk of this connection's stream to its shard.
    /// Silently drops data after the pipeline has shut down.
    pub fn feed(&self, bytes: Vec<u8>) {
        if self
            .tx
            .send(Msg::Data {
                conn: self.conn,
                bytes,
            })
            .is_ok()
        {
            self.depth.add(1);
        }
    }

    /// Marks the stream finished: the shard retires the connection's
    /// engine (folding its stats into the shard totals) and flushes.
    pub fn close(self) {
        let _ = self.tx.send(Msg::Close { conn: self.conn });
    }
}

/// A pool of filter workers fanning meter connections across threads.
///
/// ```
/// use dpm_filter::{Descriptions, Rules, ShardedFilter};
/// use std::sync::{Arc, Mutex};
///
/// let logs: Vec<_> = (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
/// let sinks = logs.clone();
/// let filter = ShardedFilter::new(2, Descriptions::standard(), Rules::default(),
///     move |shard| {
///         let log = sinks[shard].clone();
///         Box::new(move |batch: &[u8]| log.lock().unwrap().extend_from_slice(batch))
///     });
/// let conn = filter.open_conn();
/// conn.feed(b"not a meter record".to_vec());
/// conn.close();
/// filter.flush();
/// assert_eq!(filter.snapshot().kept, 0);
/// ```
pub struct ShardedFilter {
    senders: Vec<Sender<Msg>>,
    workers: Vec<JoinHandle<()>>,
    counters: Vec<Arc<ShardCounters>>,
    depths: Vec<Arc<Gauge>>,
    next_conn: AtomicU64,
}

/// Per-shard self-telemetry handles shared by feeders and the worker.
struct ShardTelemetry {
    /// Messages queued but not yet drained by the worker.
    depth: Arc<Gauge>,
    /// Bytes discarded while resynchronizing on garbage input.
    resync_bytes: Arc<Counter>,
    /// Emit→ingest staleness, machine-local milliseconds (only when an
    /// [`IngestClock`] was supplied).
    staleness: Option<(Arc<Histogram>, IngestClock)>,
}

impl ShardTelemetry {
    fn register(shard: usize, clock: Option<&IngestClock>) -> ShardTelemetry {
        let r = dpm_telemetry::registry();
        let label = format!("s{shard}");
        ShardTelemetry {
            depth: r.gauge("filter", "queue_depth", &label),
            resync_bytes: r.counter("filter", "resync_bytes", &label),
            staleness: clock.map(|c| {
                (
                    r.histogram("e2e", "emit_to_ingest_ms", &label),
                    Arc::clone(c),
                )
            }),
        }
    }
}

impl ShardedFilter {
    /// Spawns `shards` worker threads. `make_sink` is called once per
    /// shard (with the shard index) to build that shard's log writer.
    pub fn new<F>(shards: usize, desc: Descriptions, rules: Rules, make_sink: F) -> ShardedFilter
    where
        F: FnMut(usize) -> ShardSink,
    {
        ShardedFilter::with_batch_bytes(shards, desc, rules, DEFAULT_BATCH_BYTES, make_sink)
    }

    /// [`ShardedFilter::new`] with an explicit batch threshold
    /// (`batch_bytes = 0` writes every record immediately).
    pub fn with_batch_bytes<F>(
        shards: usize,
        desc: Descriptions,
        rules: Rules,
        batch_bytes: usize,
        mut make_sink: F,
    ) -> ShardedFilter
    where
        F: FnMut(usize) -> ShardSink,
    {
        ShardedFilter::with_logs(shards, desc, rules, batch_bytes, |shard| {
            ShardLog::Text(make_sink(shard))
        })
    }

    /// The general constructor: `make_log` builds each shard's
    /// destination, which may be a text sink or a binary log-store
    /// writer (see [`ShardLog`]). `batch_bytes` governs text batching
    /// only; store writers batch via their own group-commit config.
    pub fn with_logs<F>(
        shards: usize,
        desc: Descriptions,
        rules: Rules,
        batch_bytes: usize,
        make_log: F,
    ) -> ShardedFilter
    where
        F: FnMut(usize) -> ShardLog,
    {
        ShardedFilter::with_logs_clocked(shards, desc, rules, batch_bytes, None, make_log)
    }

    /// [`ShardedFilter::with_logs`] plus the ingesting machine's clock,
    /// which turns on the per-record emit→ingest staleness histogram
    /// (see [`IngestClock`]).
    pub fn with_logs_clocked<F>(
        shards: usize,
        desc: Descriptions,
        rules: Rules,
        batch_bytes: usize,
        clock: Option<IngestClock>,
        mut make_log: F,
    ) -> ShardedFilter
    where
        F: FnMut(usize) -> ShardLog,
    {
        assert!(shards > 0, "a sharded filter needs at least one shard");
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut counters = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel();
            let ctrs = Arc::new(ShardCounters::default());
            let log = make_log(shard);
            let tm = ShardTelemetry::register(shard, clock.as_ref());
            depths.push(Arc::clone(&tm.depth));
            let worker_desc = desc.clone();
            let worker_rules = rules.clone();
            let worker_ctrs = Arc::clone(&ctrs);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("filter-shard-{shard}"))
                    .spawn(move || {
                        shard_worker(
                            rx,
                            worker_desc,
                            worker_rules,
                            log,
                            worker_ctrs,
                            batch_bytes,
                            tm,
                        )
                    })
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
            counters.push(ctrs);
        }
        ShardedFilter {
            senders,
            workers,
            counters,
            depths,
            next_conn: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Registers a new meter connection, assigning it to a shard
    /// round robin.
    pub fn open_conn(&self) -> ConnHandle {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let shard = (conn as usize) % self.senders.len();
        ConnHandle {
            conn,
            shard,
            tx: self.senders[shard].clone(),
            depth: Arc::clone(&self.depths[shard]),
        }
    }

    /// One shard's counters, merged over its live and closed
    /// connections (as of its last processed message).
    pub fn shard_stats(&self, shard: usize) -> FilterStats {
        self.counters[shard].load()
    }

    /// Pipeline-wide counters: the merge of every shard's stats.
    pub fn snapshot(&self) -> FilterStats {
        self.counters
            .iter()
            .fold(FilterStats::default(), |acc, c| acc.merge(&c.load()))
    }

    /// Blocks until every shard has drained its queue and flushed its
    /// batch buffer to its sink.
    pub fn flush(&self) {
        let mut acks = Vec::with_capacity(self.senders.len());
        for tx in &self.senders {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(Msg::Flush(ack_tx)).is_ok() {
                acks.push(ack_rx);
            }
        }
        for ack in acks {
            let _ = ack.recv();
        }
    }
}

impl Drop for ShardedFilter {
    /// Shuts the pipeline down: disconnects the queues and joins the
    /// workers, which flush their remaining batches on the way out.
    /// Outstanding [`ConnHandle`] clones keep their shard's queue
    /// alive, so drop them first (or lines fed after this point are
    /// lost when the process exits).
    fn drop(&mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The body of one shard worker thread.
fn shard_worker(
    rx: Receiver<Msg>,
    desc: Descriptions,
    rules: Rules,
    log: ShardLog,
    counters: Arc<ShardCounters>,
    batch_bytes: usize,
    tm: ShardTelemetry,
) {
    let mut engines: HashMap<u64, FilterEngine> = HashMap::new();
    let mut logger = ShardLogger {
        log,
        desc,
        batch: String::new(),
        batch_bytes,
    };
    // Stats of connections already closed and retired.
    let mut retired = FilterStats::default();
    // Garbage bytes already credited to the resync counter.
    let mut last_garbage = 0u64;

    loop {
        // Drain eagerly; flush the partial batch only when idle so a
        // busy shard amortizes writes and a quiet one stays fresh.
        let msg = match rx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                logger.flush();
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match msg {
            Msg::Data { conn, bytes } => {
                tm.depth.add(-1);
                let engine = engines
                    .entry(conn)
                    .or_insert_with(|| FilterEngine::new(logger.desc.clone(), rules.clone()));
                engine.feed_records(&bytes, &mut |view, discard| {
                    if let Some((hist, clock)) = &tm.staleness {
                        hist.record(u64::from(clock().saturating_sub(view.cpu_time())));
                    }
                    logger.write(view, discard);
                });
            }
            Msg::Close { conn } => {
                if let Some(engine) = engines.remove(&conn) {
                    retired = retired.merge(&engine.stats());
                }
                logger.flush();
            }
            Msg::Flush(ack) => {
                logger.flush();
                let _ = ack.send(());
                continue; // counters unchanged
            }
        }
        let live = engines
            .values()
            .fold(retired, |acc, e| acc.merge(&e.stats()));
        tm.resync_bytes
            .add(live.garbage_bytes.saturating_sub(last_garbage));
        last_garbage = last_garbage.max(live.garbage_bytes);
        counters.publish(live);
    }
    logger.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_meter::{MeterBody, MeterHeader, MeterMsg, MeterSendMsg, SockName};
    use std::io::Write as _;
    use std::sync::Mutex;

    fn send(machine: u16, len: u32) -> Vec<u8> {
        MeterMsg {
            header: MeterHeader {
                size: 0,
                machine,
                cpu_time: 1,
                seq: 0,
                proc_time: 0,
                trace_type: dpm_meter::trace_type::SEND,
            },
            body: MeterBody::Send(MeterSendMsg {
                pid: 1,
                pc: 0,
                sock: 2,
                msg_length: len,
                dest_name: Some(SockName::inet(0, 9)),
            }),
        }
        .encode()
    }

    #[allow(clippy::type_complexity)]
    fn capture_sinks(n: usize) -> (Vec<Arc<Mutex<Vec<u8>>>>, impl FnMut(usize) -> ShardSink) {
        let logs: Vec<Arc<Mutex<Vec<u8>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let for_factory = logs.clone();
        let factory = move |shard: usize| -> ShardSink {
            let log = Arc::clone(&for_factory[shard]);
            Box::new(move |batch: &[u8]| log.lock().unwrap().extend_from_slice(batch))
        };
        (logs, factory)
    }

    /// Acceptance: four shards, four connections — each shard's log
    /// content is byte-identical to a single engine fed that
    /// connection's stream.
    #[test]
    fn four_shards_match_single_engines_byte_for_byte() {
        const SHARDS: usize = 4;
        // Four per-connection streams with different shapes, including
        // mid-stream garbage and chunk-straddling records.
        let streams: Vec<Vec<u8>> = (0..SHARDS as u16)
            .map(|i| {
                let mut wire = Vec::new();
                for k in 0..30u32 {
                    wire.extend_from_slice(&send(i, k));
                    if k % 7 == 0 {
                        wire.extend_from_slice(&[0xff; 3]); // garbage
                    }
                }
                wire
            })
            .collect();

        // Reference: one engine per stream.
        let mut want_logs = Vec::new();
        let mut want_stats = FilterStats::default();
        for s in &streams {
            let mut e = FilterEngine::standard();
            let mut log = Vec::new();
            for chunk in s.chunks(11) {
                e.feed_into(chunk, &mut |rec: LogRecord| {
                    writeln!(log, "{rec}").unwrap();
                });
            }
            want_stats = want_stats.merge(&e.stats());
            want_logs.push(log);
        }

        let (logs, factory) = capture_sinks(SHARDS);
        let filter =
            ShardedFilter::new(SHARDS, Descriptions::standard(), Rules::default(), factory);
        // Round robin: connection i lands on shard i.
        let conns: Vec<ConnHandle> = (0..SHARDS).map(|_| filter.open_conn()).collect();
        for (conn, stream) in conns.iter().zip(&streams) {
            assert_eq!(
                conn.shard(),
                conns.iter().position(|c| c.conn == conn.conn).unwrap()
            );
            for chunk in stream.chunks(11) {
                conn.feed(chunk.to_vec());
            }
        }
        for conn in conns {
            conn.close();
        }
        filter.flush();
        let got_stats = filter.snapshot();
        for (i, want) in want_logs.iter().enumerate() {
            let got = logs[i].lock().unwrap();
            assert_eq!(
                *got, *want,
                "shard {i} log differs from the single-engine reference"
            );
        }
        assert_eq!(got_stats, want_stats);
        drop(filter);
    }

    #[test]
    fn batches_coalesce_but_never_split_lines() {
        let writes: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let w = Arc::clone(&writes);
        let filter = ShardedFilter::with_batch_bytes(
            1,
            Descriptions::standard(),
            Rules::default(),
            256,
            move |_| {
                let w = Arc::clone(&w);
                Box::new(move |batch: &[u8]| w.lock().unwrap().push(batch.to_vec()))
            },
        );
        let conn = filter.open_conn();
        let mut wire = Vec::new();
        for k in 0..40u32 {
            wire.extend_from_slice(&send(0, k));
        }
        conn.feed(wire);
        conn.close();
        filter.flush();
        drop(filter);
        let writes = writes.lock().unwrap();
        assert!(writes.len() > 1, "expected multiple batches");
        assert!(
            writes.iter().any(|b| b.len() >= 256),
            "expected at least one coalesced batch"
        );
        for b in writes.iter() {
            assert_eq!(b.last(), Some(&b'\n'), "batch ends on a line boundary");
        }
        let all: Vec<u8> = writes.concat();
        assert_eq!(String::from_utf8(all).unwrap().lines().count(), 40);
    }

    #[test]
    fn per_shard_stats_and_snapshot_merge() {
        let (_logs, factory) = capture_sinks(2);
        let filter = ShardedFilter::new(2, Descriptions::standard(), Rules::default(), factory);
        let a = filter.open_conn(); // shard 0
        let b = filter.open_conn(); // shard 1
        assert_eq!((a.shard(), b.shard()), (0, 1));
        a.feed(send(1, 1));
        a.feed(send(1, 2));
        b.feed(send(2, 3));
        a.close();
        b.close();
        filter.flush();
        assert_eq!(filter.shard_stats(0).kept, 2);
        assert_eq!(filter.shard_stats(1).kept, 1);
        let total = filter.snapshot();
        assert_eq!(total.kept, 3);
        assert_eq!(total.seen, 3);
        assert_eq!(total.garbage_bytes, 0);
    }

    #[test]
    fn close_retires_engine_but_keeps_its_stats() {
        let (_logs, factory) = capture_sinks(1);
        let filter = ShardedFilter::new(1, Descriptions::standard(), Rules::default(), factory);
        let a = filter.open_conn();
        a.feed(send(0, 1));
        a.close();
        let b = filter.open_conn();
        b.feed(send(0, 2));
        b.close();
        filter.flush();
        assert_eq!(filter.snapshot().kept, 2, "closed connections still count");
    }

    /// Satellite regression: a partial batch sitting in a shard when
    /// `flush()` or shutdown arrives is never dropped, and every
    /// write ends on a record boundary — for the text sink AND the
    /// store sink. (A batched pipeline's classic failure mode is
    /// losing the tail that never crossed the batch threshold.)
    #[test]
    fn flush_and_shutdown_never_drop_partial_batches() {
        use dpm_logstore::{Backend, LogStore, MemBackend, StoreConfig};

        // Text path: threshold too large to ever trip on its own.
        let writes: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let w = Arc::clone(&writes);
        let filter = ShardedFilter::with_batch_bytes(
            2,
            Descriptions::standard(),
            Rules::default(),
            usize::MAX,
            move |_| {
                let w = Arc::clone(&w);
                Box::new(move |batch: &[u8]| w.lock().unwrap().push(batch.to_vec()))
            },
        );
        let a = filter.open_conn();
        let b = filter.open_conn();
        a.feed(send(1, 1));
        b.feed(send(2, 2));
        // flush() drains both shards even though no threshold tripped.
        filter.flush();
        {
            let writes = writes.lock().unwrap();
            let all: Vec<u8> = writes.concat();
            assert_eq!(String::from_utf8(all).unwrap().lines().count(), 2);
            for batch in writes.iter() {
                assert_eq!(batch.last(), Some(&b'\n'), "record-boundary write");
            }
        }
        a.feed(send(1, 3)); // a partial batch left at shutdown
        drop(a);
        drop(b);
        drop(filter);
        let all: Vec<u8> = writes.lock().unwrap().concat();
        let text = String::from_utf8(all).unwrap();
        assert_eq!(text.lines().count(), 3, "shutdown flushed the tail");
        assert!(text.contains("msgLength=3"));

        // Store path: group-commit threshold never tripped either.
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let store = LogStore::open(
            Arc::clone(&backend),
            "log",
            StoreConfig {
                batch_bytes: usize::MAX,
                ..StoreConfig::default()
            },
        );
        let filter = ShardedFilter::with_logs(
            2,
            Descriptions::standard(),
            Rules::default(),
            DEFAULT_BATCH_BYTES,
            |shard| ShardLog::Store(Box::new(store.writer(shard as u16))),
        );
        let a = filter.open_conn();
        let b = filter.open_conn();
        a.feed(send(1, 10));
        b.feed(send(2, 20));
        filter.flush();
        assert_eq!(
            store.reader().scan().count(),
            2,
            "flush() commits the store"
        );
        a.feed(send(1, 30));
        drop(a);
        drop(b);
        drop(filter); // workers drop their SegmentWriters, which flush
        let reader = store.reader();
        assert_eq!(reader.scan().count(), 3, "shutdown commits the tail");
        // Every stored frame decodes whole: writes ended on frame
        // boundaries (scan() would stop at a torn frame otherwise).
        let lens: Vec<usize> = reader.scan().map(|f| f.raw.len()).collect();
        assert!(lens.iter().all(|&l| l == send(0, 0).len()));
    }

    #[test]
    fn drop_flushes_remaining_output() {
        let (logs, factory) = capture_sinks(1);
        // Huge batch threshold: nothing flushes on size.
        let filter = ShardedFilter::with_batch_bytes(
            1,
            Descriptions::standard(),
            Rules::default(),
            usize::MAX,
            factory,
        );
        let conn = filter.open_conn();
        conn.feed(send(0, 9));
        drop(conn);
        drop(filter); // joins the worker, which flushes
        let log = logs[0].lock().unwrap();
        assert!(
            String::from_utf8_lossy(&log).contains("msgLength=9"),
            "shutdown flushed the pending batch"
        );
    }
}
