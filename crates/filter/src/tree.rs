//! The aggregate filter: a tree node merging child record streams.
//!
//! A `role=aggregate` filter is the interior (usually the root) of a
//! filter tree. Its inputs are live record streams from children —
//! edge pre-filters forwarding their accepted records, leaf filters,
//! or raw meter connections; all of them speak the same record
//! framing. It merges everything it accepts by `(machine, pid, seq)`
//! into **one deterministic log**: records are buffered and written in
//! canonical key order once the tree goes quiet, so
//! `Trace::from_store` and the session's `check`/`getlog` commands
//! work unchanged at the root, and two trees fed the same records
//! produce byte-identical logs regardless of network arrival order.
//!
//! Duplicate suppression happens at two levels, both through a
//! [`SeqWindow`]. Each child stream gets its own [`FilterEngine`],
//! whose window absorbs at-least-once retransmission of meter flushes
//! on that connection; the merge keeps one more window across all
//! children — that is what catches a child reconnecting after a
//! partition and replaying records the root already holds. The merge's
//! window outlives drains and holds one entry per `(machine, pid)`
//! stream, not one per record.

use crate::args::FilterArgs;
use crate::dedup::SeqWindow;
use crate::desc::Descriptions;
use crate::engine::FilterEngine;
use crate::log::LogRecord;
use crate::rules::{Rules, Verdict};
use crate::store::SimFsBackend;
use dpm_logstore::{seal_manifest_hook, Backend, LogStore, SegmentWriter, StoreConfig};
use dpm_simos::{
    connect_backoff, Backoff, BindTo, Domain, Machine, Proc, SockType, SysError, SysResult,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// How long the tree must stay quiet (no open children, no arrivals)
/// before the pending records are flushed as one canonical batch.
const QUIET_MS: u64 = 25;

/// Safety valve: pending bytes beyond which the merge flushes even
/// while children are still connected (bounds memory on long runs; the
/// log stays canonical *per batch*).
const MAX_PENDING_BYTES: usize = 8 * 1024 * 1024;

/// One record held by the merge: its raw wire bytes, which the store
/// sink appends, the text sink renders and the upstream hop forwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRecord {
    /// Raw wire bytes, header + body.
    pub raw: Vec<u8>,
}

/// The deterministic merge at the heart of an aggregate filter:
/// accepted records go in keyed by `(machine, pid, seq)`, batches come
/// out in canonical key order, and sequenced records are accepted at
/// most once across the aggregate's whole lifetime.
#[derive(Debug, Default)]
pub struct TreeMerge {
    /// Survives drains, so a child replaying after reconnect cannot
    /// re-insert.
    dedup: SeqWindow,
    /// Records awaiting the next canonical flush. The arrival counter
    /// in the key orders unsequenced (`seq == 0`) records, which may
    /// legitimately repeat, without ever colliding.
    pending: BTreeMap<(u16, u32, u32, u64), MergedRecord>,
    pending_bytes: usize,
    arrivals: u64,
}

impl TreeMerge {
    /// A fresh, empty merge.
    #[must_use]
    pub fn new() -> TreeMerge {
        TreeMerge::default()
    }

    /// Offers one accepted record. Returns `false` (and keeps the
    /// record out) when the merge's [`SeqWindow`] refuses it as a
    /// copy of one already accepted; unsequenced records (`seq == 0`)
    /// are always taken, in arrival order.
    pub fn insert(&mut self, machine: u16, pid: u32, seq: u32, rec: MergedRecord) -> bool {
        if !self.dedup.admit_seq(machine, Some(pid), seq) {
            return false;
        }
        self.arrivals += 1;
        self.pending_bytes += rec.raw.len();
        self.pending.insert((machine, pid, seq, self.arrivals), rec);
        true
    }

    /// Takes everything pending, sorted by `(machine, pid, seq)` (and
    /// arrival order within a key). The dedup memory is kept.
    pub fn drain(&mut self) -> Vec<MergedRecord> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending).into_values().collect()
    }

    /// Records awaiting the next flush.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of raw record data awaiting the next flush.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Sequenced records dropped as already-accepted.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.dedup.duplicates()
    }
}

/// Where a drained batch goes: the text log or the binary store, both
/// on the aggregate's machine.
enum AggSink {
    /// Rendered lines; each record's discard list is its rule
    /// verdict's, taken again at render time.
    Text {
        machine: Arc<Machine>,
        path: String,
        desc: Descriptions,
        rules: Rules,
    },
    Store {
        writer: Box<SegmentWriter>,
    },
}

impl AggSink {
    fn write_batch(&mut self, batch: &[MergedRecord]) {
        match self {
            AggSink::Text {
                machine,
                path,
                desc,
                rules,
            } => {
                let mut text = String::new();
                for rec in batch {
                    let Verdict::Keep { discard_fields } = rules.verdict(desc, &rec.raw) else {
                        continue;
                    };
                    if LogRecord::render(desc, &rec.raw, &discard_fields, &mut text) {
                        text.push('\n');
                    }
                }
                machine.fs().append(path, text.as_bytes());
            }
            AggSink::Store { writer } => {
                for rec in batch {
                    writer.append(&rec.raw);
                }
                writer.flush();
            }
        }
    }

    fn finish(&mut self) {
        if let AggSink::Store { writer } = self {
            writer.sync();
        }
    }
}

/// State shared between the connection readers and the flusher.
struct AggShared {
    state: Mutex<AggState>,
    done: AtomicBool,
}

struct AggState {
    merge: TreeMerge,
    open_conns: usize,
    last_touch: std::time::Instant,
}

impl AggShared {
    fn touch(&self) {
        self.state.lock().last_touch = std::time::Instant::now();
    }
}

/// Runs a `role=aggregate` filter: accept child record streams, merge
/// by `(machine, pid, seq)`, write one canonical log.
///
/// The flush policy favors determinism: records are held until every
/// child connection has closed and the tree has been quiet for
/// a short quiet window (`QUIET_MS`), then written as a single batch
/// in canonical order — so after a job completes, the root's log *is*
/// in `(machine, pid, seq)` order. (A safety valve flushes early if
/// the pending set exceeds `MAX_PENDING_BYTES`; each batch is still
/// canonical.)
///
/// With `upstream=` set, drained raw records are additionally
/// forwarded to a parent filter, making trees of arbitrary depth.
///
/// # Errors
///
/// `EINVAL` for an unusable configuration; socket errors propagate;
/// runs until killed.
pub fn run_aggregate(
    p: &Proc,
    args: &FilterArgs,
    desc: Descriptions,
    rules: Rules,
) -> SysResult<()> {
    if args.logfile.is_empty() {
        return Err(SysError::Einval);
    }
    let mut sink = if args.store_log {
        let backend: Arc<dyn Backend> = Arc::new(SimFsBackend::new(Arc::clone(p.machine())));
        let mut store = LogStore::open(Arc::clone(&backend), &args.logfile, StoreConfig::default());
        // Seal notifications for live consumers, as in the leaf path.
        store.set_seal_hook(seal_manifest_hook(backend, &args.logfile));
        AggSink::Store {
            writer: Box::new(store.writer(0)),
        }
    } else {
        AggSink::Text {
            machine: Arc::clone(p.machine()),
            path: args.logfile.clone(),
            desc: desc.clone(),
            rules: rules.clone(),
        }
    };

    // Optional upstream hop: a forked child owns the connection and
    // writes whatever the flusher hands it over a channel, keeping
    // all syscalls on simulated-process threads.
    let forward = match args.upstream_addr() {
        Some((host, port)) => {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            p.fork_with(move |c| {
                let up = connect_backoff(&c, &host, port, Backoff::new(100, 5, 160))?;
                while let Ok(batch) = rx.recv() {
                    c.write(up, &batch)?;
                }
                c.close(up)?;
                Ok(())
            })?;
            Some(tx)
        }
        None => None,
    };

    let shared = Arc::new(AggShared {
        state: Mutex::new(AggState {
            merge: TreeMerge::new(),
            open_conns: 0,
            last_touch: std::time::Instant::now(),
        }),
        done: AtomicBool::new(false),
    });

    // The flusher is a plain thread: it only touches the merge (behind
    // the mutex), the machine's file system, and the forward channel.
    let flusher = {
        let shared = Arc::clone(&shared);
        let r = dpm_telemetry::registry();
        let dedup_hits = r.counter("agg", "dedup_hits", p.machine().name());
        let pending_gauge = r.gauge("agg", "pending_bytes", p.machine().name());
        std::thread::spawn(move || {
            // Duplicates already credited to the dedup counter.
            let mut last_dups = 0u64;
            loop {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let done = shared.done.load(Ordering::Acquire);
                let batch = {
                    let mut st = shared.state.lock();
                    let quiet =
                        st.last_touch.elapsed() >= std::time::Duration::from_millis(QUIET_MS);
                    let idle = st.open_conns == 0 && quiet;
                    let oversized = st.merge.pending_bytes() > MAX_PENDING_BYTES;
                    dedup_hits.add(st.merge.duplicates().saturating_sub(last_dups));
                    last_dups = last_dups.max(st.merge.duplicates());
                    pending_gauge.set(st.merge.pending_bytes() as i64);
                    if st.merge.pending_len() > 0 && (idle || oversized || done) {
                        st.merge.drain()
                    } else {
                        Vec::new()
                    }
                };
                if !batch.is_empty() {
                    sink.write_batch(&batch);
                    if let Some(tx) = &forward {
                        let mut raw = Vec::new();
                        for rec in &batch {
                            raw.extend_from_slice(&rec.raw);
                        }
                        // A closed channel means the forwarder died;
                        // the local log is still authoritative.
                        let _ = tx.send(raw);
                    }
                }
                if done {
                    break;
                }
            }
            sink.finish();
            // Dropping `forward` closes the channel; the forwarder
            // child sees the disconnect and closes its connection.
        })
    };

    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(args.port))?;
    p.listen(listener, 32)?;

    let result = loop {
        let (conn, _peer) = match p.accept(listener) {
            Ok(pair) => pair,
            Err(e) => break Err(e), // killed (or machine down): wind down
        };
        shared.state.lock().open_conns += 1;
        shared.touch();
        let desc = desc.clone();
        let rules = rules.clone();
        let child_shared = Arc::clone(&shared);
        let fork = p.fork_with(move |c| {
            let mut engine = FilterEngine::new(desc, rules);
            let read_result = loop {
                let data = match c.read(conn, 4096) {
                    Ok(d) => d,
                    Err(e) => break Err(e),
                };
                if data.is_empty() {
                    break Ok(());
                }
                let mut st = child_shared.state.lock();
                engine.feed_records(&data, &mut |view, _discard| {
                    st.merge.insert(
                        view.machine(),
                        view.pid().unwrap_or(0),
                        view.seq(),
                        MergedRecord {
                            raw: view.bytes().to_vec(),
                        },
                    );
                });
                st.last_touch = std::time::Instant::now();
                drop(st);
            };
            let mut st = child_shared.state.lock();
            st.open_conns -= 1;
            st.last_touch = std::time::Instant::now();
            drop(st);
            let _ = c.close(conn);
            read_result
        });
        if let Err(e) = fork {
            shared.state.lock().open_conns -= 1;
            break Err(e);
        }
        // The parent's reference to the connection is the child's now.
        if let Err(e) = p.close(conn) {
            break Err(e);
        }
    };

    shared.done.store(true, Ordering::Release);
    let _ = flusher.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u8) -> MergedRecord {
        MergedRecord { raw: vec![tag; 4] }
    }

    #[test]
    fn drain_is_canonically_ordered() {
        let mut m = TreeMerge::new();
        // Arrival order scrambled across machines, pids, and seqs.
        assert!(m.insert(2, 10, 1, rec(1)));
        assert!(m.insert(1, 20, 2, rec(2)));
        assert!(m.insert(1, 10, 2, rec(3)));
        assert!(m.insert(1, 10, 1, rec(4)));
        assert!(m.insert(2, 10, 3, rec(5)));
        let tags: Vec<u8> = m.drain().into_iter().map(|r| r.raw[0]).collect();
        assert_eq!(tags, vec![4, 3, 2, 1, 5]);
        assert_eq!(m.pending_len(), 0);
    }

    #[test]
    fn sequenced_duplicates_are_dropped_even_across_drains() {
        let mut m = TreeMerge::new();
        assert!(m.insert(1, 10, 1, rec(1)));
        assert!(!m.insert(1, 10, 1, rec(9)), "same batch duplicate");
        let first = m.drain();
        assert_eq!(first.len(), 1);
        // A replay after the flush (child reconnected) is still a
        // duplicate: the dedup memory outlives the drain.
        assert!(!m.insert(1, 10, 1, rec(9)));
        assert!(m.drain().is_empty());
        assert_eq!(m.duplicates(), 2);
    }

    #[test]
    fn unsequenced_records_keep_arrival_order_and_never_collide() {
        let mut m = TreeMerge::new();
        assert!(m.insert(1, 10, 0, rec(1)));
        assert!(m.insert(1, 10, 0, rec(2)));
        assert!(m.insert(1, 10, 0, rec(3)));
        let tags: Vec<u8> = m.drain().into_iter().map(|r| r.raw[0]).collect();
        assert_eq!(tags, vec![1, 2, 3], "seq 0: arrival order, none lost");
    }

    #[test]
    fn pending_bytes_track_raw_sizes() {
        let mut m = TreeMerge::new();
        m.insert(1, 1, 1, rec(1));
        m.insert(1, 1, 2, rec(2));
        assert_eq!(m.pending_bytes(), 8);
        m.drain();
        assert_eq!(m.pending_bytes(), 0);
    }
}
