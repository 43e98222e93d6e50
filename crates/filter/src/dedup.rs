//! Meter-seq duplicate suppression, the one rule every dedup point
//! applies.
//!
//! The kernel meter stamps each record with a per-process sequence
//! number, and a retransmitted flush replays records that were already
//! delivered. Every place that must not count a record twice — the
//! filter engine on each meter connection, the aggregate's merge
//! across children, and the live engine over a stored log — asks one
//! [`SeqWindow`] whether a record is new.
//!
//! A window keeps, for each `(machine, pid)` stream, the highest seq it
//! has admitted and a bitmap of the 64 seqs at and below it:
//! the anti-replay window of RFC 4303 §3.4.3. At every dedup point a
//! stream's new seqs arrive in ascending order (one connection per
//! metered process, shards routed by connection, stored frames applied
//! in store order), so only retransmitted copies arrive late, and the
//! window's verdicts equal those of a set of every `(machine, pid,
//! seq)` ever admitted, in O(streams) memory instead of O(records).

use crate::engine::RecordView;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// How many seqs at and below a stream's high mark a window tells
/// apart; a seq further below is taken for a replay.
const WINDOW: u32 = u64::BITS;

/// One stream's window: bit `i` of `seen` is set when seq `high - i`
/// has been admitted.
#[derive(Debug, Clone, Copy)]
struct Stream {
    high: u32,
    seen: u64,
}

impl Stream {
    fn admit(&mut self, seq: u32) -> bool {
        if seq > self.high {
            let ahead = seq - self.high;
            self.seen = if ahead >= WINDOW {
                1
            } else {
                (self.seen << ahead) | 1
            };
            self.high = seq;
            return true;
        }
        let behind = self.high - seq;
        if behind >= WINDOW || self.seen & (1 << behind) != 0 {
            return false;
        }
        self.seen |= 1 << behind;
        true
    }
}

/// Per-stream duplicate suppression for meter records; see the module
/// docs.
///
/// ```
/// use dpm_filter::SeqWindow;
///
/// let mut w = SeqWindow::new();
/// assert!(w.admit_seq(0, Some(7), 1));
/// assert!(w.admit_seq(0, Some(7), 3));
/// assert!(w.admit_seq(0, Some(7), 2), "unseen, within the window");
/// assert!(!w.admit_seq(0, Some(7), 3), "a replayed copy");
/// assert!(w.admit_seq(0, Some(7), 0), "seq 0 is unsequenced");
/// assert_eq!(w.duplicates(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeqWindow {
    streams: HashMap<(u16, u32), Stream>,
    duplicates: u64,
}

impl SeqWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> SeqWindow {
        SeqWindow::default()
    }

    /// Whether `record` is new; a duplicate is counted and refused.
    pub fn admit(&mut self, record: &RecordView<'_>) -> bool {
        self.admit_seq(record.machine(), record.pid(), record.seq())
    }

    /// [`SeqWindow::admit`] for a record known by its key alone.
    /// Records without a pid or with seq 0 (unsequenced) are always
    /// admitted.
    pub fn admit_seq(&mut self, machine: u16, pid: Option<u32>, seq: u32) -> bool {
        let Some(pid) = pid else { return true };
        if seq == 0 {
            return true;
        }
        let admitted = match self.streams.entry((machine, pid)) {
            Entry::Occupied(mut stream) => stream.get_mut().admit(seq),
            Entry::Vacant(slot) => {
                slot.insert(Stream { high: seq, seen: 1 });
                true
            }
        };
        if !admitted {
            self.duplicates += 1;
        }
        admitted
    }

    /// Records refused as duplicates so far.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// What the window replaces: a set of every sequenced key ever
    /// admitted.
    #[derive(Default)]
    struct Oracle {
        seen: HashSet<((u16, u32), u32)>,
        duplicates: u64,
    }

    impl Oracle {
        fn admit(&mut self, machine: u16, pid: u32, seq: u32) -> bool {
            let admitted = seq == 0 || self.seen.insert(((machine, pid), seq));
            if !admitted {
                self.duplicates += 1;
            }
            admitted
        }
    }

    /// A stream key drawn from few machines and pids, so streams
    /// collide on one field but not the other.
    fn key(stream: usize) -> (u16, u32) {
        ((stream % 3) as u16, 100 + (stream / 3) as u32)
    }

    proptest! {
        /// K interleaved streams of ascending, sparse seqs (the shape
        /// edge-filtered streams have at the root), with retransmitted
        /// copies replayed at any lag: the window decides exactly as
        /// the set does.
        #[test]
        fn window_matches_a_seen_set_on_ascending_streams_with_replays(
            streams in 1usize..9,
            steps in proptest::collection::vec(
                (any::<u32>(), 1u32..200, any::<bool>(), any::<u32>(), 0u32..8),
                1..400,
            ),
        ) {
            let mut window = SeqWindow::new();
            let mut oracle = Oracle::default();
            // Seqs each stream has emitted, in order.
            let mut emitted: Vec<Vec<u32>> = vec![Vec::new(); streams];
            for (pick, gap, replay, lag, zero) in steps {
                let s = pick as usize % streams;
                let (machine, pid) = key(s);
                let seq = if zero == 0 {
                    0 // an unsequenced record, never a duplicate
                } else if replay && !emitted[s].is_empty() {
                    let past = &emitted[s];
                    past[past.len() - 1 - lag as usize % past.len()]
                } else {
                    let next = emitted[s].last().copied().unwrap_or(0) + gap;
                    emitted[s].push(next);
                    next
                };
                prop_assert_eq!(
                    window.admit_seq(machine, Some(pid), seq),
                    oracle.admit(machine, pid, seq),
                    "stream {:?} seq {}", (machine, pid), seq
                );
            }
            prop_assert_eq!(window.duplicates(), oracle.duplicates);
            prop_assert!(window.streams.len() <= streams);
        }

        /// Unseen seqs that arrive out of order, each within the
        /// window of the stream's high mark, are admitted exactly once.
        #[test]
        fn out_of_order_seqs_within_the_window_are_admitted_once(
            blocks in 1u32..6,
            swaps in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
        ) {
            // Seqs 1..=64·blocks, shuffled inside each aligned block of
            // 64: no seq arrives more than 63 below the high mark.
            let mut order: Vec<u32> = (1..=WINDOW * blocks).collect();
            for (a, b) in swaps {
                let block = (a % blocks * WINDOW) as usize;
                let i = block + (a / blocks % WINDOW) as usize;
                let j = block + (b % WINDOW) as usize;
                order.swap(i, j);
            }
            let mut window = SeqWindow::new();
            for &seq in &order {
                prop_assert!(window.admit_seq(1, Some(2), seq), "seq {} is new", seq);
            }
            for &seq in order.iter().rev() {
                prop_assert!(!window.admit_seq(1, Some(2), seq), "seq {} is a copy", seq);
            }
            prop_assert_eq!(window.duplicates(), u64::from(WINDOW * blocks));
        }
    }

    #[test]
    fn memory_is_one_entry_per_stream() {
        let mut w = SeqWindow::new();
        for i in 0..1_000_000u32 {
            let stream = i % 8;
            assert!(w.admit_seq(stream as u16, Some(stream), i / 8 + 1));
        }
        assert_eq!(w.streams.len(), 8);
        assert_eq!(w.duplicates(), 0);
    }

    #[test]
    fn far_below_the_high_mark_is_a_duplicate() {
        let mut w = SeqWindow::new();
        assert!(w.admit_seq(0, Some(1), 100));
        assert!(w.admit_seq(0, Some(1), 100 - (WINDOW - 1)), "63 below");
        assert!(!w.admit_seq(0, Some(1), 100 - WINDOW), "64 below");
        // A jump past the whole window forgets everything below it.
        assert!(w.admit_seq(0, Some(1), 100 + WINDOW + 5));
        assert!(!w.admit_seq(0, Some(1), 100));
        assert_eq!(w.duplicates(), 2);
    }

    #[test]
    fn records_without_a_pid_are_always_admitted() {
        let mut w = SeqWindow::new();
        assert!(w.admit_seq(0, None, 5));
        assert!(w.admit_seq(0, None, 5));
        assert_eq!((w.duplicates(), w.streams.len()), (0, 0));
    }
}
