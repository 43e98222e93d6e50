//! Filter processes for the distributed programs monitor.
//!
//! "The selection, reduction, and storage of trace data is the
//! responsibility of a filter process. This represents the second
//! stage of measurement. A filter is the recipient of the measurement
//! data that are generated by the meters. … It is the filter that
//! interprets the selection criteria and decides which event records
//! are to be kept and which are to be discarded." (§3.3)
//!
//! This crate implements:
//!
//! * [`Descriptions`] — the event-record description DSL of Fig. 3.2,
//!   plus the standard descriptions file for every Appendix-A format,
//!   and [`Descriptions::visit`], the one decoder of raw records that
//!   rendered lines and typed events are both built on;
//! * [`Rules`] — selection rules / templates of Figs. 3.3–3.4, with
//!   the six comparison operators, the `*` wildcard, decimal prefix
//!   patterns, field-to-field comparisons, and the `#` discard prefix;
//! * [`FilterEngine`] — the pure selection/reduction pipeline;
//! * [`SeqWindow`] — the meter-seq duplicate suppression that the
//!   engine, the aggregate merge and the live engine share;
//! * [`filter_main`] — the standard filter as a simulated process,
//!   accepting one meter connection per metered process and appending
//!   accepted records to its log file;
//! * [`LogRecord`] — the textual trace-log format the analysis stage
//!   consumes;
//! * [`ShardLog`] / [`SimFsBackend`] — the glue that lets a filter
//!   keep its accepted records in the binary log store
//!   (`dpm-logstore`) instead of (or alongside) the text log;
//! * [`FilterArgs`] / [`FilterRole`] — the keyword argument grammar
//!   shared by the filter program, the meterdaemon, and the
//!   controller, including the filter-tree roles;
//! * [`run_edge`] / [`run_aggregate`] — the tree stages: edge
//!   pre-filters that select records *before* they cross the network,
//!   and aggregate filters that merge child streams into one
//!   deterministic log.

#![warn(missing_docs)]

pub mod args;
pub mod dedup;
pub mod desc;
pub mod engine;
pub mod log;
pub mod prefilter;
pub mod program;
pub mod rules;
pub mod shard;
pub mod store;
pub mod tree;

pub use args::{parse_host_port, split_kv, ArgsError, FilterArgs, FilterRole, FILTER_ARG_KEYS};
pub use dedup::SeqWindow;
pub use desc::{DescParseError, Descriptions, EventDesc, FieldDesc, FieldRef, RawFields};
pub use engine::{FilterEngine, FilterStats, RecordView};
pub use log::{LogRecord, LogSummary};
pub use prefilter::run_edge;
pub use program::{filter_main, register_filter_program, FILTER_PROGRAM};
pub use rules::{Condition, Op, Pattern, Rule, RuleParseError, Rules, Verdict};
pub use shard::{ConnHandle, IngestClock, ShardLog, ShardSink, ShardedFilter, DEFAULT_BATCH_BYTES};
pub use store::SimFsBackend;
pub use tree::{run_aggregate, MergedRecord, TreeMerge};
