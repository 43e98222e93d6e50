//! The edge pre-filter: selection *before* the network.
//!
//! The paper funnels every meter record point-to-point into a central
//! filter, so the whole metering volume crosses the network before the
//! selection templates ever see it. Following DCM's "each node filters
//! its own slice" layering, an edge pre-filter is a filter process
//! co-located with a meterdaemon (`role=edge`): local metered
//! processes connect to it instead of the remote filter, it applies
//! the same selection-template DSL ([`crate::rules`]), and only the
//! *accepted* records are forwarded upstream — over the exact meter
//! record framing the upstream filter already speaks, so the parent
//! (a leaf or an aggregate) cannot tell an edge from a meter.
//!
//! Edges keep no log of their own: their job is byte reduction at the
//! source, and the authoritative log lives at the tree's root.

use crate::args::FilterArgs;
use crate::desc::Descriptions;
use crate::engine::FilterEngine;
use crate::rules::Rules;
use dpm_simos::{connect_backoff, Backoff, BindTo, Domain, Proc, SockType, SysError, SysResult};

/// The backoff an edge uses to reach its parent: generous, because a
/// partition between edge and root must be outwaited, not given up on
/// (a failed connect would silently drop every record of that meter
/// connection).
fn upstream_backoff() -> Backoff {
    Backoff::new(100, 5, 160)
}

/// Runs a `role=edge` filter: accept meter connections, select, and
/// forward accepted records to `upstream`.
///
/// Each accepted meter connection gets its own forked reader *and its
/// own upstream connection*, so one metered process maps to one
/// ordered record stream end to end — per-process ordering (and the
/// engine's per-connection sequence dedup) survive the extra hop.
///
/// # Errors
///
/// `EINVAL` when `args` has no upstream; socket errors propagate;
/// runs until killed.
pub fn run_edge(p: &Proc, args: &FilterArgs, desc: Descriptions, rules: Rules) -> SysResult<()> {
    let (up_host, up_port) = args.upstream_addr().ok_or(SysError::Einval)?;

    let listener = p.socket(Domain::Inet, SockType::Stream)?;
    p.bind(listener, BindTo::Port(args.port))?;
    p.listen(listener, 32)?;

    loop {
        let (conn, _peer) = p.accept(listener)?;
        let desc = desc.clone();
        let rules = rules.clone();
        let host = up_host.clone();
        p.fork_with(move |c| {
            let up = connect_backoff(&c, &host, up_port, upstream_backoff())?;
            let mut engine = FilterEngine::new(desc, rules);
            let mut batch = Vec::new();
            let machine = c.machine().clone();
            let r = dpm_telemetry::registry();
            let accepted = r.counter("edge", "accepted", machine.name());
            let rejected = r.counter("edge", "rejected", machine.name());
            let staleness = r.histogram("e2e", "emit_to_ingest_ms", machine.name());
            let mut last = engine.stats();
            loop {
                let data = c.read(conn, 4096)?;
                if data.is_empty() {
                    break;
                }
                batch.clear();
                engine.feed_records(&data, &mut |view, _discard| {
                    // Edge and meter share one machine, so its clock is
                    // the right "now" for the emit→ingest readout.
                    staleness.record(u64::from(
                        machine.clock().now_ms().saturating_sub(view.cpu_time()),
                    ));
                    batch.extend_from_slice(view.bytes());
                });
                let stats = engine.stats();
                accepted.add(stats.kept.saturating_sub(last.kept));
                rejected.add(stats.rejected.saturating_sub(last.rejected));
                last = stats;
                if !batch.is_empty() {
                    // One write per input chunk: whole records only,
                    // so the upstream sees clean record framing.
                    c.write(up, &batch)?;
                }
            }
            // EOF: the metered process is done; closing the upstream
            // connection propagates the end-of-stream to the parent.
            c.close(up)?;
            c.close(conn)?;
            Ok(())
        })?;
        // The parent's reference to the connection is the child's now.
        p.close(conn)?;
    }
}
