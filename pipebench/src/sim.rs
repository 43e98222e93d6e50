//! The `flat` and `tree` workloads: a metered two-stage stream
//! pipeline driven the way a user drives it, through
//! `dpm_core::Simulation` and `Controller::exec`.
//!
//! * `flat`: `/bin/stage` on `a` streams items to `/bin/stage` on `b`
//!   with `setflags all`; one `log=store` filter on `c` takes every
//!   record.
//! * `tree`: the same job, with a `role=edge` filter on `a` and `b`
//!   keeping only send records (`type=1`) and a store-backed
//!   `role=aggregate` root on `c`, under a meter-flush duplication
//!   chaos plan.
//!
//! Completion is detected from explicit ends, never from a quiet
//! period: every reader process a filter forks for a meter (or
//! upstream) connection flushes its records and exits at end of
//! stream, so the flat trace is complete when the job's readers have
//! exited. The aggregate root merges and then drains from a timer of
//! its own, so for `tree` the root store is re-read only when its
//! writer's committed-batch count moves, until it holds the records
//! the edges' template keeps.

use crate::spans::{Tracer, ROOT};
use crate::{check_item_sends, item_count, per, render, timed_setup, Outcome, Tm, DEADLINE};
use dpm_analysis::{Analysis, EventKind, ProcKey, Trace};
use dpm_chaos::{ChaosSpec, FaultPlan};
use dpm_core::{Controller, NetConfig, Simulation};
use dpm_filter::{Descriptions, SimFsBackend};
use dpm_live::LiveTrace;
use dpm_logstore::{OwnedFrame, StoreReader};
use dpm_simos::{Machine, Pid};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which filter arrangement meters the job.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One leaf filter takes every record.
    Flat,
    /// Edge pre-filters on the workers feed an aggregate root.
    Tree,
}

const HOSTS: [&str; 3] = ["a", "b", "c"];
/// Share of meter flushes the tree's chaos plan sends twice.
const METER_DUP: f64 = 0.1;
/// The edges' selection template: keep send records only.
const TEMPLATE: &str = "type=1\n";
const STORE_DIR: &str = "/usr/tmp/log.root";
const TRACE_FILE: &str = "/tmp/trace";
/// Name the simulated kernel gives a filter's forked readers.
const READER: &str = "filter+";

fn machine(sim: &Simulation, name: &str) -> Arc<Machine> {
    sim.cluster()
        .machine(name)
        .expect("benchmark machine exists")
}

/// Waits until `n` reader processes have appeared on `m` and every
/// one of them has exited. Readers are never reaped by their parent,
/// but a pid that vanishes counts as exited.
fn wait_readers(m: &Machine, n: usize, deadline: Instant) -> bool {
    let mut seen: HashSet<Pid> = HashSet::new();
    loop {
        let live = m.procs_named(READER);
        seen.extend(live.iter().copied());
        let running = live
            .iter()
            .any(|p| m.proc_state(*p).is_some_and(|s| !s.is_dead()));
        if seen.len() >= n && !running {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until the root store holds at least `expected` records,
/// re-reading it once on entry and then only after its writer commits
/// another batch.
fn wait_store(m: &Arc<Machine>, expected: u64, deadline: Instant) -> bool {
    let backend = SimFsBackend::new(Arc::clone(m));
    // The aggregate's store writer is shard 0; this is its handle.
    let commits = dpm_telemetry::registry().histogram("store", "flush_batch_bytes", "s0");
    let mut last = None;
    loop {
        let flushes = commits.snapshot().count;
        if last != Some(flushes) {
            last = Some(flushes);
            if StoreReader::load(&backend, STORE_DIR).n_records() >= expected {
                return true;
            }
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn created(reply: &str) -> Result<(), String> {
    if reply.contains("created") {
        Ok(())
    } else {
        Err(format!("controller refused: {}", reply.trim()))
    }
}

/// Builds the simulation, controller and filters: the set-up users
/// pay before a job can be metered.
fn set_up(
    shape: Shape,
    seed: u64,
) -> Result<
    (
        Simulation,
        Controller,
        Option<Arc<dpm_chaos::ChaosInjector>>,
    ),
    String,
> {
    let injector = (shape == Shape::Tree)
        .then(|| FaultPlan::new(seed, ChaosSpec::new().meter_dup(METER_DUP), &HOSTS).injector());
    let mut b = Simulation::builder()
        .machines(HOSTS)
        .net(NetConfig::ideal())
        .seed(seed);
    if let Some(inj) = &injector {
        b = b.fault_injector(inj.clone());
    }
    let sim = b.build();
    let mut control = sim
        .controller("c")
        .map_err(|e| format!("controller: {e:?}"))?;
    match shape {
        Shape::Flat => created(&control.exec("filter root c log=store"))?,
        Shape::Tree => {
            // `filter` installs the controller's copy of the file on
            // the filter's machine.
            machine(&sim, "c").fs().write("templates.sel", TEMPLATE);
            created(&control.exec("filter root c role=aggregate log=store"))?;
            created(&control.exec("filter e1 a role=edge upstream=root templates=templates.sel"))?;
            created(&control.exec("filter e2 b role=edge upstream=root templates=templates.sel"))?;
        }
    }
    Ok((sim, control, injector))
}

/// One iteration of `flat` or `tree`.
pub fn run(shape: Shape, seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let n_items = item_count(seed);
    if shape == Shape::Tree {
        // Every item send plus the sink's one report to its stdout.
        out.expected = n_items + 1;
    }

    let sp = tr.begin("setup", ROOT);
    let (set, setup_s) = timed_setup(
        || set_up(shape, seed),
        |set| {
            if let Ok((sim, mut control, _)) = set {
                control.exec("die");
                sim.shutdown();
            }
        },
    );
    tr.end(sp);
    out.setup_s = setup_s;
    let (sim, mut control, injector) = match set {
        Ok(s) => s,
        Err(why) => {
            out.fail(why);
            return out;
        }
    };

    control.exec("newjob j root");
    for cmd in [
        format!("addprocess j a /bin/stage 0 2 b {n_items} 0"),
        format!("addprocess j b /bin/stage 1 2 - {n_items} 0"),
    ] {
        if let Err(why) = created(&control.exec(&cmd)) {
            out.fail(why);
            sim.shutdown();
            return out;
        }
    }
    control.exec("setflags j all");
    let stage0 = ProcKey {
        machine: sim.cluster().resolve_host("a").expect("host a").0,
        pid: machine(&sim, "a").procs_named("stage")[0].0,
    };
    let c = machine(&sim, "c");
    let wire_before = sim.cluster().wire_stats().snapshot();
    let tm_before = Tm::now();

    // The job: startjob until every process is terminal, then until
    // the trace is complete in the root store.
    let t0 = Instant::now();
    let deadline = t0 + DEADLINE;
    let sp = tr.begin("simos.job", ROOT);
    control.exec("startjob j");
    let job_done = control.wait_job("j", DEADLINE.as_millis() as u64);
    tr.end(sp);
    let sp = tr.begin("simos.trail", ROOT);
    let complete = job_done
        && match shape {
            Shape::Flat => wait_readers(&c, 2, deadline),
            Shape::Tree => {
                wait_readers(&machine(&sim, "a"), 1, deadline)
                    && wait_readers(&machine(&sim, "b"), 1, deadline)
                    && wait_readers(&c, 2, deadline)
                    && wait_store(&c, out.expected, deadline)
            }
        };
    tr.end(sp);
    let t_complete = t0.elapsed().as_secs_f64();
    if !complete {
        out.fail(format!(
            "trace not complete within {}s (job finished: {job_done})",
            DEADLINE.as_secs()
        ));
        control.exec("die");
        sim.shutdown();
        return out;
    }

    // The result as a user gets it: one getlog, then the analyses.
    let sp = tr.begin("result", ROOT);
    let text = tr.time("controller.getlog", sp, || {
        control.exec(&format!("getlog root {TRACE_FILE}"));
        sim.local_file(&control, TRACE_FILE)
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_default()
    });
    let trace = tr.time("analysis.parse", sp, || Trace::parse(&text));
    let analysis = tr.time("analysis.analyze", sp, || Analysis::of_trace(trace));
    tr.end(sp);
    out.result_s = t0.elapsed().as_secs_f64();
    let wire = sim.cluster().wire_stats().snapshot().since(&wire_before);
    let tm = Tm::now();

    // Output checks, then the per-layer work a traced run adds.
    let desc = Descriptions::standard();
    let sp = tr.begin("check", ROOT);
    let (reader, raw_bytes) = tr.time("logstore.scan", sp, || {
        let reader = StoreReader::load(&SimFsBackend::new(Arc::clone(&c)), STORE_DIR);
        let raw: u64 = reader.scan().map(|f| f.raw.len() as u64).sum();
        (reader, raw)
    });
    out.records = reader.n_records();
    out.records_per_s = out.records as f64 / t_complete;
    check_item_sends(&mut out, &analysis, stage0, n_items, shape == Shape::Flat);
    let store_trace = Trace::from_store(&reader, &desc);
    out.check(store_trace == analysis.trace, || {
        format!(
            "getlog trace ({} events) differs from the store trace ({} events)",
            analysis.trace.len(),
            store_trace.len()
        )
    });
    let dups_fired = injector.as_ref().map_or(0, |i| i.tally().meter_dups());
    // Stored records whose `(machine, pid, seq)` an earlier one has.
    let dups_stored: u64 = dpm_chaos::invariants::census(&reader)
        .seqs
        .values()
        .map(|seqs| (seqs.len() - seqs.iter().collect::<HashSet<_>>().len()) as u64)
        .sum();
    out.check(dups_stored == 0, || {
        format!("{dups_stored} duplicate records reached the root store")
    });
    match shape {
        Shape::Flat => {
            out.expected = out.records;
            out.check(raw_bytes == wire.meter_bytes, || {
                format!(
                    "store holds {raw_bytes} record bytes, the kernel metered {}",
                    wire.meter_bytes
                )
            });
        }
        Shape::Tree => {
            out.check(dups_fired > 0, || {
                "no meter flush was duplicated".to_owned()
            });
            out.check(out.records == out.expected, move || {
                format!(
                    "root holds {} records, the template keeps {}",
                    out.records, out.expected
                )
            });
            let others = analysis
                .trace
                .events
                .iter()
                .filter(|e| !matches!(e.kind, EventKind::Send { .. }))
                .count();
            out.check(others == 0, || {
                format!("{others} non-send records passed the edges")
            });
        }
    }

    if tr.is_on() {
        tr.time("filter.render", sp, || {
            std::hint::black_box(render(&desc, &reader))
        });
        let live = tr.time("live.ingest", sp, || {
            let mut lt = LiveTrace::new(desc.clone());
            lt.ingest_batch(reader.scan().map(|f| OwnedFrame::of(&f)));
            lt
        });
        out.check(live.trace() == &store_trace, || {
            "live trace differs from the store trace".to_owned()
        });
    }
    tr.end(sp);

    let store_bytes: u64 = reader.segments_info().iter().map(|s| s.data_len).sum();
    let delta = |component, name| tm.delta(&tm_before, component, name);
    let metered = match shape {
        Shape::Flat => out.records,
        // The edges see every record the kernel meters.
        Shape::Tree => delta("edge", "accepted") + delta("edge", "rejected"),
    };
    out.counts = vec![
        ("logstore.records", out.records as f64),
        ("meter.records", metered as f64),
        ("meter.bytes_per_record", per(wire.meter_bytes, metered)),
        (
            "meter.records_per_flush",
            per(metered, delta("meter", "flush_bytes")),
        ),
        (
            "simnet.cross_bytes_per_record",
            per(wire.cross_bytes, metered),
        ),
        (
            "prefilter.accept_ratio",
            per(delta("edge", "accepted"), metered),
        ),
        (
            "filter.dups_suppressed",
            dups_fired.saturating_sub(dups_stored) as f64,
        ),
        ("aggregate.dups_at_root", delta("agg", "dedup_hits") as f64),
        ("logstore.bytes_per_record", per(store_bytes, out.records)),
        (
            "logstore.flushes",
            delta("store", "flush_batch_bytes") as f64,
        ),
        ("logstore.seals", delta("store", "seals") as f64),
        ("meterd.rpc_served", delta("meterd", "rpc_served") as f64),
        ("meterd.rpc_retries", delta("meterd", "rpc_retries") as f64),
        (
            "net.connect_retries",
            delta("net", "connect_retries") as f64,
        ),
    ];
    control.exec("die");
    sim.shutdown();
    out
}
