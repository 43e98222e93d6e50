//! One iteration of the pipeline benchmark.
//!
//! `pipebench --workload <flat|tree|replay> --seed <n> --iter <i>
//! --trace <0|1>` builds the inputs of iteration `i` from the seed,
//! runs them through the monitor once, checks every output, and
//! prints one JSON line: the end-to-end timings, the per-layer counts,
//! the check verdict and (when traced) the spans. `run.py` runs one
//! process per iteration, so each iteration's peak memory and
//! telemetry registry are its own, and aggregates the lines.

mod replay;
mod sim;
mod spans;

use dpm_analysis::{Analysis, EventKind, ProcKey};
use dpm_filter::{Descriptions, LogRecord};
use dpm_logstore::StoreReader;
use dpm_telemetry::MetricValue;
use spans::Tracer;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Past this, an iteration is abandoned and counted as failed.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Items the job's first stage sends; the seed adds up to
/// `ITEMS_SPREAD` more.
const ITEMS: u64 = 10_000;
const ITEMS_SPREAD: u64 = 100;

/// The number of items the job of iteration seed `seed` streams.
pub fn item_count(seed: u64) -> u64 {
    ITEMS + mix(seed, 1) % (ITEMS_SPREAD + 1)
}

/// `v / n`, or 0 when nothing was counted.
pub fn per(v: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        v as f64 / n as f64
    }
}

/// What `getlog` does per record, over a whole store: decode the raw
/// record and render its text line. Returns the bytes rendered.
pub fn render(desc: &Descriptions, reader: &StoreReader) -> usize {
    let mut bytes = 0usize;
    for f in reader.scan() {
        if let Some(rec) = LogRecord::from_raw(desc, f.raw, &[]) {
            bytes += rec.to_string().len();
        }
    }
    bytes
}

/// Checks that the trace holds `items` sends by `sender` and, when
/// `paired`, that every one of them pairs with a receive.
pub fn check_item_sends(
    out: &mut Outcome,
    analysis: &Analysis,
    sender: ProcKey,
    items: u64,
    paired: bool,
) {
    let sends: Vec<usize> = analysis
        .trace
        .events
        .iter()
        .filter(|e| e.proc == sender && matches!(e.kind, EventKind::Send { .. }))
        .map(|e| e.idx)
        .collect();
    out.check(sends.len() as u64 == items, || {
        format!("{} item sends in the trace, want {items}", sends.len())
    });
    if paired {
        let unmatched: HashSet<usize> = analysis.pairing.unmatched_sends.iter().copied().collect();
        let lost = sends.iter().filter(|i| unmatched.contains(i)).count();
        out.check(lost == 0, || format!("{lost} item sends never paired"));
    }
}

/// What one iteration measured.
#[derive(Default)]
pub struct Outcome {
    /// Set-up time: simulation, meterdaemons, controller and filters
    /// (flat, tree) or producing the input stream (replay), seconds.
    pub setup_s: f64,
    /// Records the final trace should hold.
    pub expected: u64,
    /// Records the final trace holds.
    pub records: u64,
    /// Durable records per second from job start (first feed) until
    /// the trace is complete.
    pub records_per_s: f64,
    /// Seconds from job start (first feed) until the analysed result.
    pub result_s: f64,
    /// Per-layer counts and ratios, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// The first failed output check, if any.
    pub error: Option<String>,
}

impl Outcome {
    /// Records a failed check; the first one is reported.
    pub fn fail(&mut self, why: String) {
        if self.error.is_none() {
            self.error = Some(why);
        }
    }

    /// Records the verdict of a check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// A telemetry snapshot reduced to one count per `(component, name)`:
/// a counter's value or a histogram's observation count, summed over
/// every label. The registry is process-global, so a layer's work is a
/// difference of two snapshots.
#[derive(Default)]
pub(crate) struct Tm(BTreeMap<(String, String), u64>);

impl Tm {
    pub(crate) fn now() -> Tm {
        let mut tm = Tm::default();
        for m in dpm_telemetry::registry().snapshot().metrics {
            let n = match m.value {
                MetricValue::Counter(v) => v,
                MetricValue::Histogram(h) => h.count,
                MetricValue::Gauge(_) => continue,
            };
            *tm.0.entry((m.component, m.name)).or_default() += n;
        }
        tm
    }

    /// Growth of `(component, name)` since `before`.
    pub(crate) fn delta(&self, before: &Tm, component: &str, name: &str) -> u64 {
        let key = (component.to_owned(), name.to_owned());
        let count = |tm: &Tm| tm.0.get(&key).copied().unwrap_or(0);
        count(self).saturating_sub(count(before))
    }
}

/// Set-ups timed per iteration. A set-up lasts milliseconds, and how
/// many of its controller RPCs find their reply on the first poll
/// (the client sleeps 200 µs between polls) changes it by half again;
/// the fastest of several tries measures the set-up's own work.
const SETUPS: usize = 7;

/// Runs `set_up` [`SETUPS`] times, passing all but the last result to
/// `tear_down`. Returns the last result and the fastest time, seconds.
pub fn timed_setup<T>(mut set_up: impl FnMut() -> T, mut tear_down: impl FnMut(T)) -> (T, f64) {
    let mut fastest = f64::INFINITY;
    for _ in 1..SETUPS {
        let started = Instant::now();
        let made = set_up();
        fastest = fastest.min(started.elapsed().as_secs_f64());
        tear_down(made);
    }
    let started = Instant::now();
    let made = set_up();
    (made, fastest.min(started.elapsed().as_secs_f64()))
}

/// SplitMix64: derives per-iteration inputs from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn usage() -> ! {
    eprintln!("usage: pipebench --workload <flat|tree|replay> --seed <n> --iter <i> --trace <0|1>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = String::new();
    let mut seed = None;
    let mut iter = 0u64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = val.clone(),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--iter" => iter = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => traced = val == "1",
            _ => usage(),
        }
    }
    let Some(seed) = seed else { usage() };
    let iter_seed = mix(seed, iter);
    let mut tracer = Tracer::new(traced, iter);
    let out = match workload.as_str() {
        "flat" => sim::run(sim::Shape::Flat, iter_seed, &mut tracer),
        "tree" => sim::run(sim::Shape::Tree, iter_seed, &mut tracer),
        "replay" => replay::run(iter_seed, &mut tracer),
        _ => usage(),
    };
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    println!(
        "{{\"ok\":{},\"error\":{},\"setup_s\":{},\"expected\":{},\"records\":{},\
         \"records_per_s\":{},\"result_s\":{},\"counts\":{{{}}},\"spans\":{}}}",
        out.error.is_none(),
        json_str(out.error.as_deref().unwrap_or("")),
        json_num(out.setup_s),
        out.expected,
        out.records,
        json_num(out.records_per_s),
        json_num(out.result_s),
        counts.join(","),
        tracer.to_json(),
    );
}
