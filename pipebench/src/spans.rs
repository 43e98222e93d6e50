//! In-memory span recording for the traced run.
//!
//! A span covers one call the benchmark makes into a layer: its name,
//! start, end (microseconds since the iteration began), the span that
//! caused it, and the iteration it belongs to. Spans stay in memory
//! and are written out with the iteration's result; the runner derives
//! each layer's self time from them. With tracing off nothing is
//! recorded, so untraced iterations carry no tracing cost.

use std::time::Instant;

/// Index of a recorded span; `ROOT` when nothing is recorded.
pub type SpanId = usize;

/// The parent of top-level spans.
pub const ROOT: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: SpanId,
}

/// The iteration's span log.
pub struct Tracer {
    on: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for iteration `run`; records only when `on`.
    pub fn new(on: bool, run: u64) -> Tracer {
        Tracer {
            on,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now_us();
            self.spans[id].end_us = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The spans as a JSON array of
    /// `[name, start_us, end_us, parent, run]` rows (parent -1 for a
    /// top-level span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == ROOT {
                    -1
                } else {
                    s.parent as i64
                };
                format!(
                    "[\"{}\",{},{},{},{}]",
                    s.name, s.start_us, s.end_us, parent, self.run
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}
