//! In-memory span tracer for the traced benchmark runs.
//!
//! Every call the benchmark makes into a layer's public API is wrapped in
//! a span named `<layer>.<call>` (`flat.round`, `broadcast.step`,
//! `daemon.http.scrape`, …). A span records its start, end and parent; all
//! spans of one run share a run id. Spans stay in memory and are written
//! once, at the end, as JSON lines. A disabled tracer records nothing, so
//! the untraced runs that produce the end-to-end metrics pay one branch
//! per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Time accumulated over many short calls (e.g. every `next()` of a
    /// topology iterator) rather than one contiguous interval; such a span
    /// is laid at its parent's start.
    pub aggregate: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span; `None` when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-layer totals derived from a finished trace.
pub struct LayerTimes {
    /// Self time per layer (span duration minus the time its children
    /// cover), in seconds.
    pub self_s: BTreeMap<String, f64>,
    /// Seconds of the traced wall interval covered by top-level spans.
    pub covered_s: f64,
}

/// The layer a span belongs to: its name up to the last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Self { enabled, run_id, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            aggregate: false,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans must close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Records `total` of accumulated time under `name` as a child of the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, total: Duration) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total.as_nanos() as u64,
            parent,
            aggregate: true,
        });
    }

    /// Self time per layer and the wall time the top-level spans cover.
    pub fn layer_times(&self) -> LayerTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut self_s = BTreeMap::new();
        let mut covered_ns = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            let own = span.dur_ns().saturating_sub(child_ns[i]);
            *self_s.entry(layer_of(span.name).to_string()).or_insert(0.0) += own as f64 * 1e-9;
            if span.parent.is_none() {
                covered_ns += span.dur_ns();
            }
        }
        LayerTimes { self_s, covered_s: covered_ns as f64 * 1e-9 }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{:016x}\",\"workload\":\"{workload}\",\"id\":{i},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"aggregate\":{}}}",
                self.run_id, span.name, span.start_ns, span.end_ns, span.aggregate
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        let outer = t.open("a.outer");
        t.span("b.inner", || std::thread::sleep(Duration::from_millis(20)));
        // The aggregated calls happen inside the outer span's own time.
        std::thread::sleep(Duration::from_millis(10));
        t.aggregate("c.acc", Duration::from_millis(5));
        t.close(outer);
        let times = t.layer_times();
        let total = t.spans[0].dur_ns() as f64 * 1e-9;
        assert!(times.self_s["b"] >= 0.02);
        assert!((times.self_s["c"] - 0.005).abs() < 1e-9);
        let sum: f64 = times.self_s.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the root span");
        assert!((times.covered_s - total).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let x = t.span("a.b", || 7);
        assert_eq!(x, 7);
        assert_eq!(t.span_count(), 0);
        assert!(t.to_jsonl("w").is_empty());
    }
}
