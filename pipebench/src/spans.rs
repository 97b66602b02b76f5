//! The traced run's span store and the per-layer metrics derived from it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, kept in memory, and written out as JSONL
//! when the run ends. Every span carries the id of the op it belongs to
//! (0 for set-up). A layer whose work happens inside a fused library call
//! (the campaign's tee pass, `Napel::train`) is timed by *replaying* that
//! layer alone on the op's own input right after the op; the replay span
//! carries the op's id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::quantile;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Op the span belongs to; 0 is set-up.
    pub op: u64,
    /// Layer or op name, e.g. `pisa.observe`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Units of work the span covered (instructions, rows, trees); 0 if
    /// the layer has none.
    pub units: u64,
}

/// Span name of a whole op (its wall clock, replays excluded).
pub const OP: &str = "op";

/// In-memory span store plus the counters that are not durations.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
    busy: Duration,
    wall: Duration,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            busy: Duration::ZERO,
            wall: Duration::ZERO,
        }
    }
}

impl Tracer {
    /// Runs `f` as span `name` of op `op`; `f` returns its result and its
    /// unit count.
    pub fn span<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let start = Instant::now();
        let (r, units) = f();
        self.record(op, name, start, start.elapsed(), units);
        r
    }

    /// Records an externally timed span.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        start: Instant,
        dur: Duration,
        units: u64,
    ) {
        self.spans.push(Span {
            op,
            name,
            start: start.saturating_duration_since(self.origin),
            dur,
            units,
        });
    }

    /// Adds to a non-duration counter (bytes, cycles, cache lookups).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Sets a counter outright (values read from the server at the end).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counters.insert(name, v);
    }

    /// Books one op toward `trace.coverage`: the layer time attributed
    /// to it against its wall clock.
    pub fn cover(&mut self, layer_busy: Duration, op_wall: Duration) {
        self.busy += layer_busy;
        self.wall += op_wall;
    }

    /// Total seconds of every span named `name` attributed to op `op`.
    pub fn op_seconds(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .sum()
    }

    /// Calls, seconds, and units of every span named `name`.
    pub fn layer(&self, name: &str) -> Layer {
        let mut l = Layer::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            l.calls += 1;
            l.seconds += s.dur.as_secs_f64();
            l.units += s.units;
        }
        l
    }

    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Σ layer time ÷ Σ op wall over the booked ops.
    pub fn coverage(&self) -> f64 {
        self.busy.as_secs_f64() / self.wall.as_secs_f64().max(1e-12)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"units\":{}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.dur.as_nanos(),
                s.units
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Aggregate of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Their summed duration.
    pub seconds: f64,
    /// Their summed units.
    pub units: u64,
}

impl Layer {
    /// Mean seconds per call.
    pub fn per_call(&self) -> f64 {
        self.seconds / self.calls.max(1) as f64
    }

    /// Units per second of layer time.
    pub fn rate(&self) -> f64 {
        self.units as f64 / self.seconds.max(1e-12)
    }
}

/// `traced / untraced − 1` of the two passes' median op latencies.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    let med = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        quantile(&v, 0.5)
    };
    med(traced) / med(untraced) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_aggregate_by_name_and_coverage_divides_booked_time() {
        let mut t = Tracer::default();
        let now = Instant::now();
        t.record(1, "pisa.observe", now, Duration::from_millis(30), 300);
        t.record(2, "pisa.observe", now, Duration::from_millis(10), 100);
        t.record(2, OP, now, Duration::from_millis(50), 0);
        let l = t.layer("pisa.observe");
        assert_eq!(l.calls, 2);
        assert!((l.per_call() - 0.02).abs() < 1e-9);
        assert!((l.rate() - 10_000.0).abs() < 1e-6);
        assert!((t.op_seconds(2, "pisa.observe") - 0.01).abs() < 1e-9);
        t.cover(Duration::from_millis(45), Duration::from_millis(50));
        assert!((t.coverage() - 0.9).abs() < 1e-9);
        assert_eq!(t.layer("absent"), Layer::default());
        t.count("x", 2.0);
        t.count("x", 3.0);
        assert_eq!(t.counter("x"), 5.0);
        assert!((overhead(&[1.0, 2.0, 3.0], &[1.1, 2.2, 3.3]) - 0.1).abs() < 1e-9);
    }
}
