//! Zero-dependency structured tracing, metrics, and phase profiling for
//! the NAPEL pipeline.
//!
//! The build environment is offline, so this crate plays the role
//! `tracing` + `prometheus` would play in a networked workspace, scoped
//! to what the campaign pipeline needs:
//!
//! - **Spans** ([`Span`]) — RAII guards measuring the wall-clock duration
//!   of a named phase. Spans nest: a span opened while another is open on
//!   the same thread records its parent and depth. Every span carries a
//!   *lane* (an explicit ordering domain, see [`LaneGuard`]) and a
//!   per-lane sequence number assigned at span start, so the emitted
//!   event stream has a stable order even when worker threads interleave
//!   arbitrarily: sorting by `(lane, seq)` reproduces the same event
//!   order run after run.
//! - **Metrics** — named monotonically-increasing [counters](Telemetry::counter)
//!   and log-bucketed [histograms](Telemetry::merge_log_histogram)
//!   ([`LogHistogram`]).
//! - **Sinks** ([`TelemetryReport`]) — a drained report renders as JSONL
//!   (one event or metric per line, schema in [`TelemetryReport::to_jsonl`])
//!   or as a human-readable summary table (phase-time breakdown plus top
//!   counters).
//! - **Logging** ([`log`]) — a leveled `error!`/`warn!`/`info!`/`debug!`
//!   facade honoring the `NAPEL_LOG` environment variable, with
//!   [`warn_once!`] deduplicating by *message* (not by call site, so two
//!   different warnings from one code path both print).
//!
//! # The global, and why disabled costs ~nothing
//!
//! Instrumented library code reports through the process-global handle
//! ([`global`]), which defaults to [`Telemetry::noop`]. The hot-path
//! check is one relaxed atomic load ([`enabled`]); a noop [`Span`] holds
//! no clock reading, touches no thread-local, and takes no lock, so
//! leaving instrumentation in simulator and training loops is free until
//! a driver opts in with [`install`]. The `telemetry` bench in
//! `napel-bench` demonstrates the enabled-vs-disabled campaign cost.
//!
//! # Determinism
//!
//! Telemetry never feeds back into results: campaigns produce
//! bit-identical rows with telemetry on or off (enforced by the
//! `telemetry` acceptance test in the workspace root). The emitted
//! *event stream* is itself deterministic modulo measurements: span
//! names, lanes, sequence numbers, nesting, attributes, and counter
//! values are identical across runs and across `Serial`/`Threaded`
//! executors; only the `seconds` fields of spans and the bucket counts
//! of *timing* histograms vary run to run
//! ([`TelemetryReport::without_timings`] strips exactly those).
//!
//! # Example
//!
//! ```
//! use napel_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled();
//! {
//!     let _phase = t.span("demo.outer").attr("items", 3);
//!     let _inner = t.span("demo.inner");
//!     t.counter("demo.widgets", 3);
//! }
//! let report = t.drain();
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.counter("demo.widgets"), Some(3));
//! // Inner closed first but the stream is ordered by start, outer first.
//! assert_eq!(report.spans[0].name, "demo.outer");
//! assert_eq!(report.spans[1].parent.as_deref(), Some("demo.outer"));
//! ```

pub mod log;

mod event;
mod expo;
pub mod json;
mod loghist;
mod report;
mod span;

pub use event::SpanEvent;
pub use expo::{sanitize_metric_name, SUMMARY_QUANTILES};
pub use loghist::{LogHistogram, MAX_TRACKED, MIN_TRACKED, RELATIVE_ERROR_BOUND};
pub use report::TelemetryReport;
pub use span::{LaneGuard, Span};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The default lane: the driver's main thread of control.
pub const LANE_MAIN: u64 = 0;

/// A telemetry handle — either a live recorder or a noop.
///
/// Handles are cheap to clone (an `Arc` bump) and safe to share across
/// threads; all recording methods take `&self`.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    spans: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<String, u64>>,
    log_histograms: Mutex<BTreeMap<String, LogHistogram>>,
    /// Next sequence number per lane.
    lanes: Mutex<BTreeMap<u64, u64>>,
}

impl Inner {
    pub(crate) fn next_seq(&self, lane: u64) -> u64 {
        let mut lanes = self.lanes.lock().expect("telemetry lanes not poisoned");
        let seq = lanes.entry(lane).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    pub(crate) fn record_span(&self, event: SpanEvent) {
        self.spans
            .lock()
            .expect("telemetry spans not poisoned")
            .push(event);
    }
}

impl Telemetry {
    /// The disabled handle: every operation is a no-op and costs at most
    /// an `Option` check.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with empty event and metric stores.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, measuring wall-clock time until the
    /// returned guard drops. Spans nest per thread: the innermost open
    /// span on this thread (within the current lane scope) becomes the
    /// parent. Guards must drop in LIFO order — the natural consequence
    /// of binding them to scopes.
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(self.inner.clone(), name)
    }

    /// Enters ordering lane `lane` on this thread until the guard drops,
    /// starting a fresh nesting scope (spans opened under the guard have
    /// depth 0 regardless of what was open outside it — this is what
    /// makes a job's events identical whether it ran on the caller's
    /// thread or a worker). Drop any spans opened under the guard before
    /// the guard itself.
    pub fn lane(&self, lane: u64) -> LaneGuard {
        LaneGuard::enter(self.inner.is_some(), lane)
    }

    /// Adds `delta` to the named counter, creating it at zero on first
    /// use.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner
                .counters
                .lock()
                .expect("telemetry counters not poisoned");
            match counters.get_mut(name) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name.to_string(), delta);
                }
            }
        }
    }

    /// Merges a locally-accumulated [`LogHistogram`] into the named
    /// global one, creating it empty on first use. The intended pattern
    /// for hot paths: observe into an unshared local (no lock, no global
    /// check per observation) and merge once per batch or at shutdown.
    pub fn merge_log_histogram(&self, name: &str, h: &LogHistogram) {
        if let Some(inner) = &self.inner {
            let mut store = inner
                .log_histograms
                .lock()
                .expect("telemetry log histograms not poisoned");
            store
                .entry(name.to_string())
                .or_insert_with(LogHistogram::new)
                .merge(h);
        }
    }

    /// Records an externally-measured span event. `event.seq` is
    /// replaced with the next sequence number of `event.lane`, keeping
    /// the `(lane, seq)` stream ordering invariant; everything else is
    /// taken as given. This is the injection path for subsystems (like
    /// the serve trace ring) that measure durations themselves instead
    /// of holding RAII [`Span`] guards.
    pub fn record(&self, mut event: SpanEvent) {
        if let Some(inner) = &self.inner {
            event.seq = inner.next_seq(event.lane);
            inner.record_span(event);
        }
    }

    /// Takes everything recorded so far — spans sorted by `(lane, seq)`,
    /// counters and histograms by name — and resets the handle (including
    /// per-lane sequence numbers) for the next run.
    pub fn drain(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let mut spans = std::mem::take(&mut *inner.spans.lock().expect("telemetry spans"));
        spans.sort_by_key(|e| (e.lane, e.seq));
        let counters = std::mem::take(&mut *inner.counters.lock().expect("telemetry counters"));
        let log_histograms =
            std::mem::take(&mut *inner.log_histograms.lock().expect("telemetry loghists"));
        inner.lanes.lock().expect("telemetry lanes").clear();
        TelemetryReport {
            spans,
            counters: counters.into_iter().collect(),
            log_histograms: log_histograms.into_iter().collect(),
        }
    }
}

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Telemetry>> = Mutex::new(None);

/// Whether the process-global telemetry is live. The ~zero-cost gate for
/// instrumentation whose *arguments* are expensive to build (e.g. a
/// formatted counter name): check this before formatting.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// The process-global telemetry handle — [`Telemetry::noop`] until a
/// driver [`install`]s a live one.
pub fn global() -> Telemetry {
    if !enabled() {
        return Telemetry::noop();
    }
    GLOBAL
        .lock()
        .expect("telemetry global not poisoned")
        .clone()
        .unwrap_or_default()
}

/// Installs `telemetry` as the process-global handle. Typically called
/// once by a driver binary before its campaign; installing again replaces
/// the previous handle (events already recorded there stay with it).
pub fn install(telemetry: Telemetry) {
    let live = telemetry.is_enabled();
    *GLOBAL.lock().expect("telemetry global not poisoned") = Some(telemetry);
    GLOBAL_ENABLED.store(live, Ordering::Release);
}

/// Opens a span on the [`global`] handle:
/// `span!("phase")` or `span!("phase", "key" => value, ...)`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:expr => $value:expr)* $(,)?) => {
        $crate::global().span($name)$(.attr($key, $value))*
    };
}

/// Adds to a counter on the [`global`] handle: `counter!("name", 1)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::global().counter($name, $delta);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let t = Telemetry::noop();
        {
            let _s = t.span("x").attr("k", 1);
            t.counter("c", 5);
            t.merge_log_histogram("lh", &LogHistogram::new());
            t.record(SpanEvent {
                name: "x".to_string(),
                lane: 0,
                seq: 0,
                depth: 0,
                parent: None,
                seconds: 1.0,
                attrs: Vec::new(),
            });
        }
        assert!(!t.is_enabled());
        let r = t.drain();
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.log_histograms.is_empty());
    }

    #[test]
    fn merged_log_histograms_accumulate_by_name() {
        let t = Telemetry::enabled();
        let mut a = LogHistogram::new();
        a.observe(1.0);
        let mut b = LogHistogram::new();
        b.observe(2.0);
        t.merge_log_histogram("lh", &a);
        t.merge_log_histogram("lh", &b);
        let r = t.drain();
        assert_eq!(r.log_histograms.len(), 1);
        assert_eq!(r.log_histograms[0].1.count(), 2);
    }

    #[test]
    fn recorded_events_get_lane_sequence_numbers() {
        let t = Telemetry::enabled();
        let ev = |name: &str, lane: u64, depth: u64| SpanEvent {
            name: name.to_string(),
            lane,
            seq: 999, // replaced on record
            depth,
            parent: None,
            seconds: 0.5,
            attrs: vec![("k".to_string(), "v".to_string())],
        };
        t.record(ev("req", 40, 0));
        t.record(ev("stage", 40, 1));
        t.record(ev("req", 41, 0));
        let r = t.drain();
        let got: Vec<(u64, u64, &str)> = r
            .spans
            .iter()
            .map(|e| (e.lane, e.seq, e.name.as_str()))
            .collect();
        assert_eq!(got, vec![(40, 0, "req"), (40, 1, "stage"), (41, 0, "req")]);
    }

    #[test]
    fn span_nesting_and_ordering() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("outer");
            {
                let _a = t.span("a");
                let _b = t.span("b");
            }
            let _c = t.span("c");
        }
        let r = t.drain();
        let names: Vec<&str> = r.spans.iter().map(|e| e.name.as_str()).collect();
        // Ordered by start, not by completion.
        assert_eq!(names, vec!["outer", "a", "b", "c"]);
        assert_eq!(r.spans[0].depth, 0);
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].depth, 1);
        assert_eq!(r.spans[1].parent.as_deref(), Some("outer"));
        assert_eq!(r.spans[2].depth, 2);
        assert_eq!(r.spans[2].parent.as_deref(), Some("a"));
        assert_eq!(r.spans[3].depth, 1, "c opens after a/b closed");
        assert_eq!(r.spans[3].parent.as_deref(), Some("outer"));
        assert!(r.spans.iter().all(|e| e.lane == LANE_MAIN));
        assert_eq!(
            r.spans.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn lanes_isolate_ordering_and_nesting() {
        let t = Telemetry::enabled();
        let _root = t.span("root");
        {
            let _lane = t.lane(7);
            let _job = t.span("job");
            // Fresh scope: `job` is a root span in its lane.
            let _step = t.span("step");
        }
        let _after = t.span("after");
        drop(_after);
        drop(_root);
        let r = t.drain();
        let by_lane: Vec<(u64, u64, &str, u64)> = r
            .spans
            .iter()
            .map(|e| (e.lane, e.seq, e.name.as_str(), e.depth))
            .collect();
        assert_eq!(
            by_lane,
            vec![
                (0, 0, "root", 0),
                (0, 1, "after", 1),
                (7, 0, "job", 0),
                (7, 1, "step", 1),
            ]
        );
        assert_eq!(r.spans[2].parent, None, "lane scope resets nesting");
    }

    #[test]
    fn lane_seq_is_shared_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let _lane = t.lane(3);
                    let _s = t.span("worker");
                });
            }
        });
        let r = t.drain();
        let mut seqs: Vec<u64> = r.spans.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3], "per-lane seqs never collide");
    }

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::enabled();
        t.counter("a", 2);
        t.counter("a", 3);
        t.counter("b", 1);
        let r = t.drain();
        assert_eq!(r.counter("a"), Some(5));
        assert_eq!(r.counter("b"), Some(1));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn drain_resets_everything() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("x");
            t.counter("c", 1);
        }
        let first = t.drain();
        assert_eq!(first.spans.len(), 1);
        {
            let _s = t.span("x");
        }
        let second = t.drain();
        assert_eq!(second.spans.len(), 1);
        assert_eq!(second.spans[0].seq, 0, "lane seq restarts after drain");
        assert_eq!(second.counter("c"), None);
    }

    #[test]
    fn global_defaults_to_noop_until_installed() {
        // Note: other tests in this *crate* never install, so the default
        // is observable here.
        assert!(global().is_enabled() == enabled());
        let g = global();
        let _s = g.span("free");
        drop(_s);
    }
}
