//! Request-scoped tracing and live observability state.
//!
//! Every request admitted to a shard queue is stamped with a
//! [`TraceContext`] the moment its line leaves the socket: a process-wide
//! trace id plus a wall-clock anchor. As the request moves through the
//! pipeline, each handler charges the time it spent to one of six
//! [`Stage`]s; when the request is answered — success, shed, deadline
//! drop, or error — the completed context lands in the [`ObsHub`]:
//!
//! - per-shard, per-stage [`LogHistogram`]s (quantile-accurate stage
//!   latency, readable live),
//! - end-to-end latency and batch-size [`LogHistogram`]s
//!   (`serve.latency_seconds`, `serve.batch_size`),
//! - a bounded ring of full per-request traces, holding every
//!   non-`ok` outcome plus a deterministic 1-in-N sample of successes
//!   (`trace_id % sample == 0`). The ring is drainable over the wire
//!   (`trace` request) and whatever remains at shutdown is exported into
//!   the telemetry JSONL as `serve.request`/`serve.stage.*` spans, so
//!   the `obs` converter renders server traces on the same timeline
//!   tooling as campaign runs.
//!
//! The hub is always on — its cost is a handful of `Instant::now()`
//! calls and short uncontended mutex holds per request, invisible next
//! to a model evaluation — which is what makes the `metrics` wire
//! request meaningful on a server that was started without any
//! telemetry flags.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use napel_telemetry::json::write_string;
use napel_telemetry::{LogHistogram, SpanEvent, TelemetryReport};

use crate::protocol::Response;
use crate::queue::{Job, JobKind};
use crate::stats::ServeStats;

/// Telemetry lanes `TRACE_LANE_BASE + shard` carry the exported
/// per-request spans, far from the campaign lanes (0..jobs).
pub const TRACE_LANE_BASE: u64 = 1_000;

/// Pipeline stages a request's wall-clock time is charged to.
///
/// Boundaries (each stage ends where the next begins):
///
/// | stage            | covers                                              |
/// |------------------|-----------------------------------------------------|
/// | `read_parse`     | line off the socket → request parsed                |
/// | `admission`      | the shard-queue push (lock + capacity check)        |
/// | `queue_wait`     | admission → a worker claims the batch               |
/// | `batch_assembly` | batch claim → rows gathered, model resolved         |
/// | `predict`        | the `predict_batch` call the request rode in        |
/// | `respond_flush`  | response render → handed to the connection writer   |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Socket line receipt through request parsing.
    ReadParse,
    /// The admission-control queue push.
    Admission,
    /// Sitting in the shard queue.
    QueueWait,
    /// Batch claim through row gathering and model-cache resolution.
    BatchAssembly,
    /// The model inference call.
    Predict,
    /// Response rendering and hand-off to the writer thread.
    RespondFlush,
}

/// Number of [`Stage`]s.
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::ReadParse,
        Stage::Admission,
        Stage::QueueWait,
        Stage::BatchAssembly,
        Stage::Predict,
        Stage::RespondFlush,
    ];

    /// The stage's stable snake_case name (metric suffixes, span names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ReadParse => "read_parse",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Predict => "predict",
            Stage::RespondFlush => "respond_flush",
        }
    }
}

/// The per-request trace state, stamped at read time and carried inside
/// the [`Job`] through the whole pipeline.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Process-wide monotonically increasing id.
    pub trace_id: u64,
    /// When the request's line came off the socket — the end-to-end
    /// latency anchor.
    pub started: Instant,
    stage_nanos: [u64; STAGE_COUNT],
}

impl TraceContext {
    /// A context anchored at `started` (tests construct these directly;
    /// the server goes through [`ObsHub::new_context`] for the id).
    pub fn new(trace_id: u64, started: Instant) -> TraceContext {
        TraceContext {
            trace_id,
            started,
            stage_nanos: [0; STAGE_COUNT],
        }
    }

    /// Charges `elapsed` to `stage` (accumulating: a retried stage adds).
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.stage_nanos[stage as usize] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Nanoseconds charged per stage, indexed in [`Stage::ALL`] order.
    pub fn stage_nanos(&self) -> &[u64; STAGE_COUNT] {
        &self.stage_nanos
    }
}

/// One finished request, as stored in the sampled ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Trace id from the [`TraceContext`].
    pub trace_id: u64,
    /// Client-chosen request id (clamped to 64 chars for ring hygiene).
    pub request_id: String,
    /// Model key, or `""` for chaos jobs.
    pub model: String,
    /// Outcome token: `ok` or an [`ErrorKind`](crate::ErrorKind) token.
    pub outcome: &'static str,
    /// Shard that carried (or refused) the request.
    pub shard: usize,
    /// End-to-end nanoseconds, read to response hand-off.
    pub total_nanos: u64,
    /// Per-stage nanoseconds in [`Stage::ALL`] order.
    pub stage_nanos: [u64; STAGE_COUNT],
}

impl RequestTrace {
    /// One trace as a compact JSON object (`stages` keyed by stage name,
    /// zero stages included so every trace has the same shape).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(192);
        let _ = write!(s, "{{\"trace_id\":{},\"id\":", self.trace_id);
        write_string(&mut s, &self.request_id);
        s.push_str(",\"model\":");
        write_string(&mut s, &self.model);
        s.push_str(",\"outcome\":");
        write_string(&mut s, self.outcome);
        let _ = write!(
            s,
            ",\"shard\":{},\"total_ns\":{},\"stages\":{{",
            self.shard, self.total_nanos
        );
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_string(&mut s, stage.name());
            let _ = write!(s, ":{}", self.stage_nanos[i]);
        }
        s.push_str("}}");
        s
    }
}

/// The server's live observability state: stage/latency/batch-size
/// histograms plus the sampled trace ring. One per [`Server`], shared by
/// every connection and worker thread.
///
/// [`Server`]: crate::Server
pub struct ObsHub {
    /// Keep 1 in this many `ok` traces (non-`ok` always kept); 0 or 1
    /// keeps everything.
    sample_every: u64,
    ring_capacity: usize,
    next_trace_id: AtomicU64,
    /// Per-shard per-stage duration histograms, seconds.
    shard_stages: Vec<Mutex<[LogHistogram; STAGE_COUNT]>>,
    /// End-to-end request latency, seconds, `ok` outcomes only.
    latency: Mutex<LogHistogram>,
    /// Rows per drained batch.
    batch_size: Mutex<LogHistogram>,
    ring: Mutex<VecDeque<RequestTrace>>,
    /// Traces evicted from the ring before anyone drained them.
    dropped: AtomicU64,
}

impl ObsHub {
    /// A hub for `shards` worker shards, keeping 1-in-`sample_every`
    /// successful traces in a ring of `ring_capacity`.
    pub fn new(shards: usize, sample_every: u64, ring_capacity: usize) -> ObsHub {
        ObsHub {
            sample_every: sample_every.max(1),
            ring_capacity: ring_capacity.max(1),
            next_trace_id: AtomicU64::new(0),
            shard_stages: (0..shards.max(1))
                .map(|_| Mutex::new(std::array::from_fn(|_| LogHistogram::new())))
                .collect(),
            latency: Mutex::new(LogHistogram::new()),
            batch_size: Mutex::new(LogHistogram::new()),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Stamps a fresh trace context anchored at `started` (the instant
    /// the request line came off the socket).
    pub fn new_context(&self, started: Instant) -> TraceContext {
        TraceContext::new(self.next_trace_id.fetch_add(1, Ordering::Relaxed), started)
    }

    /// Records one drained batch's row count.
    pub fn observe_batch(&self, rows: usize) {
        self.batch_size
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .observe(rows as f64);
    }

    /// Folds a finished request into the histograms and (if sampled or
    /// non-`ok`) the trace ring. `outcome` is `"ok"` or an error token.
    pub fn complete(
        &self,
        shard: usize,
        ctx: &TraceContext,
        request_id: &str,
        model: &str,
        outcome: &'static str,
    ) {
        let total = ctx.started.elapsed();
        let shard = shard.min(self.shard_stages.len() - 1);
        {
            let mut stages = self.shard_stages[shard]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (i, &nanos) in ctx.stage_nanos.iter().enumerate() {
                if nanos > 0 {
                    stages[i].observe(nanos as f64 / 1e9);
                }
            }
        }
        if outcome == "ok" {
            self.latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .observe(total.as_secs_f64());
        }
        let sampled = outcome != "ok" || ctx.trace_id.is_multiple_of(self.sample_every);
        if !sampled {
            return;
        }
        let mut request_id = request_id.to_string();
        request_id.truncate(64);
        let trace = RequestTrace {
            trace_id: ctx.trace_id,
            request_id,
            model: model.to_string(),
            outcome,
            shard,
            total_nanos: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
            stage_nanos: ctx.stage_nanos,
        };
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while ring.len() >= self.ring_capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }

    /// Takes up to `max` traces from the ring, oldest first, along with
    /// the running count of traces evicted unseen.
    pub fn drain_traces(&self, max: usize) -> (u64, Vec<RequestTrace>) {
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let take = ring.len().min(max);
        let traces = ring.drain(..take).collect();
        (self.dropped.load(Ordering::Relaxed), traces)
    }

    /// Renders the `trace` wire payload: one JSON object on one line.
    pub fn drain_traces_json(&self, max: usize) -> String {
        let (dropped, traces) = self.drain_traces(max);
        let mut s = format!("{{\"dropped\":{dropped},\"traces\":[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&t.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Aggregates one stage's histogram across every shard.
    fn merged_stage(&self, stage: Stage) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for shard in &self.shard_stages {
            let stages = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            merged.merge(&stages[stage as usize]);
        }
        merged
    }

    /// A snapshot of everything the hub and `stats` know, as a
    /// [`TelemetryReport`] (counters under their `serve.*` telemetry
    /// names; latency, batch-size, and per-stage log histograms).
    pub fn report(&self, stats: &ServeStats, queue_depth: usize) -> TelemetryReport {
        let mut counters: Vec<(String, u64)> = stats
            .telemetry_snapshot()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        counters.push(("serve.queue_depth".to_string(), queue_depth as u64));
        counters.push((
            "serve.trace.ring_dropped".to_string(),
            self.dropped.load(Ordering::Relaxed),
        ));
        let mut log_histograms = vec![
            (
                "serve.latency_seconds".to_string(),
                self.latency
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
            (
                "serve.batch_size".to_string(),
                self.batch_size
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
        ];
        for stage in Stage::ALL {
            log_histograms.push((
                format!("serve.stage_seconds.{}", stage.name()),
                self.merged_stage(stage),
            ));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        log_histograms.sort_by(|a, b| a.0.cmp(&b.0));
        TelemetryReport {
            spans: Vec::new(),
            counters,
            log_histograms,
        }
    }

    /// The live Prometheus text exposition (the `metrics` wire payload
    /// and the `--metrics-out` snapshot body).
    pub fn prometheus(&self, stats: &ServeStats, queue_depth: usize) -> String {
        self.report(stats, queue_depth).to_prometheus()
    }

    /// Exports everything into the process-global telemetry at drain:
    /// histograms merge under their `serve.*` names, and every trace
    /// still in the ring becomes a `serve.request` span (lane
    /// [`TRACE_LANE_BASE`]` + shard`) with `serve.stage.<name>` children,
    /// so the JSONL a driver writes with `--telemetry-out` carries the
    /// sampled traces in the same schema campaign spans use.
    pub fn publish(&self) {
        self.publish_to(&napel_telemetry::global());
    }

    /// [`ObsHub::publish`] against an explicit handle (tests).
    pub fn publish_to(&self, t: &napel_telemetry::Telemetry) {
        if !t.is_enabled() {
            return;
        }
        t.merge_log_histogram(
            "serve.latency_seconds",
            &self
                .latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        t.merge_log_histogram(
            "serve.batch_size",
            &self
                .batch_size
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for stage in Stage::ALL {
            let merged = self.merged_stage(stage);
            if !merged.is_empty() {
                t.merge_log_histogram(&format!("serve.stage_seconds.{}", stage.name()), &merged);
            }
        }
        t.counter(
            "serve.trace.ring_dropped",
            self.dropped.load(Ordering::Relaxed),
        );
        let (_, traces) = self.drain_traces(usize::MAX);
        for trace in traces {
            let lane = TRACE_LANE_BASE + trace.shard as u64;
            t.record(SpanEvent {
                name: "serve.request".to_string(),
                lane,
                seq: 0, // assigned by record()
                depth: 0,
                parent: None,
                seconds: trace.total_nanos as f64 / 1e9,
                attrs: vec![
                    ("trace_id".to_string(), trace.trace_id.to_string()),
                    ("request".to_string(), trace.request_id.clone()),
                    ("model".to_string(), trace.model.clone()),
                    ("outcome".to_string(), trace.outcome.to_string()),
                ],
            });
            for (i, stage) in Stage::ALL.iter().enumerate() {
                if trace.stage_nanos[i] == 0 {
                    continue;
                }
                t.record(SpanEvent {
                    name: format!("serve.stage.{}", stage.name()),
                    lane,
                    seq: 0,
                    depth: 1,
                    parent: Some("serve.request".to_string()),
                    seconds: trace.stage_nanos[i] as f64 / 1e9,
                    attrs: Vec::new(),
                });
            }
        }
    }
}

/// Answers `job` with `response`, charging the render/hand-off time to
/// [`Stage::RespondFlush`] and folding the finished trace into `hub`.
/// Every path that answers an admitted request funnels through here.
pub(crate) fn finish(
    hub: &ObsHub,
    shard: usize,
    mut job: Job,
    outcome: &'static str,
    response: &Response,
) {
    let flush_started = Instant::now();
    job.respond(response);
    job.ctx.record(Stage::RespondFlush, flush_started.elapsed());
    let model = match &job.kind {
        JobKind::Predict { model, .. } => model.as_str(),
        _ => "",
    };
    hub.complete(shard, &job.ctx, &job.id, model, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(hub: &ObsHub) -> TraceContext {
        hub.new_context(Instant::now())
    }

    #[test]
    fn stage_names_are_stable_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "read_parse",
                "admission",
                "queue_wait",
                "batch_assembly",
                "predict",
                "respond_flush"
            ]
        );
    }

    #[test]
    fn contexts_get_unique_ids_and_accumulate_stages() {
        let hub = ObsHub::new(2, 1, 16);
        let mut a = ctx(&hub);
        let b = ctx(&hub);
        assert_ne!(a.trace_id, b.trace_id);
        a.record(Stage::Predict, Duration::from_micros(3));
        a.record(Stage::Predict, Duration::from_micros(2));
        assert_eq!(a.stage_nanos()[Stage::Predict as usize], 5_000);
    }

    #[test]
    fn sampling_keeps_every_error_and_one_in_n_successes() {
        let hub = ObsHub::new(1, 4, 64);
        for _ in 0..8 {
            let c = ctx(&hub);
            hub.complete(0, &c, "r", "m", "ok");
        }
        for _ in 0..3 {
            let c = ctx(&hub);
            hub.complete(0, &c, "r", "m", "shed");
        }
        let (dropped, traces) = hub.drain_traces(usize::MAX);
        assert_eq!(dropped, 0);
        let oks = traces.iter().filter(|t| t.outcome == "ok").count();
        let sheds = traces.iter().filter(|t| t.outcome == "shed").count();
        assert_eq!(oks, 2, "trace ids 0 and 4 of 8 successes");
        assert_eq!(sheds, 3, "every shed is kept");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let hub = ObsHub::new(1, 1, 4);
        for _ in 0..10 {
            let c = ctx(&hub);
            hub.complete(0, &c, "r", "m", "ok");
        }
        let (dropped, traces) = hub.drain_traces(usize::MAX);
        assert_eq!(dropped, 6);
        assert_eq!(traces.len(), 4);
        let ids: Vec<u64> = traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "oldest evicted first");
    }

    #[test]
    fn drain_traces_respects_max_and_removes_what_it_returns() {
        let hub = ObsHub::new(1, 1, 16);
        for _ in 0..5 {
            let c = ctx(&hub);
            hub.complete(0, &c, "r", "m", "ok");
        }
        let (_, first) = hub.drain_traces(2);
        assert_eq!(first.len(), 2);
        let (_, rest) = hub.drain_traces(100);
        assert_eq!(rest.len(), 3);
        assert_ne!(first[0].trace_id, rest[0].trace_id);
    }

    #[test]
    fn trace_json_is_well_formed_and_escaped() {
        let hub = ObsHub::new(1, 1, 4);
        let mut c = ctx(&hub);
        c.record(Stage::Predict, Duration::from_micros(10));
        hub.complete(0, &c, "id\"with\\quotes", "fig4-atax", "ok");
        let json = hub.drain_traces_json(64);
        assert!(json.starts_with("{\"dropped\":0,\"traces\":[{"));
        assert!(json.contains("\"id\":\"id\\\"with\\\\quotes\""));
        assert!(json.contains("\"model\":\"fig4-atax\""));
        assert!(json.contains("\"predict\":10000"));
        assert!(json.ends_with("}]}"));
        // And it stays on one line.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn request_trace_json_pins_escaped_bytes() {
        let trace = RequestTrace {
            trace_id: 7,
            request_id: "a\\b\u{1}c\td".to_string(),
            model: "m".to_string(),
            outcome: "ok",
            shard: 0,
            total_nanos: 5,
            stage_nanos: [0, 0, 0, 0, 5, 0],
        };
        assert_eq!(
            trace.to_json(),
            r#"{"trace_id":7,"id":"a\\b\u0001c\td","model":"m","outcome":"ok","shard":0,"total_ns":5,"stages":{"read_parse":0,"admission":0,"queue_wait":0,"batch_assembly":0,"predict":5,"respond_flush":0}}"#
        );
    }

    #[test]
    fn latency_counts_only_successes_but_stages_count_everything() {
        let hub = ObsHub::new(1, 1, 16);
        let mut good = ctx(&hub);
        good.record(Stage::QueueWait, Duration::from_millis(1));
        hub.complete(0, &good, "a", "m", "ok");
        let mut bad = ctx(&hub);
        bad.record(Stage::QueueWait, Duration::from_millis(1));
        hub.complete(0, &bad, "b", "m", "deadline");
        let stats = ServeStats::default();
        let report = hub.report(&stats, 0);
        let lat = &report
            .log_histograms
            .iter()
            .find(|(n, _)| n == "serve.latency_seconds")
            .expect("latency present")
            .1;
        assert_eq!(lat.count(), 1);
        let qw = &report
            .log_histograms
            .iter()
            .find(|(n, _)| n == "serve.stage_seconds.queue_wait")
            .expect("stage present")
            .1;
        assert_eq!(qw.count(), 2);
    }

    #[test]
    fn prometheus_snapshot_has_counters_and_stage_quantiles() {
        let hub = ObsHub::new(2, 1, 16);
        let mut c = ctx(&hub);
        c.record(Stage::Predict, Duration::from_micros(250));
        hub.complete(1, &c, "a", "m", "ok");
        hub.observe_batch(3);
        let stats = ServeStats::default();
        let text = hub.prometheus(&stats, 7);
        assert!(text.contains("# TYPE serve_requests_accepted counter"));
        assert!(text.contains("serve_queue_depth 7"));
        assert!(text.contains("serve_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("serve_stage_seconds_predict{quantile=\"0.5\"}"));
        assert!(text.contains("serve_batch_size_count 1"));
    }

    #[test]
    fn publish_exports_ring_traces_as_spans() {
        let t = napel_telemetry::Telemetry::enabled();
        let hub = ObsHub::new(2, 1, 16);
        let mut c = ctx(&hub);
        c.record(Stage::QueueWait, Duration::from_micros(5));
        c.record(Stage::Predict, Duration::from_micros(10));
        hub.complete(1, &c, "req1", "fig4-atax", "ok");
        hub.observe_batch(1);
        hub.publish_to(&t);
        let report = t.drain();
        let request = report
            .spans
            .iter()
            .find(|s| s.name == "serve.request")
            .expect("request span exported");
        assert_eq!(request.lane, TRACE_LANE_BASE + 1);
        assert_eq!(request.depth, 0);
        assert!(request
            .attrs
            .iter()
            .any(|(k, v)| k == "model" && v == "fig4-atax"));
        let stage = report
            .spans
            .iter()
            .find(|s| s.name == "serve.stage.predict")
            .expect("stage span exported");
        assert_eq!(stage.parent.as_deref(), Some("serve.request"));
        assert_eq!(stage.depth, 1);
        assert!(report
            .log_histograms
            .iter()
            .any(|(n, _)| n == "serve.latency_seconds"));
        assert!(report
            .log_histograms
            .iter()
            .any(|(n, _)| n == "serve.stage_seconds.queue_wait"));
    }
}
