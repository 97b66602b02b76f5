//! Trace-export tooling: telemetry JSONL → Chrome trace-event JSON.
//!
//! The telemetry stream records spans as *durations* ordered by
//! `(lane, seq)` — a span line is written when the span closes, so
//! children precede their parent in sequence order and no span carries
//! an absolute timestamp. Timeline viewers (Perfetto, `chrome://tracing`)
//! want the opposite: absolute `ts`/`dur` pairs with children nested
//! inside parents. [`place_spans`] synthesizes that timeline:
//!
//! - each lane becomes one track (`tid`), with a cursor per nesting
//!   depth advancing as spans are placed;
//! - a span claims every deeper span placed since the previous span at
//!   its depth as its children, starts where its first child started
//!   (or at its depth's cursor when childless), and ends no earlier
//!   than its last child — so containment holds *exactly*, even when
//!   recorded durations disagree slightly with the sum of their parts;
//! - self time (own duration minus claimed children) is tracked per
//!   span, feeding the [`self_time_table`] hot-phase summary.
//!
//! The synthesized timeline is faithful to per-span durations and
//! nesting, not to wall-clock gaps between spans: time the process
//! spent outside any span does not appear. That is the right trade for
//! the question the `obs` bin answers — *where did the measured time
//! go* — and it is what makes the output deterministic for a given
//! JSONL input.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use napel_telemetry::json::write_string;
use napel_telemetry::{SpanEvent, TelemetryReport};

/// Deepest nesting level the placer distinguishes; spans reporting a
/// larger depth are clamped (the telemetry macros produce 0–3).
const MAX_DEPTH: usize = 32;

/// Lanes at or above this base carry `napel-serve` per-request traces
/// (mirrors `napel_serve::TRACE_LANE_BASE`; not imported so the bench
/// crate stays independent of the serving stack).
const SERVE_TRACE_LANE_BASE: u64 = 1_000;

/// One span placed on the synthesized timeline (all times microseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedSpan {
    /// Span name.
    pub name: String,
    /// Telemetry lane (one timeline track per lane).
    pub lane: u64,
    /// Nesting depth as recorded.
    pub depth: u64,
    /// Absolute start on the lane's synthesized clock.
    pub ts_us: f64,
    /// Duration, widened if needed to contain every claimed child.
    pub dur_us: f64,
    /// Duration minus claimed children — the span's own work.
    pub self_us: f64,
    /// Attributes carried by the span event.
    pub attrs: Vec<(String, String)>,
}

/// Places every span of `report` on a per-lane timeline. Output order:
/// lanes ascending, then placement (sequence) order within a lane.
pub fn place_spans(report: &TelemetryReport) -> Vec<PlacedSpan> {
    let mut lanes: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for span in &report.spans {
        lanes.entry(span.lane).or_default().push(span);
    }
    let mut placed = Vec::with_capacity(report.spans.len());
    for (lane, mut spans) in lanes {
        spans.sort_by_key(|s| s.seq);
        // cursor[d]: where the next span at depth d starts; pending[d]:
        // placed-but-unclaimed (start, end, dur) extents at depth d.
        let mut cursor = [0.0_f64; MAX_DEPTH + 1];
        let mut pending: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); MAX_DEPTH + 1];
        for span in spans {
            let d = (span.depth as usize).min(MAX_DEPTH);
            let dur = span.seconds.max(0.0) * 1e6;
            let mut start = cursor[d];
            let mut child_end = f64::NEG_INFINITY;
            let mut child_dur = 0.0;
            for slot in pending.iter_mut().take(MAX_DEPTH + 1).skip(d + 1) {
                for (cs, ce, cd) in slot.drain(..) {
                    start = start.min(cs);
                    child_end = child_end.max(ce);
                    child_dur += cd;
                }
            }
            let end = (start + dur).max(child_end);
            let total = end - start;
            pending[d].push((start, end, total));
            for c in cursor.iter_mut().skip(d) {
                *c = end;
            }
            placed.push(PlacedSpan {
                name: span.name.clone(),
                lane,
                depth: span.depth,
                ts_us: start,
                dur_us: total,
                self_us: (total - child_dur).max(0.0),
                attrs: span.attrs.clone(),
            });
        }
    }
    placed
}

/// A human track label for a lane.
fn lane_label(lane: u64) -> String {
    if lane >= SERVE_TRACE_LANE_BASE {
        format!("serve shard {}", lane - SERVE_TRACE_LANE_BASE)
    } else {
        format!("lane {lane}")
    }
}

/// Renders placed spans as Chrome trace-event JSON (the "JSON object
/// format"): complete `ph:"X"` events on `pid` 1 with one `tid` per
/// lane, plus `thread_name` metadata labeling each track. Loadable
/// directly in Perfetto or `chrome://tracing`.
pub fn chrome_trace(placed: &[PlacedSpan]) -> String {
    let mut out = String::with_capacity(128 + placed.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let lanes: BTreeSet<u64> = placed.iter().map(|p| p.lane).collect();
    for lane in lanes {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":"
        );
        write_string(&mut out, &lane_label(lane));
        out.push_str("}}");
    }
    for p in placed {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        write_string(&mut out, &p.name);
        let _ = write!(
            out,
            ",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
            p.lane, p.ts_us, p.dur_us
        );
        for (i, (k, v)) in p.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(&mut out, k);
            out.push(':');
            write_string(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Aggregates placed spans by name and renders the top-`top` phases by
/// total self time: where the measured time actually went.
pub fn self_time_table(placed: &[PlacedSpan], top: usize) -> String {
    struct Agg {
        count: u64,
        self_us: f64,
        total_us: f64,
    }
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for p in placed {
        let agg = by_name.entry(&p.name).or_insert(Agg {
            count: 0,
            self_us: 0.0,
            total_us: 0.0,
        });
        agg.count += 1;
        agg.self_us += p.self_us;
        agg.total_us += p.dur_us;
    }
    let grand_self: f64 = by_name.values().map(|a| a.self_us).sum();
    let mut rows: Vec<(&str, Agg)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let shown = rows.len().min(top.max(1));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "top {shown} of {} phases by self time ({} spans placed):",
        rows.len(),
        placed.len()
    );
    let name_width = rows[..shown]
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(5)
        .max("phase".len());
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>6}",
        "phase", "count", "self(ms)", "total(ms)", "self%"
    );
    for (name, agg) in rows.iter().take(shown) {
        let share = if grand_self > 0.0 {
            100.0 * agg.self_us / grand_self
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{name:<name_width$}  {:>8}  {:>12.3}  {:>12.3}  {share:>5.1}%",
            agg.count,
            agg.self_us / 1e3,
            agg.total_us / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, lane: u64, seq: u64, depth: u64, seconds: f64) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            lane,
            seq,
            depth,
            parent: None,
            seconds,
            attrs: Vec::new(),
        }
    }

    fn report(spans: Vec<SpanEvent>) -> TelemetryReport {
        TelemetryReport {
            spans,
            counters: Vec::new(),
            log_histograms: Vec::new(),
        }
    }

    #[test]
    fn parents_contain_their_children_exactly() {
        // Recorded close-order: two children, then their parent whose
        // duration is *smaller* than the children's sum (clock skew);
        // then a sibling leaf at depth 0.
        let r = report(vec![
            span("child.a", 0, 0, 1, 0.010),
            span("child.b", 0, 1, 1, 0.020),
            span("parent", 0, 2, 0, 0.025),
            span("tail", 0, 3, 0, 0.005),
        ]);
        let placed = place_spans(&r);
        let by_name = |n: &str| placed.iter().find(|p| p.name == n).unwrap();
        let (a, b, parent, tail) = (
            by_name("child.a"),
            by_name("child.b"),
            by_name("parent"),
            by_name("tail"),
        );
        // Children are sequential on the lane clock.
        assert_eq!(a.ts_us, 0.0);
        assert_eq!(b.ts_us, a.ts_us + a.dur_us);
        // The parent is widened to contain both children.
        assert_eq!(parent.ts_us, a.ts_us);
        assert_eq!(parent.ts_us + parent.dur_us, b.ts_us + b.dur_us);
        for child in [a, b] {
            assert!(parent.ts_us <= child.ts_us);
            assert!(child.ts_us + child.dur_us <= parent.ts_us + parent.dur_us);
        }
        // Self time is parent total minus claimed children, floored at 0.
        assert_eq!(parent.self_us, 0.0);
        // The sibling starts after the parent ends — no overlap at depth 0.
        assert_eq!(tail.ts_us, parent.ts_us + parent.dur_us);
        assert_eq!(tail.self_us, tail.dur_us);
    }

    #[test]
    fn parent_longer_than_children_keeps_its_duration() {
        let r = report(vec![
            span("inner", 3, 0, 1, 0.004),
            span("outer", 3, 1, 0, 0.010),
        ]);
        let placed = place_spans(&r);
        let outer = placed.iter().find(|p| p.name == "outer").unwrap();
        assert_eq!(outer.dur_us, 10_000.0);
        assert_eq!(outer.self_us, 6_000.0);
    }

    #[test]
    fn lanes_get_independent_clocks() {
        let r = report(vec![span("x", 0, 0, 0, 0.010), span("y", 7, 0, 0, 0.003)]);
        let placed = place_spans(&r);
        assert!(
            placed.iter().all(|p| p.ts_us == 0.0),
            "each lane starts at 0"
        );
    }

    #[test]
    fn chrome_trace_shape_and_lane_labels() {
        let r = report(vec![
            span("campaign.job", 2, 0, 0, 0.010),
            span("serve.request", 1_003, 0, 0, 0.001),
        ]);
        let text = chrome_trace(&place_spans(&r));
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"campaign.job\""));
        assert!(text.contains("\"tid\":2"));
        // Metadata events label the tracks.
        assert!(text.contains("\"ph\":\"M\""));
        assert!(text.contains("lane 2"));
        assert!(text.contains("serve shard 3"));
        // Balanced braces/brackets — cheap structural sanity.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn attrs_are_escaped_into_args() {
        let mut s = span("q", 0, 0, 0, 0.001);
        s.attrs.push(("key".to_string(), "va\"lue".to_string()));
        s.attrs
            .push(("path".to_string(), "a\\b\u{1}c\td".to_string()));
        let text = chrome_trace(&place_spans(&report(vec![s])));
        assert!(
            text.contains(r#""args":{"key":"va\"lue","path":"a\\b\u0001c\td"}"#),
            "{text}"
        );
    }

    #[test]
    fn self_time_table_ranks_by_self_time() {
        let r = report(vec![
            span("small", 0, 0, 1, 0.001),
            span("wrapper", 0, 1, 0, 0.003), // self 2ms
            span("big", 0, 2, 0, 0.050),     // self 50ms
        ]);
        let table = self_time_table(&place_spans(&r), 2);
        let big_at = table.find("big").expect("big listed");
        let wrapper_at = table.find("wrapper").expect("wrapper listed");
        assert!(big_at < wrapper_at, "big ranks first:\n{table}");
        assert!(table.contains("top 2 of 3 phases"));
        assert!(table.contains("self%"));
    }
}
