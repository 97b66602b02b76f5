//! The drained telemetry report and its two sinks: the JSONL writer and
//! the human-readable summary table.

use std::fmt::Write as _;

use crate::event::SpanEvent;
use crate::json::{self, JsonValue};
use crate::loghist::LogHistogram;

/// Everything one [`Telemetry`](crate::Telemetry) handle recorded:
/// spans sorted by `(lane, seq)`, counters and histograms sorted by
/// name. Produced by [`Telemetry::drain`](crate::Telemetry::drain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Completed spans in deterministic `(lane, seq)` order.
    pub spans: Vec<SpanEvent>,
    /// `(name, value)` pairs in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, log-bucketed histogram)` pairs in name order.
    pub log_histograms: Vec<(String, LogHistogram)>,
}

impl TelemetryReport {
    /// Whether nothing was recorded (always true for a noop handle).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.log_histograms.is_empty()
    }

    /// The value of a counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Whether any span with this name was recorded.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|e| e.name == name)
    }

    /// A copy with every measurement zeroed: span `seconds` become `0.0`
    /// and histograms (whose *bucket counts* depend on measured values)
    /// are dropped. What remains — span names, lanes,
    /// sequence numbers, nesting, attributes, counters — is the
    /// deterministic skeleton, directly comparable across runs and
    /// executors with `assert_eq!`.
    pub fn without_timings(&self) -> TelemetryReport {
        TelemetryReport {
            spans: self
                .spans
                .iter()
                .map(|e| SpanEvent {
                    seconds: 0.0,
                    ..e.clone()
                })
                .collect(),
            counters: self.counters.clone(),
            log_histograms: Vec::new(),
        }
    }

    /// Renders the report as JSONL: one object per line, spans first
    /// (in `(lane, seq)` order), then counters, then log-bucketed
    /// histograms.
    ///
    /// Schema (one line each; `nan` appears only when nonzero):
    ///
    /// ```json
    /// {"type":"span","name":"campaign.job","lane":3,"seq":0,"depth":0,"parent":"x","seconds":0.001,"attrs":{"workload":"atax"}}
    /// {"type":"counter","name":"campaign.jobs.completed","value":54}
    /// {"type":"loghist","name":"ml.forest.tree_build_seconds","buckets":[[1510,3],[1600,1]],"below":0,"sum":0.013}
    /// ```
    ///
    /// `loghist` bucket entries are sparse `[bucket_index, count]` pairs
    /// in the fixed [`LogHistogram`] layout.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span.to_json());
            out.push('\n');
        }
        for (name, value) in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            json::write_string(&mut out, name);
            write!(out, ",\"value\":{value}}}").expect("writing to String cannot fail");
            out.push('\n');
        }
        for (name, h) in &self.log_histograms {
            out.push_str("{\"type\":\"loghist\",\"name\":");
            json::write_string(&mut out, name);
            out.push_str(",\"buckets\":[");
            for (i, (index, count)) in h.sparse_counts().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "[{index},{count}]").expect("writing to String cannot fail");
            }
            write!(out, "],\"below\":{}", h.below_count()).expect("writing to String cannot fail");
            if h.nan_count() > 0 {
                write!(out, ",\"nan\":{}", h.nan_count()).expect("writing to String cannot fail");
            }
            out.push_str(",\"sum\":");
            json::write_f64(&mut out, h.sum());
            out.push_str("}\n");
        }
        out
    }

    /// Parses a JSONL document produced by [`TelemetryReport::to_jsonl`].
    /// Blank lines are skipped; unknown `type`s are errors (the schema is
    /// closed).
    ///
    /// # Errors
    ///
    /// A message naming the offending line (1-based) and problem.
    pub fn from_jsonl(text: &str) -> Result<TelemetryReport, String> {
        let mut report = TelemetryReport::default();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let lineno = idx + 1;
            let fields = json::parse_object(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let kind =
                json::get_string(&fields, "type").map_err(|e| format!("line {lineno}: {e}"))?;
            match kind.as_str() {
                "span" => {
                    let span = SpanEvent::from_fields(&fields)
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    report.spans.push(span);
                }
                "counter" => {
                    let name = json::get_string(&fields, "name")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let value = json::get_u64(&fields, "value")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    report.counters.push((name, value));
                }
                "loghist" => {
                    let name = json::get_string(&fields, "name")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let buckets = decode_array(&fields, "buckets", |v| match v {
                        JsonValue::Array(pair) => match pair.as_slice() {
                            [i, c] => Some((i.as_u64()?, c.as_u64()?)),
                            _ => None,
                        },
                        _ => None,
                    })
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                    let below = json::get_u64(&fields, "below")
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    let nan = optional_u64(&fields, "nan", lineno)?;
                    let sum =
                        json::get_f64(&fields, "sum").map_err(|e| format!("line {lineno}: {e}"))?;
                    let h = LogHistogram::from_sparse(&buckets, below, nan, sum)
                        .map_err(|e| format!("line {lineno}: {e}"))?;
                    report.log_histograms.push((name, h));
                }
                other => return Err(format!("line {lineno}: unknown type `{other}`")),
            }
        }
        Ok(report)
    }

    /// Renders the end-of-run summary: a phase-time breakdown (per span
    /// name: call count, total and mean wall-clock, sorted by total
    /// descending), the counters (sorted by value descending), and one
    /// quantile row per histogram.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry: nothing recorded\n");
            return out;
        }

        // Aggregate spans by name.
        let mut phases: Vec<(String, u64, f64)> = Vec::new();
        for span in &self.spans {
            match phases.iter_mut().find(|(n, _, _)| *n == span.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += span.seconds;
                }
                None => phases.push((span.name.clone(), 1, span.seconds)),
            }
        }
        phases.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));

        if !phases.is_empty() {
            out.push_str("phase-time breakdown\n");
            let mut rows = vec![vec![
                "phase".to_string(),
                "count".to_string(),
                "total s".to_string(),
                "mean s".to_string(),
            ]];
            for (name, count, total) in &phases {
                rows.push(vec![
                    name.clone(),
                    count.to_string(),
                    format!("{total:.6}"),
                    format!("{:.6}", total / *count as f64),
                ]);
            }
            render_aligned(&mut out, &rows);
        }

        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let mut sorted: Vec<&(String, u64)> = self.counters.iter().collect();
            sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let rows: Vec<Vec<String>> = sorted
                .iter()
                .map(|(n, v)| vec![n.clone(), v.to_string()])
                .collect();
            render_aligned(&mut out, &rows);
        }

        if !self.log_histograms.is_empty() {
            out.push_str("quantile summaries\n");
            let mut rows = vec![vec![
                "metric".to_string(),
                "count".to_string(),
                "p50".to_string(),
                "p99".to_string(),
                "mean".to_string(),
            ]];
            for (name, h) in &self.log_histograms {
                let mut row = vec![
                    name.clone(),
                    h.count().to_string(),
                    format!("{:.6}", h.quantile(0.5)),
                    format!("{:.6}", h.quantile(0.99)),
                    format!("{:.6}", h.mean()),
                ];
                if h.nan_count() > 0 {
                    row.push(format!("nan={}", h.nan_count()));
                }
                rows.push(row);
            }
            render_aligned(&mut out, &rows);
        }
        out
    }
}

/// Reads a `u64` field that the writer omits when zero.
fn optional_u64(fields: &[(String, JsonValue)], key: &str, lineno: usize) -> Result<u64, String> {
    match json::get(fields, key) {
        None => Ok(0),
        Some(_) => json::get_u64(fields, key).map_err(|e| format!("line {lineno}: {e}")),
    }
}

fn decode_array<T>(
    fields: &[(String, JsonValue)],
    key: &str,
    decode: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Vec<T>, String> {
    match json::get(fields, key) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|v| decode(v).ok_or_else(|| format!("bad element in `{key}`")))
            .collect(),
        _ => Err(format!("missing or non-array field `{key}`")),
    }
}

/// Left-aligns the first column and right-aligns the rest, two-space
/// gutters, two-space indent.
fn render_aligned(out: &mut String, rows: &[Vec<String>]) {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for row in rows {
        out.push_str("  ");
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                write!(out, "{cell:<width$}", width = widths[i]).expect("write to String");
            } else {
                write!(out, "{cell:>width$}", width = widths[i]).expect("write to String");
            }
        }
        // Trim the padding after the last cell of short rows.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample() -> TelemetryReport {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("phase.outer").attr("workload", "atax");
            let _inner = t.span("phase.inner").attr("quote", "a\"b").attr("index", 7);
        }
        t.counter("c.hits", 41);
        t.counter("c.misses", 1);
        let mut lat = LogHistogram::new();
        lat.observe(0.003);
        lat.observe(0.004);
        lat.observe(0.0);
        t.merge_log_histogram("lh.latency", &lat);
        t.drain()
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample();
        let text = report.to_jsonl();
        let back = TelemetryReport::from_jsonl(&text).expect("parses");
        assert_eq!(back, report);
        // And the encoding itself is stable under a second trip.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn jsonl_schema_fields_are_present() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"type\":\"span\",\"name\":\"phase.outer\""));
        assert!(lines[0].contains("\"lane\":0"));
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"attrs\":{\"workload\":\"atax\"}"));
        assert!(!lines[0].contains("\"parent\""), "root span has no parent");
        assert!(lines[1].contains("\"parent\":\"phase.outer\""));
        assert!(lines[1].contains("\"attrs\":{\"quote\":\"a\\\"b\",\"index\":\"7\"}"));
        assert!(lines[2].contains("\"type\":\"counter\""));
        assert!(lines[4].starts_with("{\"type\":\"loghist\",\"name\":\"lh.latency\""));
        assert!(lines[4].contains("\"below\":1"));
        assert!(lines[4].contains("\"sum\":0.00"));
        assert!(!lines[4].contains("\"nan\""), "nan omitted when zero");
        assert!(lines[4].contains("\"buckets\":[["));
    }

    #[test]
    fn loghist_nan_field_round_trips_through_jsonl() {
        let t = Telemetry::enabled();
        let mut h = LogHistogram::new();
        h.observe(f64::NAN);
        h.observe(0.5);
        t.merge_log_histogram("h.bad", &h);
        let report = t.drain();
        let text = report.to_jsonl();
        assert!(text.contains("\"nan\":1"), "nonzero nan is serialized");
        let back = TelemetryReport::from_jsonl(&text).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.log_histograms[0].1.nan_count(), 1);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(TelemetryReport::from_jsonl("not json\n").is_err());
        assert!(TelemetryReport::from_jsonl("{\"type\":\"mystery\"}\n").is_err());
        // The schema is closed: `histogram` is not one of its record types.
        let err = TelemetryReport::from_jsonl(
            "{\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[1.0],\"counts\":[2,0]}\n",
        )
        .expect_err("histogram lines are refused");
        assert!(err.contains("unknown type `histogram`"), "{err}");
        assert!(
            TelemetryReport::from_jsonl("{\"type\":\"counter\",\"name\":\"x\"}\n").is_err(),
            "counter without value"
        );
        let err = TelemetryReport::from_jsonl("{\"type\":\"span\",\"name\":\"x\"}\n")
            .expect_err("span missing fields");
        assert!(err.starts_with("line 1:"), "errors name the line: {err}");
    }

    #[test]
    fn without_timings_is_deterministic_skeleton() {
        let a = sample().without_timings();
        let b = sample().without_timings();
        assert_eq!(a, b);
        assert!(a.spans.iter().all(|e| e.seconds == 0.0));
        assert!(a.log_histograms.is_empty());
        assert_eq!(a.counter("c.hits"), Some(41));
    }

    #[test]
    fn summary_lists_phases_and_counters() {
        let s = sample().summary();
        assert!(s.contains("phase-time breakdown"));
        assert!(s.contains("phase.outer"));
        assert!(s.contains("phase.inner"));
        assert!(s.contains("counters"));
        assert!(s.contains("c.hits"));
        assert!(s.contains("41"));
        assert!(s.contains("quantile summaries"));
        assert!(s.contains("lh.latency"));
        let empty = TelemetryReport::default().summary();
        assert!(empty.contains("nothing recorded"));
    }
}
