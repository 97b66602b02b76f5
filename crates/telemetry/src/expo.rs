//! Prometheus text exposition.
//!
//! Renders counters and log-bucketed histograms in the [Prometheus text
//! format] (version 0.0.4) — the lingua franca every metrics scraper
//! speaks — without taking a dependency: the format is `# TYPE` comments
//! plus `name{labels} value` lines, well within hand-rolling range.
//!
//! Metric names arrive dotted (`serve.requests.accepted`); Prometheus
//! names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`, so every invalid
//! character maps to `_` (`serve_requests_accepted`).
//!
//! Mapping:
//!
//! - counters → `counter` series,
//! - [`LogHistogram`]s → `summary` series with pre-computed
//!   `quantile`-labeled estimates (0.5/0.9/0.99) plus `_sum`/`_count` —
//!   a summary rather than a histogram because ~2600 potential buckets
//!   per series is scrape bloat, and the whole point of the log-bucketed
//!   form is that its quantiles are already trustworthy,
//! - NaN observations (tracked out-of-band by the histogram) → a
//!   `<name>_nan_observations` counter, emitted only when nonzero.
//!
//! [Prometheus text format]: https://prometheus.io/docs/instrumenting/exposition_formats/
//!
//! # Example
//!
//! ```
//! use napel_telemetry::{LogHistogram, Telemetry};
//!
//! let t = Telemetry::enabled();
//! t.counter("demo.requests", 3);
//! let mut lat = LogHistogram::new();
//! lat.observe(0.004);
//! t.merge_log_histogram("demo.latency_seconds", &lat);
//! let text = t.drain().to_prometheus();
//! assert!(text.contains("# TYPE demo_requests counter"));
//! assert!(text.contains("demo_latency_seconds{quantile=\"0.99\"}"));
//! ```

use std::fmt::Write as _;

use crate::loghist::LogHistogram;
use crate::report::TelemetryReport;

/// The quantiles a [`LogHistogram`] exposes as a Prometheus summary.
pub const SUMMARY_QUANTILES: &[f64] = &[0.5, 0.9, 0.99];

/// Maps a dotted telemetry name onto the Prometheus name charset:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, every other character becoming `_` (with
/// a leading `_` prepended if the name would start with a digit).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Prometheus renders floats with `Display`-like shortest form and
/// spells the non-finite values `NaN`, `+Inf` and `-Inf`.
fn write_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        write!(out, "{v}").expect("writing to String cannot fail");
    }
}

fn nan_series(out: &mut String, name: &str, nan: u64) {
    if nan > 0 {
        let _ = writeln!(out, "# TYPE {name}_nan_observations counter");
        let _ = writeln!(out, "{name}_nan_observations {nan}");
    }
}

pub(crate) fn render_counter(out: &mut String, name: &str, value: u64) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

pub(crate) fn render_log_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    let name = sanitize_metric_name(name);
    let _ = writeln!(out, "# TYPE {name} summary");
    for &q in SUMMARY_QUANTILES {
        out.push_str(&name);
        let _ = write!(out, "{{quantile=\"{q}\"}} ");
        write_value(out, h.quantile(q));
        out.push('\n');
    }
    out.push_str(&name);
    out.push_str("_sum ");
    write_value(out, h.sum());
    out.push('\n');
    let _ = writeln!(out, "{name}_count {}", h.count());
    nan_series(out, &name, h.nan_count());
}

impl TelemetryReport {
    /// Renders every counter and histogram in this report as Prometheus
    /// text exposition (spans have no Prometheus analogue and are
    /// skipped). Series appear in name order within each kind: counters,
    /// then log-bucketed summaries.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            render_counter(&mut out, name, *value);
        }
        for (name, h) in &self.log_histograms {
            render_log_histogram(&mut out, name, h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_sanitize_onto_the_prometheus_charset() {
        assert_eq!(
            sanitize_metric_name("serve.requests.accepted"),
            "serve_requests_accepted"
        );
        assert_eq!(sanitize_metric_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn nan_observations_get_their_own_series_only_when_present() {
        let mut h = LogHistogram::new();
        h.observe(f64::NAN);
        let mut out = String::new();
        render_log_histogram(&mut out, "x", &h);
        assert!(out.contains("x_nan_observations 1"));
        assert!(out.contains("x_count 0"), "NaN stays out of _count");

        let clean = LogHistogram::new();
        let mut out = String::new();
        render_log_histogram(&mut out, "x", &clean);
        assert!(!out.contains("nan_observations"));
    }

    #[test]
    fn log_histogram_renders_as_a_summary() {
        let mut h = LogHistogram::new();
        for i in 1..=100 {
            h.observe(f64::from(i) * 0.001);
        }
        let mut out = String::new();
        render_log_histogram(&mut out, "serve.latency_seconds", &h);
        assert!(out.starts_with("# TYPE serve_latency_seconds summary\n"));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                out.contains(&format!("serve_latency_seconds{{quantile=\"{q}\"}} ")),
                "missing quantile {q}: {out}"
            );
        }
        assert!(out.contains("serve_latency_seconds_count 100"));
        assert!(out.contains("serve_latency_seconds_sum "));
    }

    #[test]
    fn exposition_never_emits_bare_nan_quantiles_on_empty() {
        let h = LogHistogram::new();
        let mut out = String::new();
        render_log_histogram(&mut out, "empty", &h);
        // Empty summaries report 0, not NaN — scrapers reject bare NaN
        // in some configurations and an empty series is not an error.
        assert!(out.contains("empty{quantile=\"0.5\"} 0"));
        assert!(out.contains("empty_count 0"));
    }
}
