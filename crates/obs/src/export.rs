//! Text exporters over metric snapshots and SLO burn rows.
//!
//! Two formats, both deterministic byte-for-byte given the same
//! readings (inputs arrive pre-sorted from
//! [`MetricsRegistry::snapshot`](crate::metrics::MetricsRegistry::snapshot)
//! and [`SloBank::burn_rates`](crate::slo::SloBank::burn_rates)):
//!
//! * [`exposition`] — Prometheus-style text: `# TYPE` headers,
//!   `name{tenant="…"} value` samples, histograms rendered as
//!   summaries with `quantile` labels plus `_sum`/`_count`;
//! * the folded-stack trace format lives on
//!   [`Tracer::folded_text`](crate::span::Tracer::folded_text).

use crate::hist::STANDARD_QUANTILES;
use crate::metrics::{MetricSnapshot, MetricValue};
use crate::slo::BurnRow;
use std::fmt::Write as _;

fn fmt_f64(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

fn sample_name(name: &str, tenant: Option<u64>, extra_label: Option<(&str, &str)>) -> String {
    let mut labels = Vec::new();
    if let Some(tenant) = tenant {
        labels.push(format!("tenant=\"{tenant}\""));
    }
    if let Some((key, value)) = extra_label {
        labels.push(format!("{key}=\"{value}\""));
    }
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", labels.join(","))
    }
}

/// Renders snapshot rows as Prometheus-style text exposition. Rows
/// must already be in snapshot order (name, then tenant); a `# TYPE`
/// header is emitted once per metric name.
pub fn exposition(rows: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for row in rows {
        let kind = match row.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "summary",
        };
        if last_name != Some(row.name) {
            let _ = writeln!(out, "# TYPE {} {kind}", row.name);
            last_name = Some(row.name);
        }
        match &row.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{} {v}", sample_name(row.name, row.tenant, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{} {}",
                    sample_name(row.name, row.tenant, None),
                    fmt_f64(*v)
                );
            }
            MetricValue::Histogram(snap) => {
                for (i, q) in STANDARD_QUANTILES.iter().enumerate() {
                    let value = snap.quantiles[i].map_or("NaN".to_string(), fmt_f64);
                    let q_label = format!("{q}");
                    let _ = writeln!(
                        out,
                        "{} {value}",
                        sample_name(row.name, row.tenant, Some(("quantile", &q_label)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    row.name,
                    tenant_suffix(row.tenant),
                    fmt_f64(snap.sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    row.name,
                    tenant_suffix(row.tenant),
                    snap.count
                );
            }
        }
    }
    out
}

fn tenant_suffix(tenant: Option<u64>) -> String {
    match tenant {
        Some(t) => format!("{{tenant=\"{t}\"}}"),
        None => String::new(),
    }
}

/// Renders SLO burn rows as exposition gauges
/// (`slo_burn_rate{tenant="…",objective="…"}`).
pub fn burn_exposition(rows: &[BurnRow]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str("# TYPE slo_burn_rate gauge\n");
    for row in rows {
        let _ = writeln!(
            out,
            "slo_burn_rate{{tenant=\"{}\",objective=\"{}\"}} {}",
            row.tenant,
            row.objective,
            fmt_f64(row.burn)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, Scope};
    use antarex_monitor::sla::SlaReport;

    fn registry_with_rows() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("export-test_requests_total", Scope::Invariant)
            .add(7);
        reg.tenant_counter("export-test_requests_total", Some(3), Scope::Invariant)
            .add(2);
        reg.gauge("export-test_budget_watts", Scope::Invariant)
            .set(120.5);
        let hist = reg.histogram("export-test_latency_seconds", Scope::Timing);
        for i in 1..=100 {
            hist.record(i as f64 * 1e-3);
        }
        reg
    }

    #[test]
    fn exposition_emits_type_headers_once_per_name() {
        let reg = registry_with_rows();
        let text = exposition(&reg.snapshot(None));
        assert_eq!(
            text.matches("# TYPE export-test_requests_total counter")
                .count(),
            1,
            "shared name gets one header:\n{text}"
        );
        assert!(text.contains("export-test_requests_total 7"));
        assert!(text.contains("export-test_requests_total{tenant=\"3\"} 2"));
        assert!(text.contains("export-test_budget_watts 120.5"));
        assert!(text.contains("export-test_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("export-test_latency_seconds_count 100"));
    }

    #[test]
    fn exposition_is_deterministic() {
        let reg = registry_with_rows();
        let a = exposition(&reg.snapshot(None));
        let b = exposition(&reg.snapshot(None));
        assert_eq!(a, b);
    }

    #[test]
    fn burn_exposition_renders_rows() {
        let rows = vec![BurnRow {
            tenant: 4,
            objective: "latency".to_string(),
            report: SlaReport {
                checked: 10,
                violations: 1,
            },
            burn: 2.5,
        }];
        let text = burn_exposition(&rows);
        assert!(text.contains("slo_burn_rate{tenant=\"4\",objective=\"latency\"} 2.5"));
        assert_eq!(burn_exposition(&[]), "");
    }
}
