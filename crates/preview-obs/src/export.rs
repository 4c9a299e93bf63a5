//! Exporters: Prometheus text exposition and the `obs-top` one-shot
//! textual dashboard, both rendered from an [`ObsSnapshot`].
//!
//! The Prometheus format follows text exposition 0.0.4: `# HELP`/`# TYPE`
//! headers, histograms as cumulative `_bucket{le="..."}` series plus
//! `_sum`/`_count`, and strictly bounded label cardinality — the only
//! labels ever emitted are the stage name, the counter name, the SLO name,
//! and the per-route `graph`/`algorithm` pair the serving layer already
//! bounds. [`parse_prometheus_text`] is a minimal line-format reader used
//! by [`roundtrip_failures`] (and the exporter proptests) to prove the
//! rendered text re-parses numerically equal to the source snapshot.

use crate::histogram::{bucket_lower, HistogramSnapshot, BUCKETS};
use crate::snapshot::ObsSnapshot;

/// Escapes a label value per the Prometheus text format (backslash,
/// double quote, and newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The cumulative `(le, count)` bucket series for one histogram: inclusive
/// integer upper bounds for every non-empty bucket (the bucketing is exact
/// on integers, so `le = next_lower - 1` loses nothing), with the top
/// bucket folded into the mandatory `+Inf` entry.
fn cumulative_buckets(hist: &HistogramSnapshot) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut cumulative = 0u64;
    for (index, &count) in hist.bucket_counts().iter().enumerate() {
        cumulative += count;
        if count > 0 && index + 1 < BUCKETS {
            out.push(((bucket_lower(index + 1) - 1).to_string(), cumulative));
        }
    }
    out.push(("+Inf".to_string(), cumulative));
    out
}

fn render_histogram_series(out: &mut String, name: &str, labels: &str, hist: &HistogramSnapshot) {
    let extra = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    for (le, cumulative) in cumulative_buckets(hist) {
        out.push_str(&format!(
            "{name}_bucket{{{extra}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", hist.sum()));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", hist.count()));
}

/// Renders the snapshot in Prometheus text-exposition format.
///
/// Emitted families: `preview_counter_total`, `preview_stage_duration_us`
/// (histogram per stage with recorded spans), `preview_request_latency_us`
/// (histogram, when the serving layer supplied one),
/// `preview_requests_total` (per `graph`/`algorithm` route),
/// `preview_peak_rss_bytes`, `preview_window_rate_per_s`, and per-SLO
/// `preview_slo_burn_rate{window="fast"|"slow"}` /
/// `preview_slo_observed_quantile_us` gauges.
pub fn render_prometheus(snapshot: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(8192);

    out.push_str("# HELP preview_counter_total Cumulative event counters.\n");
    out.push_str("# TYPE preview_counter_total counter\n");
    for (counter, value) in &snapshot.counters {
        out.push_str(&format!(
            "preview_counter_total{{counter=\"{}\"}} {value}\n",
            counter.name()
        ));
    }

    out.push_str(
        "# HELP preview_stage_duration_us Span durations per pipeline stage, microseconds.\n",
    );
    out.push_str("# TYPE preview_stage_duration_us histogram\n");
    for (stage, hist) in &snapshot.stages {
        if hist.count() == 0 {
            continue;
        }
        let labels = format!("stage=\"{}\"", stage.name());
        render_histogram_series(&mut out, "preview_stage_duration_us", &labels, hist);
    }

    if let Some(latency) = &snapshot.service_latency {
        out.push_str(
            "# HELP preview_request_latency_us End-to-end request latency, microseconds.\n",
        );
        out.push_str("# TYPE preview_request_latency_us histogram\n");
        render_histogram_series(&mut out, "preview_request_latency_us", "", latency);
    }

    if !snapshot.routes.is_empty() {
        out.push_str("# HELP preview_requests_total Requests completed per graph and algorithm.\n");
        out.push_str("# TYPE preview_requests_total counter\n");
        for route in &snapshot.routes {
            out.push_str(&format!(
                "preview_requests_total{{graph=\"{}\",algorithm=\"{}\"}} {}\n",
                escape_label(&route.graph),
                escape_label(&route.algorithm),
                route.requests
            ));
        }
    }

    if let Some(bytes) = snapshot.peak_rss_bytes {
        out.push_str("# HELP preview_peak_rss_bytes Peak resident set size of the process.\n");
        out.push_str("# TYPE preview_peak_rss_bytes gauge\n");
        out.push_str(&format!("preview_peak_rss_bytes {bytes}\n"));
    }

    if let Some(window) = &snapshot.window {
        out.push_str("# HELP preview_window_rate_per_s Request rate over the metrics window.\n");
        out.push_str("# TYPE preview_window_rate_per_s gauge\n");
        out.push_str(&format!(
            "preview_window_rate_per_s {}\n",
            window.rate_per_s
        ));
    }

    if !snapshot.slos.is_empty() {
        out.push_str("# HELP preview_slo_burn_rate Error-budget burn rate per SLO and window.\n");
        out.push_str("# TYPE preview_slo_burn_rate gauge\n");
        for slo in &snapshot.slos {
            let name = escape_label(&slo.name);
            out.push_str(&format!(
                "preview_slo_burn_rate{{slo=\"{name}\",window=\"fast\"}} {}\n",
                slo.fast_burn
            ));
            out.push_str(&format!(
                "preview_slo_burn_rate{{slo=\"{name}\",window=\"slow\"}} {}\n",
                slo.slow_burn
            ));
        }
        out.push_str(
            "# HELP preview_slo_observed_quantile_us Observed SLO quantile, microseconds.\n",
        );
        out.push_str("# TYPE preview_slo_observed_quantile_us gauge\n");
        for slo in &snapshot.slos {
            out.push_str(&format!(
                "preview_slo_observed_quantile_us{{slo=\"{}\"}} {}\n",
                escape_label(&slo.name),
                slo.observed_quantile_us
            ));
        }
    }

    out
}

/// One sample parsed back from Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in emission order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A minimal Prometheus text-format reader: skips comments and blank
/// lines, parses `name{labels} value` samples, and unescapes label values
/// (which may contain `{`, `}`, `,`, and escaped quotes). Rejects
/// malformed lines with a positioned error.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut chars = line.chars().peekable();
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '{' || c == ' ' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if name.is_empty() {
            return Err(format!("line {line_no}: missing metric name"));
        }
        let mut labels = Vec::new();
        if chars.peek() == Some(&'{') {
            chars.next();
            if chars.peek() == Some(&'}') {
                chars.next();
            } else {
                loop {
                    let mut key = String::new();
                    while let Some(&c) = chars.peek() {
                        if c == '=' {
                            break;
                        }
                        key.push(c);
                        chars.next();
                    }
                    if chars.next() != Some('=') {
                        return Err(format!("line {line_no}: label without '='"));
                    }
                    if chars.next() != Some('"') {
                        return Err(format!("line {line_no}: label value must be quoted"));
                    }
                    let mut value = String::new();
                    loop {
                        match chars.next() {
                            Some('\\') => match chars.next() {
                                Some('\\') => value.push('\\'),
                                Some('"') => value.push('"'),
                                Some('n') => value.push('\n'),
                                other => {
                                    return Err(format!("line {line_no}: bad escape {other:?}"))
                                }
                            },
                            Some('"') => break,
                            Some(c) => value.push(c),
                            None => {
                                return Err(format!("line {line_no}: unterminated label value"))
                            }
                        }
                    }
                    labels.push((key.trim().to_string(), value));
                    match chars.next() {
                        Some(',') => continue,
                        Some('}') => break,
                        other => {
                            return Err(format!("line {line_no}: unexpected {other:?} after label"))
                        }
                    }
                }
            }
        }
        let value_text: String = chars.collect();
        let value_text = value_text.trim();
        let value: f64 = value_text
            .parse()
            .map_err(|_| format!("line {line_no}: bad value '{value_text}'"))?;
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

fn find_sample<'a>(
    samples: &'a [PromSample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a PromSample> {
    samples.iter().find(|sample| {
        sample.name == name
            && labels.len() == sample.labels.len()
            && labels.iter().all(|&(k, v)| sample.label(k) == Some(v))
    })
}

fn check_histogram(
    failures: &mut Vec<String>,
    samples: &[PromSample],
    name: &str,
    labels: &[(&str, &str)],
    hist: &HistogramSnapshot,
) {
    let bucket_name = format!("{name}_bucket");
    let mut previous = 0.0f64;
    for (le, cumulative) in cumulative_buckets(hist) {
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", &le));
        match find_sample(samples, &bucket_name, &with_le) {
            Some(sample) => {
                if sample.value != cumulative as f64 {
                    failures.push(format!(
                        "{bucket_name}{labels:?} le={le}: parsed {} != snapshot {cumulative}",
                        sample.value
                    ));
                }
                if sample.value < previous {
                    failures.push(format!(
                        "{bucket_name}{labels:?} le={le}: cumulative buckets not monotone"
                    ));
                }
                previous = sample.value;
            }
            None => failures.push(format!("{bucket_name}{labels:?} le={le}: sample missing")),
        }
    }
    for (suffix, expected) in [("_sum", hist.sum()), ("_count", hist.count())] {
        let series = format!("{name}{suffix}");
        match find_sample(samples, &series, labels) {
            Some(sample) if sample.value == expected as f64 => {}
            Some(sample) => failures.push(format!(
                "{series}{labels:?}: parsed {} != snapshot {expected}",
                sample.value
            )),
            None => failures.push(format!("{series}{labels:?}: sample missing")),
        }
    }
}

/// Renders the snapshot to Prometheus text, re-parses it, and compares
/// every sample numerically against the source snapshot — counters,
/// cumulative bucket series (including monotonicity), sums and counts,
/// routes, peak RSS, and SLO gauges. Returns human-readable mismatch
/// descriptions; empty means the export round-trips exactly. Shared by the
/// exporter proptests and `obs-bench --check`.
pub fn roundtrip_failures(snapshot: &ObsSnapshot) -> Vec<String> {
    let text = render_prometheus(snapshot);
    let samples = match parse_prometheus_text(&text) {
        Ok(samples) => samples,
        Err(error) => return vec![format!("export did not re-parse: {error}")],
    };
    let mut failures = Vec::new();

    for &(counter, value) in &snapshot.counters {
        let labels = [("counter", counter.name())];
        match find_sample(&samples, "preview_counter_total", &labels) {
            Some(sample) if sample.value == value as f64 => {}
            Some(sample) => failures.push(format!(
                "counter {}: parsed {} != snapshot {value}",
                counter.name(),
                sample.value
            )),
            None => failures.push(format!("counter {}: sample missing", counter.name())),
        }
    }

    for (stage, hist) in &snapshot.stages {
        if hist.count() == 0 {
            continue;
        }
        check_histogram(
            &mut failures,
            &samples,
            "preview_stage_duration_us",
            &[("stage", stage.name())],
            hist,
        );
    }

    if let Some(latency) = &snapshot.service_latency {
        check_histogram(
            &mut failures,
            &samples,
            "preview_request_latency_us",
            &[],
            latency,
        );
    }

    for route in &snapshot.routes {
        let labels = [
            ("graph", route.graph.as_str()),
            ("algorithm", route.algorithm.as_str()),
        ];
        match find_sample(&samples, "preview_requests_total", &labels) {
            Some(sample) if sample.value == route.requests as f64 => {}
            Some(sample) => failures.push(format!(
                "route {}/{}: parsed {} != snapshot {}",
                route.graph, route.algorithm, sample.value, route.requests
            )),
            None => failures.push(format!(
                "route {}/{}: sample missing",
                route.graph, route.algorithm
            )),
        }
    }

    if let Some(bytes) = snapshot.peak_rss_bytes {
        match find_sample(&samples, "preview_peak_rss_bytes", &[]) {
            Some(sample) if sample.value == bytes as f64 => {}
            _ => failures.push("peak_rss_bytes missing or mismatched".to_string()),
        }
    }

    for slo in &snapshot.slos {
        for (window, expected) in [("fast", slo.fast_burn), ("slow", slo.slow_burn)] {
            let labels = [("slo", slo.name.as_str()), ("window", window)];
            match find_sample(&samples, "preview_slo_burn_rate", &labels) {
                Some(sample) if sample.value == expected => {}
                _ => failures.push(format!(
                    "slo {} {window} burn missing or mismatched",
                    slo.name
                )),
            }
        }
    }

    failures
}

/// Renders a one-shot `obs-top` textual dashboard: request and per-stage
/// latency table, non-zero counters, window rates, SLO burn lines, and the
/// retained trace trees. This is the `--top` output of `obs-bench`.
pub fn render_top(snapshot: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "preview obs-top  enabled={}  events={}\n\n",
        snapshot.enabled, snapshot.events_recorded
    ));
    out.push_str(&format!(
        "{:<18} {:>9} {:>10} {:>10} {:>10}\n",
        "STAGE", "COUNT", "P50_US", "P99_US", "MAX_US"
    ));
    // The service's request-latency histogram leads the table as `request`
    // (trace roots feed no stage histogram).
    let rows = snapshot
        .service_latency
        .iter()
        .map(|hist| ("request", hist))
        .chain(
            snapshot
                .stages
                .iter()
                .map(|(stage, hist)| (stage.name(), hist)),
        );
    for (name, hist) in rows {
        if hist.count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<18} {:>9} {:>10} {:>10} {:>10}\n",
            name,
            hist.count(),
            hist.quantile(0.5),
            hist.quantile(0.99),
            hist.max()
        ));
    }

    let live: Vec<String> = snapshot
        .counters
        .iter()
        .filter(|&&(_, value)| value > 0)
        .map(|(counter, value)| format!("{}={value}", counter.name()))
        .collect();
    if !live.is_empty() {
        out.push_str(&format!("\ncounters: {}\n", live.join(" ")));
    }

    if let Some(window) = &snapshot.window {
        out.push_str(&format!(
            "\nwindow: ticks={} requests={} rate={:.1}/s p50={}us p99={}us\n",
            window.ticks,
            window.requests,
            window.rate_per_s,
            window.quantile(0.5),
            window.quantile(0.99)
        ));
    }

    for slo in &snapshot.slos {
        out.push_str(&format!(
            "slo {}: observed={}us threshold={}us fast_burn={:.2} slow_burn={:.2} [{}]\n",
            slo.name,
            slo.observed_quantile_us,
            slo.threshold_us,
            slo.fast_burn,
            slo.slow_burn,
            if slo.breached { "BREACH" } else { "ok" }
        ));
    }

    out.push_str(&format!("\ntraces retained: {}\n", snapshot.traces.len()));
    for tree in &snapshot.traces {
        let reasons: Vec<&str> = tree.reasons.iter().map(|r| r.name()).collect();
        let total = tree.root().map(|root| root.duration_us).unwrap_or(0);
        out.push_str(&format!(
            "  {} [{}] spans={} total={}us {}\n",
            tree.trace,
            reasons.join("+"),
            tree.spans.len(),
            total,
            tree.detail
        ));
    }
    out
}

/// Convenience: true when every counter the snapshot carries is zero and
/// no stage recorded anything (used by `obs-top` callers to warn when the
/// recorder was never enabled).
pub fn snapshot_is_blank(snapshot: &ObsSnapshot) -> bool {
    snapshot.counters.iter().all(|&(_, value)| value == 0)
        && snapshot.stages.iter().all(|(_, hist)| hist.count() == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsConfig, Recorder};
    use crate::snapshot::RouteCount;
    use crate::stage::{Counter, Stage};

    fn snapshot_with_data() -> ObsSnapshot {
        let recorder = Recorder::new(ObsConfig::default());
        recorder.record_span(Stage::Discovery, 1, 10, 250, 3);
        recorder.record_span(Stage::QueueWait, 1, 0, 1_000, 0);
        recorder.add_counter(Counter::Publishes, 2);
        let mut snapshot = recorder.snapshot();
        let latency = crate::Histogram::new();
        latency.record(120);
        latency.record(80_000);
        snapshot.service_latency = Some(latency.snapshot());
        snapshot.routes = vec![RouteCount {
            graph: "fig\"1\\n".to_string(),
            algorithm: "dynamic-programming".to_string(),
            requests: 2,
        }];
        snapshot
    }

    #[test]
    fn export_roundtrips_numerically() {
        let snapshot = snapshot_with_data();
        assert_eq!(roundtrip_failures(&snapshot), Vec::<String>::new());
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let snapshot = snapshot_with_data();
        let text = render_prometheus(&snapshot);
        assert!(text.contains("graph=\"fig\\\"1\\\\n\""));
        let samples = parse_prometheus_text(&text).unwrap();
        let route = samples
            .iter()
            .find(|s| s.name == "preview_requests_total")
            .unwrap();
        assert_eq!(route.label("graph"), Some("fig\"1\\n"));
    }

    #[test]
    fn empty_stages_are_omitted_and_inf_bucket_always_present() {
        let snapshot = snapshot_with_data();
        let text = render_prometheus(&snapshot);
        assert!(!text.contains("stage=\"publish\""));
        assert!(text.contains("stage=\"discovery\",le=\"+Inf\""));
        assert!(text.contains("# TYPE preview_stage_duration_us histogram"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("metric{oops} 1").is_err());
        assert!(parse_prometheus_text("metric{a=\"b} 1").is_err());
        assert!(parse_prometheus_text("metric notanumber").is_err());
        assert!(parse_prometheus_text("# just a comment\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn top_renders_stages_and_traces() {
        let snapshot = snapshot_with_data();
        let top = render_top(&snapshot);
        assert!(top.contains("STAGE"));
        // The service latency histogram is the `request` row.
        assert!(top.lines().any(
            |line| line.starts_with("request ") && line.split_whitespace().nth(1) == Some("2")
        ));
        assert!(top.contains("discovery"));
        assert!(top.contains("counters: publishes=2"));
        assert!(top.contains("traces retained: 0"));
        assert!(!snapshot_is_blank(&snapshot));
        assert!(snapshot_is_blank(&Recorder::default().snapshot()));
    }
}
