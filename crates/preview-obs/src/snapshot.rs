//! [`ObsSnapshot`]: a unified, JSON-renderable view of everything a
//! [`Recorder`] collected, plus the memory and peak-RSS context supplied by
//! the serving layer.
//!
//! The JSON schema is stable and self-describing: every stage in
//! [`Stage::ALL`] and every counter in [`Counter::ALL`] appears under its
//! [`name`](Stage::name), so `obs-bench --check` can verify the document by
//! enumeration. All durations are microseconds.

use crate::histogram::{bucket_lower, HistogramSnapshot};
use crate::json::{write_json_f64, write_json_string};
use crate::recorder::Recorder;
use crate::slo::SloStatus;
use crate::stage::{Counter, Stage};
use crate::timeseries::WindowSummary;
use crate::trace::{TraceId, TraceTree};

/// Memory accounting for one shard, mirrored from the graph layer's
/// per-shard report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMemory {
    /// Shard index.
    pub shard: u64,
    /// Entities homed in this shard.
    pub entities: u64,
    /// Encoded adjacency segments stored.
    pub segments: u64,
    /// Bytes of encoded adjacency payload.
    pub encoded_payload_bytes: u64,
    /// Bytes of per-shard directory overhead.
    pub directory_bytes: u64,
    /// Total bytes attributed to this shard.
    pub total_bytes: u64,
}

/// Memory accounting for a sharded graph version, mirrored from the graph
/// layer's `MemoryReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySection {
    /// Number of shards.
    pub shard_count: u64,
    /// Total entities across shards.
    pub entities: u64,
    /// Total edges across shards.
    pub edges: u64,
    /// Total bytes of the sharded representation.
    pub sharded_total_bytes: u64,
    /// Total bytes the equivalent unsharded index would use.
    pub unsharded_total_bytes: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardMemory>,
}

/// Requests served for one `(graph, algorithm)` route — the bounded label
/// set the Prometheus exporter is allowed to emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteCount {
    /// The requested graph's name.
    pub graph: String,
    /// The resolved algorithm's stable name.
    pub algorithm: String,
    /// Requests completed for this route.
    pub requests: u64,
}

/// A point-in-time export of a [`Recorder`] plus serving-layer context.
///
/// Produced by [`Recorder::snapshot`]; the serving layer fills in
/// [`service_latency`](Self::service_latency), [`memory`](Self::memory),
/// [`routes`](Self::routes), [`window`](Self::window), and
/// [`slos`](Self::slos) before rendering.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Whether the recorder was enabled at snapshot time.
    pub enabled: bool,
    /// Total span events ever pushed into the flight ring.
    pub events_recorded: u64,
    /// Every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
    /// Every stage's duration histogram, in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// End-to-end service latency histogram, when the serving layer
    /// provides one (exact counts, not sampled).
    pub service_latency: Option<HistogramSnapshot>,
    /// Memory breakdown of the live graph version, when available.
    pub memory: Option<MemorySection>,
    /// Peak resident set size of the process, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Retained trace trees, oldest first; slow and panicked trees carry
    /// the flight ring.
    pub traces: Vec<TraceTree>,
    /// Per-route request totals, when the serving layer provides them.
    pub routes: Vec<RouteCount>,
    /// Sliding-window rates and quantiles, when a time series is running.
    pub window: Option<WindowSummary>,
    /// Evaluated SLO statuses, when the serving layer registered specs.
    pub slos: Vec<SloStatus>,
}

impl Recorder {
    /// Exports counters, per-stage histograms, ring totals, retained trace
    /// trees, and the current peak RSS. The serving layer adds
    /// [`ObsSnapshot::service_latency`] and [`ObsSnapshot::memory`].
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            enabled: self.is_enabled(),
            events_recorded: self.events_recorded(),
            counters: Counter::ALL.iter().map(|&c| (c, self.counter(c))).collect(),
            stages: Stage::ALL
                .iter()
                .map(|&s| (s, self.stage_histogram(s).snapshot()))
                .collect(),
            service_latency: None,
            memory: None,
            peak_rss_bytes: crate::peak_rss_bytes(),
            traces: self.traces().trees(),
            routes: Vec::new(),
            window: None,
            slos: Vec::new(),
        }
    }
}

fn write_histogram(out: &mut String, hist: &HistogramSnapshot) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"mean_us\":",
        hist.count(),
        hist.sum(),
        hist.max()
    ));
    write_json_f64(out, hist.mean());
    out.push_str(&format!(
        ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"p999_us\":{},\"exemplars\":[",
        hist.quantile(0.50),
        hist.quantile(0.90),
        hist.quantile(0.99),
        hist.quantile(0.999)
    ));
    let mut first = true;
    for (index, &exemplar) in hist.bucket_exemplars().iter().enumerate() {
        let Some(trace) = TraceId::from_raw(exemplar) else {
            continue;
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"bucket_lower_us\":{},\"trace\":\"{trace}\"}}",
            bucket_lower(index)
        ));
    }
    out.push_str("]}");
}

impl ObsSnapshot {
    /// Renders the snapshot as one JSON object (see the module docs for the
    /// schema). Parseable by [`JsonValue::parse`](crate::JsonValue::parse).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"enabled\":{},\"events_recorded\":{},\"counters\":{{",
            self.enabled, self.events_recorded
        ));
        for (index, (counter, value)) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", counter.name(), value));
        }
        out.push_str("},\"stages\":{");
        for (index, (stage, hist)) in self.stages.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", stage.name()));
            write_histogram(&mut out, hist);
        }
        out.push_str("},\"service_latency\":");
        match &self.service_latency {
            Some(hist) => write_histogram(&mut out, hist),
            None => out.push_str("null"),
        }
        out.push_str(",\"memory\":");
        match &self.memory {
            Some(memory) => {
                out.push_str(&format!(
                    "{{\"shard_count\":{},\"entities\":{},\"edges\":{},\
                     \"sharded_total_bytes\":{},\"unsharded_total_bytes\":{},\"shards\":[",
                    memory.shard_count,
                    memory.entities,
                    memory.edges,
                    memory.sharded_total_bytes,
                    memory.unsharded_total_bytes
                ));
                for (index, shard) in memory.shards.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"shard\":{},\"entities\":{},\"segments\":{},\
                         \"encoded_payload_bytes\":{},\"directory_bytes\":{},\"total_bytes\":{}}}",
                        shard.shard,
                        shard.entities,
                        shard.segments,
                        shard.encoded_payload_bytes,
                        shard.directory_bytes,
                        shard.total_bytes
                    ));
                }
                out.push_str("]}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"peak_rss_bytes\":");
        match self.peak_rss_bytes {
            Some(bytes) => out.push_str(&format!("{bytes}")),
            None => out.push_str("null"),
        }
        out.push_str(",\"traces\":[");
        for (index, tree) in self.traces.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&tree.to_json());
        }
        out.push_str("],\"routes\":[");
        for (index, route) in self.routes.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("{\"graph\":");
            write_json_string(&mut out, &route.graph);
            out.push_str(",\"algorithm\":");
            write_json_string(&mut out, &route.algorithm);
            out.push_str(&format!(",\"requests\":{}}}", route.requests));
        }
        out.push_str("],\"window\":");
        match &self.window {
            Some(window) => out.push_str(&window.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"slos\":[");
        for (index, slo) in self.slos.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&slo.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::recorder::ObsConfig;
    use crate::stage::STAGE_COUNT;

    #[test]
    fn snapshot_json_parses_and_contains_every_stage_and_counter() {
        let recorder = Recorder::new(ObsConfig::default());
        recorder.record_span(Stage::Discovery, 1, 10, 250, 3);
        recorder.add_counter(Counter::Publishes, 2);
        // A panicked request on the disabled recorder: retained span-less,
        // with the ring (the discovery span above) attached.
        recorder
            .begin_trace(crate::TraceId::from_seq(0), std::time::Instant::now())
            .finish(
                std::time::Duration::ZERO,
                crate::TraceOutcome::Panic,
                || "manual".to_string(),
            );
        let mut snapshot = recorder.snapshot();
        let latency = crate::Histogram::new();
        latency.record(100);
        latency.record(300);
        snapshot.service_latency = Some(latency.snapshot());
        snapshot.memory = Some(MemorySection {
            shard_count: 1,
            entities: 10,
            edges: 20,
            sharded_total_bytes: 4096,
            unsharded_total_bytes: 4000,
            shards: vec![ShardMemory {
                shard: 0,
                entities: 10,
                segments: 5,
                encoded_payload_bytes: 1000,
                directory_bytes: 96,
                total_bytes: 1096,
            }],
        });

        let json = snapshot.to_json();
        let parsed = JsonValue::parse(&json).expect("snapshot JSON must parse");

        let stages = parsed.get("stages").unwrap().as_object().unwrap();
        assert_eq!(stages.len(), STAGE_COUNT);
        for stage in Stage::ALL {
            let entry = stages
                .get(stage.name())
                .unwrap_or_else(|| panic!("stage '{}' missing from snapshot", stage.name()));
            assert!(entry.get("count").unwrap().as_u64().is_some());
            assert!(entry.get("p99_us").unwrap().as_u64().is_some());
        }
        assert_eq!(
            stages
                .get("discovery")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        let counters = parsed.get("counters").unwrap().as_object().unwrap();
        for counter in Counter::ALL {
            assert!(counters.contains_key(counter.name()));
        }
        assert_eq!(counters.get("publishes").unwrap().as_u64(), Some(2));

        let latency = parsed.get("service_latency").unwrap();
        assert_eq!(latency.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(latency.get("max_us").unwrap().as_u64(), Some(300));

        let memory = parsed.get("memory").unwrap();
        assert_eq!(memory.get("shard_count").unwrap().as_u64(), Some(1));
        assert_eq!(
            memory.get("shards").unwrap().as_array().unwrap()[0]
                .get("total_bytes")
                .unwrap()
                .as_u64(),
            Some(1096)
        );

        let traces = parsed.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].get("detail").unwrap().as_str(), Some("manual"));
        let ring = traces[0].get("ring").unwrap().as_array().unwrap();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].get("stage").unwrap().as_str(), Some("discovery"));
        assert!(parsed.get("dumps").is_none());

        assert_eq!(parsed.get("events_recorded").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn optional_sections_render_null() {
        let snapshot = Recorder::default().snapshot();
        let parsed = JsonValue::parse(&snapshot.to_json()).unwrap();
        assert_eq!(parsed.get("service_latency"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("memory"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("window"), Some(&JsonValue::Null));
        assert_eq!(parsed.get("enabled"), Some(&JsonValue::Bool(false)));
        assert!(parsed.get("traces").unwrap().as_array().unwrap().is_empty());
        assert!(parsed.get("routes").unwrap().as_array().unwrap().is_empty());
        assert!(parsed.get("slos").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn snapshot_json_carries_routes_window_slos_and_exemplars() {
        use crate::slo::SloSpec;
        use crate::stage::Counter;
        use crate::timeseries::{MetricsCumulative, TimeSeries, TimeSeriesConfig};

        let recorder = Recorder::new(ObsConfig::default());
        let latency = crate::Histogram::new();
        let mut series = TimeSeries::new(TimeSeriesConfig {
            resolution_us: 0,
            window_ticks: 4,
        });
        let sample = |at_us: u64, latency: &crate::Histogram| MetricsCumulative {
            at_us,
            counters: Counter::ALL.iter().map(|&c| (c, 0)).collect(),
            service_latency: latency.snapshot(),
        };
        series.tick(sample(0, &latency));
        latency.record_with_exemplar(150, 0x2a);
        series.tick(sample(1_000_000, &latency));

        let mut snapshot = recorder.snapshot();
        snapshot.service_latency = Some(latency.snapshot());
        snapshot.routes = vec![RouteCount {
            graph: "fig1".to_string(),
            algorithm: "dynamic-programming".to_string(),
            requests: 7,
        }];
        snapshot.window = Some(series.window_summary(0));
        snapshot.slos = vec![SloSpec::new("latency-p99", 0.99, 50_000).evaluate(&series)];

        let parsed = JsonValue::parse(&snapshot.to_json()).unwrap();
        let routes = parsed.get("routes").unwrap().as_array().unwrap();
        assert_eq!(routes[0].get("graph").unwrap().as_str(), Some("fig1"));
        assert_eq!(routes[0].get("requests").unwrap().as_u64(), Some(7));
        let window = parsed.get("window").unwrap();
        assert_eq!(window.get("requests").unwrap().as_u64(), Some(1));
        let slos = parsed.get("slos").unwrap().as_array().unwrap();
        assert_eq!(slos[0].get("name").unwrap().as_str(), Some("latency-p99"));
        assert_eq!(slos[0].get("breached"), Some(&JsonValue::Bool(false)));
        let exemplars = parsed
            .get("service_latency")
            .unwrap()
            .get("exemplars")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(
            exemplars[0].get("trace").unwrap().as_str(),
            Some("000000000000002a")
        );
    }
}
