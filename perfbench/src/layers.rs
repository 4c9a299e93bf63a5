//! Per-layer metrics of the traced run.
//!
//! The traced run enables the service's existing `preview-obs` recorder,
//! attaches it to the benchmark thread as well as the worker, and times the
//! public entry points of each layer from the benchmark's own code. It adds
//! no span to the program. Two splits read histograms the program already
//! records, because both stages run inside one public call:
//! `Stage::DeltaApply` and `Stage::Rescore` inside `publish_delta`.
//!
//! The whole-publish histogram is never read: with the benchmark thread
//! attached, every publish records it twice (once from the registry's span
//! and once from the engine). Publishes are timed from outside instead.

use preview_obs::{Counter, Recorder, Stage};

use crate::measure::{Report, Samples};

/// The only stage histograms the benchmark reads.
const SPLIT_STAGES: [Stage; 2] = [Stage::DeltaApply, Stage::Rescore];

/// [`SPLIT_STAGES`] totals at one instant, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct SplitTotals([u64; 2]);

impl SplitTotals {
    pub fn read(recorder: &Recorder) -> Self {
        Self(SPLIT_STAGES.map(|stage| recorder.stage_histogram(stage).snapshot().sum()))
    }

    /// Milliseconds of delta apply and of rescore recorded since `earlier`.
    pub fn since_ms(&self, earlier: &SplitTotals) -> (f64, f64) {
        let d = |i: usize| self.0[i].saturating_sub(earlier.0[i]) as f64 / 1e3;
        (d(0), d(1))
    }
}

pub fn nodes_expanded(recorder: &Recorder) -> u64 {
    recorder.counter(Counter::NodesExpanded)
}

/// Per-publish parts, from traced publishes only.
#[derive(Debug, Default)]
pub struct PublishParts {
    pub apply_ms: Samples,
    pub rescore_ms: Samples,
    pub other_ms: Samples,
    pub invalidated: Samples,
    pub carried: Samples,
}

impl PublishParts {
    /// Records one traced publish that took `publish_ms` in total.
    pub fn record(&mut self, publish_ms: f64, split: (f64, f64), invalidated: u64, carried: u64) {
        self.apply_ms.push(split.0);
        self.rescore_ms.push(split.1);
        self.other_ms.push(publish_ms - split.0 - split.1);
        self.invalidated.push(invalidated as f64);
        self.carried.push(carried as f64);
    }
}

/// Everything the traced run reports. Each workload fills what its ops
/// exercise; a layer an op never reaches reports its true value (zero
/// nodes expanded on cache hits, for example).
#[derive(Debug, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub register_s: f64,
    pub warmup_s: f64,
    pub queue_wait_us: Samples,
    pub compute_us: Samples,
    pub reply_us: Samples,
    pub resolve_us: Samples,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub register_ms: Samples,
    pub build_ms: Samples,
    pub cold_compute_ms: Samples,
    pub nodes_expanded: u64,
    pub nodes_ops: u64,
    pub publish: PublishParts,
    /// The refresh after each traced publish (see `serve::Churn`).
    pub refresh_ms: Samples,
    pub live_versions: usize,
    pub neighbor_index_mb: f64,
    /// Per traced op: the share of its time no measured part covers.
    pub unattributed: Samples,
    /// Traced and untraced op times, for the overhead ratio.
    pub traced_op_ms: Samples,
    pub untraced_op_ms: Samples,
}

impl Layers {
    /// Records one traced op of `op_ms` whose measured parts took
    /// `parts_ms`.
    pub fn record_coverage(&mut self, op_ms: f64, parts_ms: f64) {
        self.unattributed.push((op_ms - parts_ms) / op_ms);
    }

    pub fn emit(&self, report: &mut Report) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        report.metric("datagen.generate_s", self.generate_s, "s");
        report.metric("registry.register_s", self.register_s, "s");
        report.metric("engine.warmup_s", self.warmup_s, "s");
        report.metric(
            "engine.queue_wait_p50_us",
            self.queue_wait_us.median(),
            "us",
        );
        report.metric("engine.compute_p50_us", self.compute_us.median(), "us");
        report.metric("engine.reply_p50_us", self.reply_us.median(), "us");
        report.metric("registry.resolve_p50_us", self.resolve_us.median(), "us");
        let hit_ratio = ratio(self.cache_hits as f64, self.cache_lookups as f64);
        report.metric("cache.hit_ratio", hit_ratio, "ratio");
        report.metric("registry.register_ms", self.register_ms.median(), "ms");
        report.metric("scoring.build_ms", self.build_ms.median(), "ms");
        report.metric(
            "engine.cold_compute_ms",
            self.cold_compute_ms.median(),
            "ms",
        );
        let nodes = ratio(self.nodes_expanded as f64, self.nodes_ops as f64);
        report.metric("discovery.nodes_expanded", nodes, "count");
        let publish = &self.publish;
        report.metric("delta.apply_ms", publish.apply_ms.median(), "ms");
        report.metric("scoring.rescore_ms", publish.rescore_ms.median(), "ms");
        report.metric("publish.other_ms", publish.other_ms.median(), "ms");
        report.metric("engine.refresh_ms", self.refresh_ms.median(), "ms");
        report.metric(
            "cache.invalidated_per_publish",
            publish.invalidated.mean(),
            "count",
        );
        report.metric("cache.carried_per_publish", publish.carried.mean(), "count");
        report.metric("registry.live_versions", self.live_versions as f64, "count");
        report.metric("memory.neighbor_index_mb", self.neighbor_index_mb, "MB");
        report.metric(
            "trace.unattributed_ratio",
            self.unattributed.median(),
            "ratio",
        );
        let overhead = self.traced_op_ms.median() / self.untraced_op_ms.median() - 1.0;
        report.metric("trace.overhead_ratio", overhead, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;
    use std::sync::Arc;

    use preview_obs::ObsConfig;
    use preview_service::{GraphRegistry, PreviewService, ServiceConfig};

    use super::*;
    use crate::inputs;

    /// The whole-publish histogram double-counts when the benchmark thread
    /// is attached, so no benchmark source may name that stage.
    #[test]
    fn benchmark_never_reads_the_publish_histogram() {
        assert!(SPLIT_STAGES.iter().all(|s| s.name() != "publish"));
        let forbidden = ["Stage", "::", "Publish"].concat();
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains(&forbidden),
                "{} names {forbidden}; time publish_delta from outside instead",
                path.display()
            );
        }
    }

    /// The split stages are recorded once per publish on the attached
    /// benchmark thread, so their per-publish sums add up.
    #[test]
    fn split_stages_record_once_per_publish() {
        let registry = Arc::new(GraphRegistry::new());
        registry.register(inputs::GRAPH, inputs::generate_graph(3, 1e-3));
        let recorder = Arc::new(Recorder::new(ObsConfig::default()));
        let service = PreviewService::start_with_recorder(
            ServiceConfig::with_workers(1),
            Arc::clone(&registry),
            Arc::clone(&recorder),
        );
        registry
            .resolve(inputs::GRAPH, None)
            .unwrap()
            .scored_for(&preview_core::ScoringConfig::coverage())
            .unwrap();
        let _attach = recorder.attach();
        recorder.enable();
        let mut updates = inputs::Updates::new(3);
        for _ in 0..3 {
            let graph = registry.resolve(inputs::GRAPH, None).unwrap();
            let delta = updates.next(graph.graph());
            service.publish_delta(inputs::GRAPH, &delta).unwrap();
        }
        recorder.disable();
        for stage in SPLIT_STAGES {
            assert_eq!(recorder.stage_histogram(stage).count(), 3, "{stage:?}");
        }
    }
}
