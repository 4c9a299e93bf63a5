//! Service-level statistics: request counters, latency percentiles and
//! throughput, combined with the cache counters into one snapshot.
//!
//! Request latency has one home: an exact [`preview_obs::Histogram`] fed
//! once per completed request. Every completion lands in a bucket, so
//! p50/p99 resolve the tail at any request count (relative error ≤ 1/32
//! from bucket granularity, nothing from sampling), and the histogram's
//! sum and max atomics give the exact mean and maximum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use preview_obs::{Histogram, HistogramSnapshot, RouteCount, TraceId};

use crate::cache::CacheStats;
use crate::request::ResolvedAlgorithm;

/// Upper bound on distinct graph route slots tracked for the Prometheus
/// `preview_requests_total` family. Label cardinality must stay bounded no
/// matter how many graphs a long-running service registers; graphs whose
/// slot falls past the cap are folded into a single overflow row.
const ROUTE_CAP: usize = 64;

/// Label pair used for requests whose route fell past [`ROUTE_CAP`].
const ROUTE_OVERFLOW: &str = "_overflow";

/// Shared mutable statistics the workers write into.
#[derive(Debug)]
pub(crate) struct StatsRecorder {
    /// Service start time, for uptime / throughput reporting only.
    // lint: allow(wall-clock, uptime and throughput are reporting-only; no decision depends on it)
    started: Instant,
    submitted: AtomicU64,
    failed: AtomicU64,
    publishes: AtomicU64,
    cache_carried_forward: AtomicU64,
    cache_invalidated: AtomicU64,
    /// Total (queue wait + compute) latency of every completed request, µs:
    /// the one request-latency histogram. Lock-free; its count is the
    /// completed-request count.
    latency_hist: Histogram,
    /// Completion counts indexed by graph route slot, then by
    /// [`ResolvedAlgorithm`] discriminant.
    routes: [[AtomicU64; ResolvedAlgorithm::ALL.len()]; ROUTE_CAP],
    /// Completions whose route slot is at or past [`ROUTE_CAP`].
    route_overflow: AtomicU64,
}

impl StatsRecorder {
    pub(crate) fn new() -> Self {
        Self {
            // lint: allow(wall-clock, uptime anchor for reporting-only throughput)
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            cache_carried_forward: AtomicU64::new(0),
            cache_invalidated: AtomicU64::new(0),
            latency_hist: Histogram::new(),
            routes: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            route_overflow: AtomicU64::new(0),
        }
    }

    /// Records one version-bumping delta publish and its cache maintenance
    /// outcome: superseded-version entries re-keyed onto the new version vs
    /// entries that went cold because the delta affected their scores.
    pub(crate) fn record_publish(&self, carried_forward: u64, invalidated: u64) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.cache_carried_forward
            // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
            .fetch_add(carried_forward, Ordering::Relaxed);
        self.cache_invalidated
            // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
            .fetch_add(invalidated, Ordering::Relaxed);
    }

    pub(crate) fn record_submitted(&self) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful completion. When the request was served with
    /// a trace, the latency bucket it lands in keeps the [`TraceId`] as its
    /// exemplar, so export consumers can jump from a histogram bucket to a
    /// concrete retained trace tree.
    pub(crate) fn record_completed(&self, latency: Duration, trace: Option<TraceId>) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        match trace {
            Some(trace) => self.latency_hist.record_with_exemplar(us, trace.as_u64()),
            None => self.latency_hist.record(us),
        }
    }

    /// The exact latency distribution (for the observability snapshot).
    pub(crate) fn latency_histogram(&self) -> HistogramSnapshot {
        self.latency_hist.snapshot()
    }

    /// Counts one completion against its `(graph, algorithm)` route: one
    /// relaxed add on a fixed table indexed by the graph's route slot. Slots
    /// at or past [`ROUTE_CAP`] fold into a shared `_overflow` row so export
    /// label cardinality stays bounded regardless of registry size.
    pub(crate) fn record_route(&self, slot: usize, algorithm: ResolvedAlgorithm) {
        let counter = self
            .routes
            .get(slot)
            .map_or(&self.route_overflow, |row| &row[algorithm as usize]);
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The non-zero per-route completion counts (for the observability
    /// snapshot), in slot then algorithm order; `names[slot]` is the graph
    /// name behind each route slot.
    pub(crate) fn routes(&self, names: &[String]) -> Vec<RouteCount> {
        let mut routes = Vec::new();
        for (row, graph) in self.routes.iter().zip(names) {
            for (counter, algorithm) in row.iter().zip(ResolvedAlgorithm::ALL) {
                // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
                let requests = counter.load(Ordering::Relaxed);
                if requests > 0 {
                    routes.push(RouteCount {
                        graph: graph.clone(),
                        algorithm: algorithm.name().to_string(),
                        requests,
                    });
                }
            }
        }
        // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
        let overflow = self.route_overflow.load(Ordering::Relaxed);
        if overflow > 0 {
            routes.push(RouteCount {
                graph: ROUTE_OVERFLOW.to_string(),
                algorithm: ROUTE_OVERFLOW.to_string(),
                requests: overflow,
            });
        }
        routes
    }

    pub(crate) fn record_failed(&self) {
        // lint: ordering-ok(independent monotonic counter; snapshot tolerates skew)
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, cache: CacheStats, queue_depth: usize) -> ServiceStats {
        let hist = self.latency_hist.snapshot();
        let elapsed = self.started.elapsed();
        let completed = hist.count();
        ServiceStats {
            elapsed,
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth,
            throughput_rps: if elapsed.as_secs_f64() > 0.0 {
                completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
            latency_mean_us: hist.mean(),
            latency_p50_us: hist.quantile(0.50),
            latency_p99_us: hist.quantile(0.99),
            latency_max_us: hist.max(),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            publishes: self.publishes.load(Ordering::Relaxed),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            cache_carried_forward: self.cache_carried_forward.load(Ordering::Relaxed),
            // lint: ordering-ok(statistical snapshot; counters may be mutually skewed)
            cache_invalidated: self.cache_invalidated.load(Ordering::Relaxed),
            cache,
        }
    }
}

/// A point-in-time snapshot of the service's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Time since the service started.
    pub elapsed: Duration,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that ended in an error.
    pub failed: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Completed requests per second of service uptime.
    pub throughput_rps: f64,
    /// Mean total latency (queue wait + compute), microseconds (exact).
    pub latency_mean_us: f64,
    /// Median total latency, microseconds: the lower bound of the exact
    /// histogram bucket holding the nearest-rank value (relative error
    /// ≤ 1/32, no sampling error at any request count).
    pub latency_p50_us: u64,
    /// 99th-percentile total latency, microseconds (same bounds as p50).
    pub latency_p99_us: u64,
    /// Worst observed total latency, microseconds.
    pub latency_max_us: u64,
    /// Version-bumping delta publishes served by this service.
    pub publishes: u64,
    /// Cache entries carried forward across version bumps because the delta
    /// provably did not affect their scores (re-keyed to the new version).
    pub cache_carried_forward: u64,
    /// Cache entries invalidated by version bumps: entries of a superseded
    /// version whose scoring configuration the delta affected, counted once
    /// at the bump that made them cold for latest traffic.
    pub cache_invalidated: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over an ascending-sorted sample (`p` in
    /// 0..=100) — the exact reference the histogram quantiles are pinned
    /// against.
    fn percentile(sorted_us: &[u64], p: f64) -> u64 {
        if sorted_us.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
        sorted_us[rank.clamp(1, sorted_us.len()) - 1]
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let recorder = StatsRecorder::new();
        recorder.record_submitted();
        recorder.record_submitted();
        recorder.record_completed(Duration::from_micros(100), None);
        recorder.record_completed(Duration::from_micros(300), None);
        recorder.record_failed();
        let stats = recorder.snapshot(CacheStats::default(), 3);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.queue_depth, 3);
        // Histogram quantiles report bucket lower bounds: 100 µs sits on an
        // exact bucket boundary; 300 µs lands in the [296, 304) bucket.
        assert_eq!(stats.latency_p50_us, 100);
        assert_eq!(stats.latency_p99_us, 296);
        // Max and mean stay exact (the histogram's own atomics, not buckets).
        assert_eq!(stats.latency_max_us, 300);
        assert!((stats.latency_mean_us - 200.0).abs() < 1e-9);
        assert!(stats.throughput_rps > 0.0);
    }

    #[test]
    fn routes_fold_into_overflow_past_the_cap_and_exemplars_stick() {
        let recorder = StatsRecorder::new();
        for slot in 0..ROUTE_CAP + 10 {
            recorder.record_route(slot, ResolvedAlgorithm::BestFirst);
        }
        recorder.record_route(0, ResolvedAlgorithm::BestFirst);
        let names: Vec<String> = (0..ROUTE_CAP + 10).map(|i| format!("graph-{i}")).collect();
        let routes = recorder.routes(&names);
        assert_eq!(routes.len(), ROUTE_CAP + 1);
        let overflow = routes
            .iter()
            .find(|r| r.graph == ROUTE_OVERFLOW)
            .expect("overflow route present");
        assert_eq!(overflow.requests, 10);
        let first = routes.iter().find(|r| r.graph == "graph-0").unwrap();
        assert_eq!(first.requests, 2);

        // A traced completion stamps its bucket's exemplar.
        recorder.record_completed(Duration::from_micros(500), TraceId::from_raw(42));
        let hist = recorder.latency_histogram();
        assert!(hist.bucket_exemplars().contains(&42));
    }

    /// Pins the histogram-vs-reference quantile error bound the exact
    /// histogram replaces the sampling reservoir under: every reported
    /// quantile is the lower bound of the bucket holding the true
    /// nearest-rank value — within 1/32 relative error, at any volume.
    ///
    /// The old 512-sample-style reservoir could only promise a *sampled*
    /// tail; at 1000+ requests its p99 rode on ~10 samples. The histogram's
    /// error here is structural (bucket width), not statistical, so the
    /// bound below is deterministic and holds for every load size tested.
    #[test]
    fn histogram_quantiles_track_the_exact_reference_within_one_bucket() {
        for n in [100u64, 1_000, 50_000] {
            let recorder = StatsRecorder::new();
            // Deterministic skewed workload: a long tail like service
            // latencies (quadratic ramp spreads mass across octaves).
            let mut all: Vec<u64> = (1..=n).map(|i| 50 + i * i % 9_973 + i / 3).collect();
            for &us in &all {
                recorder.record_completed(Duration::from_micros(us), None);
            }
            all.sort_unstable();
            let stats = recorder.snapshot(CacheStats::default(), 0);
            for (got, p) in [(stats.latency_p50_us, 50.0), (stats.latency_p99_us, 99.0)] {
                let reference = percentile(&all, p);
                assert!(
                    got <= reference,
                    "n={n} p{p}: histogram {got} above reference {reference}"
                );
                assert!(
                    reference - got <= reference / 32 + 1,
                    "n={n} p{p}: histogram {got} more than one bucket below {reference}"
                );
            }
            // Mean and max stay exact.
            let exact_mean = all.iter().sum::<u64>() as f64 / n as f64;
            assert!((stats.latency_mean_us - exact_mean).abs() < 1e-6);
            assert_eq!(stats.latency_max_us, *all.last().unwrap());
        }
    }
}
