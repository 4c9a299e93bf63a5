//! A concurrent, cached preview-serving engine on top of `entity-graph` and
//! `preview-core`.
//!
//! The paper ("Generating Preview Tables for Entity Graphs", SIGMOD 2016)
//! frames preview tables as something users request interactively over big
//! entity graphs. This crate turns the one-shot discovery pipeline into a
//! serving subsystem built on `std` threads only:
//!
//! * [`GraphRegistry`] — named, versioned graphs with per-configuration
//!   [`ScoredSchema`](preview_core::ScoredSchema)s memoized behind `Arc`,
//! * [`PreviewRequest`] / [`PreviewResponse`] — a typed API covering the
//!   concise / tight / diverse spaces, algorithm choice and scoring config,
//! * [`ShardedLruCache`] — a sharded LRU result cache keyed by
//!   `(graph, version, scoring, space, algorithm)` with hit / miss /
//!   eviction counters,
//! * [`PreviewService`] — a fixed-size worker pool with a bounded request
//!   queue, per-request latency capture and a [`ServiceStats`] snapshot
//!   (throughput, p50/p99, cache hit rate),
//! * [`PreviewService::publish_delta`] — batched live graph updates: a
//!   [`GraphDelta`] is spliced onto the latest version (no full rebuild),
//!   memoized scores are carried forward through incremental rescoring,
//!   provably unaffected cache entries survive the version bump, and
//!   superseded versions are pruned to a retention window,
//! * [`PreviewService::snapshot`] — a unified observability export built on
//!   `preview-obs`: per-stage span histograms, the exact service latency
//!   histogram, splice-vs-reshard publish counters, per-shard memory, and
//!   retained trace trees, with the flight ring attached to worker panics
//!   and slow requests.
//!
//! # Quick start: register a graph, spawn the pool, submit, read stats
//!
//! ```
//! use std::sync::Arc;
//!
//! use entity_graph::fixtures;
//! use preview_core::PreviewSpace;
//! use preview_service::{GraphRegistry, PreviewRequest, PreviewService, ServiceConfig};
//!
//! // 1. Register graphs (the paper's Fig. 1 example here); re-registering
//! //    the same name creates a new version, lookups default to the latest.
//! let registry = Arc::new(GraphRegistry::new());
//! registry.register("fig1", fixtures::figure1_graph());
//!
//! // 2. Spawn the worker pool (4 workers, bounded queue, sharded cache).
//! let service = PreviewService::start(ServiceConfig::default(), Arc::clone(&registry));
//!
//! // 3. Submit requests; identical requests are answered from the cache.
//! let request = PreviewRequest::new("fig1", PreviewSpace::concise(2, 6)?);
//! let response = service.submit(request.clone())?.wait()?;
//! assert!((response.score - 84.0).abs() < 1e-9);
//! let again = service.submit_wait(request)?;
//! assert!(again.cache_hit);
//!
//! // 4. Read the service statistics.
//! let stats = service.stats();
//! assert_eq!(stats.completed, 2);
//! assert_eq!(stats.cache.hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod registry;
pub mod request;
mod stats;
pub(crate) mod sync;
pub mod worker;

pub use cache::{CacheStats, ShardedLruCache};
pub use engine::{PendingResponse, PreviewService, PublishReport, ServiceConfig};
pub use registry::{DeltaPublish, GraphRegistry, RegisteredGraph, DEFAULT_VERSION_RETENTION};
pub use request::{
    Algorithm, CacheKey, CachedPreview, PreviewRequest, PreviewResponse, ResolvedAlgorithm,
    ScoringKey, ServiceError, ServiceResult,
};
pub use stats::ServiceStats;

// Re-exported so callers can build and publish deltas without importing
// `entity-graph` directly.
pub use entity_graph::{DeltaSummary, GraphDelta};

// Re-exported so callers can configure, enable and snapshot the service's
// observability recorder — and its trace-tree, windowed-metrics and SLO
// layers — without importing `preview-obs` directly.
pub use preview_obs::{
    ObsConfig, ObsSnapshot, Recorder, SloSpec, SloStatus, TimeSeriesConfig, TraceId, TraceTree,
};

/// Compile-time guarantees that everything shared across worker threads is
/// `Send + Sync` (and cheaply shareable where `Clone` is claimed). A failure
/// here is a build error, so thread-safety of the serving layer is enforced
/// by the type system rather than by tests.
mod static_assertions {
    #![allow(dead_code)]

    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    const _: () = {
        // Service-layer types shared between the handle and the workers.
        assert_send_sync::<GraphRegistry>();
        assert_send_sync::<RegisteredGraph>();
        assert_send_sync::<PreviewService>();
        assert_send_sync::<ShardedLruCache<CacheKey, std::sync::Arc<CachedPreview>>>();
        // Request / response payloads crossing thread boundaries.
        assert_send_sync_clone::<PreviewRequest>();
        assert_send_sync_clone::<PreviewResponse>();
        assert_send_sync_clone::<CachedPreview>();
        assert_send_sync_clone::<ServiceError>();
        assert_send_sync_clone::<ServiceStats>();
        assert_send_sync_clone::<CacheStats>();
        // Observability: the recorder is shared by every worker thread and
        // snapshots cross thread boundaries to exporters.
        assert_send_sync::<Recorder>();
        assert_send_sync_clone::<ObsSnapshot>();
    };
}
