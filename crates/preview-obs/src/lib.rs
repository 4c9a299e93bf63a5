//! Zero-dependency observability for the preview-tables serving stack:
//! structured spans, exact log-linear histograms, a flight recorder, and a
//! unified JSON snapshot exporter.
//!
//! The crate is std-only (consistent with the workspace's vendored-deps
//! policy) and built around one invariant: **instrumentation must be
//! output-neutral and near-free when off**. Concretely:
//!
//! * [`span!`] / [`enter`] cost a single relaxed atomic load when no
//!   [`Recorder`] in the process is enabled — the production default — so
//!   hot paths keep their instrumentation compiled in at <1% overhead
//!   (`obs-bench --check` enforces the floor).
//! * Recording never takes a lock and never branches on data values, so
//!   enabling a recorder cannot perturb the deterministic outputs the
//!   golden suites pin (it only reads clocks and bumps atomics).
//! * Every collected artifact — [`Histogram`] quantiles, [`Counter`]s,
//!   retained [`TraceTree`]s, per-shard memory — exports through one
//!   [`ObsSnapshot::to_json`] schema shared by all bench binaries.
//!
//! The crate observes at three layers:
//!
//! 1. **Per-request trace trees** — a [`TraceId`] minted at service
//!    ingress links every span of one request into a parent-linked
//!    [`TraceTree`]; the bounded [`TraceStore`] retains trees tail-based
//!    (slow / errored / panicked / 1-in-N sampled, see [`RetainReason`]),
//!    attaching the flight ring to slow and panicked trees, and histogram
//!    buckets carry the latest trace as an exemplar.
//! 2. **Aggregate histograms** — exact log-linear per-stage [`Histogram`]s
//!    and [`Counter`]s, cumulative since process start.
//! 3. **Windowed SLOs** — a [`TimeSeries`] ring of snapshot deltas feeding
//!    sliding-window rates/quantiles and [`SloSpec`] burn-rate evaluation.
//!
//! # Layout
//!
//! | Piece | What it is |
//! |---|---|
//! | [`Stage`] / [`Counter`] | the closed taxonomy instrumented across the stack |
//! | [`Recorder`] | per-stage [`Histogram`]s + counters + the flight ring + the [`TraceStore`] |
//! | [`span!`] / [`SpanGuard`] | RAII stage timing on the attached recorder |
//! | [`TraceGuard`] / [`TraceContext`] | per-request tree building and the fork-join handoff |
//! | [`FlightRing`] / [`SpanEvent`] | seqlock ring of recent span events; attached to slow and panicked trace trees, read on demand by [`Recorder::ring_snapshot`] |
//! | [`TimeSeries`] / [`SloSpec`] | windowed deltas, rates, and burn-rate evaluation |
//! | [`ObsSnapshot`] | the JSON export consumed by `PreviewService::snapshot()` and every bench |
//! | [`render_prometheus`] / [`render_top`] | text-exposition and dashboard exporters over the snapshot |
//! | [`JsonValue`] | minimal parser used by `obs-bench --check` to validate the export |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use preview_obs::{span, ObsConfig, Recorder, Stage};
//!
//! let recorder = Arc::new(Recorder::new(ObsConfig::default()));
//! recorder.enable();
//! let _attach = recorder.attach(); // this thread now records spans
//! {
//!     let _request = span!(Stage::Request);
//!     let _discovery = span!(Stage::Discovery, candidates = 12);
//! } // guards drop: durations land in histograms + the flight ring
//! recorder.disable();
//! assert_eq!(recorder.stage_histogram(Stage::Request).count(), 1);
//! let json = recorder.snapshot().to_json();
//! assert!(json.contains("\"discovery\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
mod flight;
mod histogram;
mod json;
mod recorder;
mod rss;
mod slo;
mod snapshot;
mod stage;
mod timeseries;
mod trace;

pub use export::{
    parse_prometheus_text, render_prometheus, render_top, roundtrip_failures, snapshot_is_blank,
    PromSample,
};
pub use flight::{FlightRing, SpanEvent};
pub use histogram::{bucket_index, bucket_lower, Histogram, HistogramSnapshot, BUCKETS};
pub use json::{write_json_f64, write_json_string, JsonValue};
pub use recorder::{
    counter_add, counter_add_many, current_context, enter, enter_in_context, enter_with,
    AttachGuard, ObsConfig, Recorder, SpanGuard, TraceGuard,
};
pub use rss::peak_rss_bytes;
pub use slo::{SloSpec, SloStatus};
pub use snapshot::{MemorySection, ObsSnapshot, RouteCount, ShardMemory};
pub use stage::{Counter, Stage, COUNTER_COUNT, STAGE_COUNT};
pub use timeseries::{MetricsCumulative, TickDelta, TimeSeries, TimeSeriesConfig, WindowSummary};
pub use trace::{
    RetainReason, TraceContext, TraceId, TraceOutcome, TraceSpan, TraceStore, TraceTree,
};

/// Compile-time guarantees for the types that cross thread boundaries: the
/// worker pool shares one `Arc<Recorder>` across every worker and the
/// bench/driver threads, so `Recorder` (and everything a snapshot carries
/// out of it) must be `Send + Sync`.
mod static_assertions {
    #![allow(dead_code)]

    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    const _: () = {
        assert_send_sync::<Recorder>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<FlightRing>();
        assert_send_sync::<TraceStore>();
        assert_send_sync_clone::<HistogramSnapshot>();
        assert_send_sync_clone::<ObsSnapshot>();
        assert_send_sync_clone::<SpanEvent>();
        assert_send_sync_clone::<Stage>();
        assert_send_sync_clone::<Counter>();
        assert_send_sync_clone::<ObsConfig>();
        assert_send_sync_clone::<TraceId>();
        assert_send_sync_clone::<TraceContext>();
        assert_send_sync_clone::<TraceTree>();
        assert_send_sync_clone::<RetainReason>();
        assert_send_sync_clone::<RouteCount>();
        assert_send_sync_clone::<SloSpec>();
        assert_send_sync_clone::<SloStatus>();
        assert_send_sync_clone::<WindowSummary>();
        assert_send_sync_clone::<MetricsCumulative>();
    };
}
