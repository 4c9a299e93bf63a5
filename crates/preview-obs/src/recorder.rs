//! The [`Recorder`]: per-stage histograms, event counters, the flight ring,
//! and the thread-local span machinery behind the [`span!`](crate::span)
//! macro.
//!
//! # Cost model
//!
//! The crate keeps one global count of *enabled* recorders. When it is zero
//! — the production default — [`enter`] is a single relaxed atomic load plus
//! a `None` guard, so instrumentation compiled into hot paths costs well
//! under 1% of service throughput (enforced by `obs-bench --check`). When a
//! recorder is enabled and attached to the current thread, a span costs two
//! monotonic clock reads and a dozen relaxed atomic operations — no locks.
//!
//! # Attachment
//!
//! Recorders are explicit, not ambient: a thread records into whichever
//! recorder it has [attached](Recorder::attach). Worker pools attach once
//! per worker at startup; fork-join helper threads stay unattached, which
//! keeps parallel sections uninstrumented and the outputs deterministic.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::flight::{FlightRing, SpanEvent};
use crate::histogram::Histogram;
use crate::stage::{Counter, Stage, COUNTER_COUNT, STAGE_COUNT};
use crate::trace::{
    ActiveTrace, RetainReason, TraceContext, TraceId, TraceOutcome, TraceSpan, TraceStore,
    TraceTree, ROOT_SPAN_ID,
};

/// Number of recorders currently enabled, across the whole process. The
/// [`enter`] fast path is one relaxed load of this.
static ENABLED_RECORDERS: AtomicUsize = AtomicUsize::new(0);

/// Source of small per-process thread ids for flight events.
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// The recorder this thread records spans into, if any.
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's small id, assigned on first use.
    static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
    /// The trace the current request is building, between
    /// [`Recorder::begin_trace`] and [`TraceGuard::finish`].
    static TRACE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

fn thread_id() -> u32 {
    THREAD_ID.with(|cell| match cell.get() {
        Some(id) => id,
        None => {
            // lint: ordering-ok(id allocation only needs uniqueness, which fetch_add gives at any ordering)
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(id));
            id
        }
    })
}

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Flight-ring capacity in events (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Requests slower than this many microseconds are retained as
    /// [slow](RetainReason::Slow) trace trees carrying the flight ring,
    /// whether or not the recorder is enabled (`None` disables the
    /// whole-request slow threshold).
    pub slow_threshold_us: Option<u64>,
    /// Most recent trace trees retained by tail-based sampling.
    pub trace_capacity: usize,
    /// Head-samples every Nth trace for retention regardless of latency
    /// (`0` disables head sampling).
    pub sample_every: u64,
    /// Per-stage slow thresholds in microseconds: a single span of a stage
    /// exceeding its threshold marks the whole request
    /// [slow](RetainReason::Slow) even if the total stays under
    /// [`slow_threshold_us`](ObsConfig::slow_threshold_us).
    pub stage_thresholds_us: [Option<u64>; STAGE_COUNT],
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 1024,
            slow_threshold_us: None,
            trace_capacity: 32,
            sample_every: 0,
            stage_thresholds_us: [None; STAGE_COUNT],
        }
    }
}

impl ObsConfig {
    /// Returns the config with the whole-request slow threshold set.
    pub fn with_slow_threshold(mut self, threshold_us: u64) -> ObsConfig {
        self.slow_threshold_us = Some(threshold_us);
        self
    }

    /// Returns the config with 1-in-`every` head sampling enabled
    /// (`0` disables it).
    pub fn with_sample_every(mut self, every: u64) -> ObsConfig {
        self.sample_every = every;
        self
    }

    /// Returns the config with a per-stage slow threshold set.
    pub fn with_stage_threshold(mut self, stage: Stage, threshold_us: u64) -> ObsConfig {
        self.stage_thresholds_us[stage as usize] = Some(threshold_us);
        self
    }
}

/// Collects spans, counters, and flight events for one serving stack.
///
/// A recorder starts *disabled*: attached threads skip all span work until
/// [`enable`](Recorder::enable) is called. Enabling is process-visible
/// (it feeds the [`enter`] fast-path check) and reversible.
pub struct Recorder {
    config: ObsConfig,
    epoch: Instant,
    enabled: AtomicBool,
    stages: [Histogram; STAGE_COUNT],
    counters: [AtomicU64; COUNTER_COUNT],
    ring: FlightRing,
    traces: TraceStore,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("config", &self.config)
            .field("ring", &self.ring)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

impl Recorder {
    /// A disabled recorder with the given configuration.
    pub fn new(config: ObsConfig) -> Recorder {
        Recorder {
            config,
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            stages: std::array::from_fn(|_| Histogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: FlightRing::new(config.ring_capacity),
            traces: TraceStore::new(config.trace_capacity),
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        // lint: ordering-ok(advisory gate flag; a stale read only delays span capture by one transition)
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts recording spans on attached threads. Idempotent.
    pub fn enable(&self) {
        // lint: ordering-ok(the swap makes the idempotence check atomic; cross-thread visibility timing is advisory)
        if !self.enabled.swap(true, Ordering::Relaxed) {
            // lint: ordering-ok(global enabled count is a fast-path gate; spans near the transition may be missed by design)
            ENABLED_RECORDERS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stops recording spans. Idempotent; counters and histograms persist.
    pub fn disable(&self) {
        // lint: ordering-ok(the swap makes the idempotence check atomic; cross-thread visibility timing is advisory)
        if self.enabled.swap(false, Ordering::Relaxed) {
            // lint: ordering-ok(global enabled count is a fast-path gate; spans near the transition may be missed by design)
            ENABLED_RECORDERS.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Makes this recorder the current thread's span sink until the
    /// returned guard drops (which restores the previous attachment).
    pub fn attach(self: &Arc<Recorder>) -> AttachGuard {
        let previous = CURRENT.with(|cell| cell.replace(Some(Arc::clone(self))));
        AttachGuard { previous }
    }

    /// Microseconds elapsed since this recorder was created.
    pub fn epoch_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Records a finished span directly, for callers that measure a
    /// duration themselves.
    pub fn record_span(&self, stage: Stage, depth: u8, start_us: u64, duration_us: u64, attr: u64) {
        let span = TraceSpan {
            span_id: 0,
            parent_id: 0,
            stage,
            thread: thread_id(),
            start_us,
            duration_us,
            attr,
        };
        self.record_event(span.event(depth, 0));
    }

    /// Records one finished span event into its stage histogram — a
    /// non-zero `trace` stamps the bucket's exemplar — and the flight ring.
    fn record_event(&self, event: SpanEvent) {
        let histogram = &self.stages[event.stage as usize];
        if event.trace != 0 {
            histogram.record_with_exemplar(event.duration_us, event.trace);
        } else {
            histogram.record(event.duration_us);
        }
        self.ring.push(&event);
    }

    /// Records a duration against `stage` as a depth-0 span ending now.
    pub fn record_duration(&self, stage: Stage, duration: std::time::Duration) {
        let duration_us = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        let now = self.epoch_us();
        self.record_span(stage, 0, now.saturating_sub(duration_us), duration_us, 0);
    }

    /// Adds `n` to an event counter. Always live, even when disabled —
    /// counters are one relaxed `fetch_add` and feed the snapshot.
    pub fn add_counter(&self, counter: Counter, n: u64) {
        // lint: ordering-ok(monotonic statistics counter; no other memory depends on its value)
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of an event counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        // lint: ordering-ok(statistics read; snapshots tolerate slightly stale counts)
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// The histogram of recorded durations for `stage` (microseconds).
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Total events ever pushed into the flight ring.
    pub fn events_recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// Current flight-ring contents, oldest first.
    pub fn ring_snapshot(&self) -> Vec<SpanEvent> {
        self.ring.snapshot()
    }

    /// The tail-sampled trace-tree store.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Starts the trace of request `trace` on the current thread.
    ///
    /// Called by the worker once per dequeued request, before any span
    /// opens; `enqueued` anchors the synthetic root span so queue wait is
    /// part of the tree. When the recorder is disabled the guard is
    /// inactive: it collects no spans, but its
    /// [`finish`](TraceGuard::finish) still retains slow and panicked
    /// requests. The guard must be finished on the same thread; dropping it
    /// unfinished discards the partial trace.
    pub fn begin_trace(&self, trace: TraceId, enqueued: Instant) -> TraceGuard<'_> {
        let active = self.is_enabled();
        if active {
            TRACE.with(|cell| {
                *cell.borrow_mut() = Some(ActiveTrace::new(trace));
            });
        }
        TraceGuard {
            recorder: self,
            trace,
            enqueued,
            active,
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        // Keep the global enabled count honest if dropped while enabled.
        self.disable();
    }
}

/// Restores the previous thread attachment when dropped.
/// Returned by [`Recorder::attach`].
#[derive(Debug)]
pub struct AttachGuard {
    previous: Option<Arc<Recorder>>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        CURRENT.with(|cell| {
            *cell.borrow_mut() = self.previous.take();
        });
    }
}

/// The per-request trace handle returned by [`Recorder::begin_trace`].
///
/// While the guard is active (the recorder was enabled when the request was
/// dequeued), every span opened on this thread joins the trace with a parent
/// link. [`finish`](TraceGuard::finish) is the one completion path for every
/// request, traced or not. Dropping the guard without finishing discards the
/// partial trace.
#[derive(Debug)]
pub struct TraceGuard<'a> {
    recorder: &'a Recorder,
    trace: TraceId,
    enqueued: Instant,
    /// Whether spans are being collected into this thread's trace.
    active: bool,
}

impl TraceGuard<'_> {
    /// Completes the request and decides its retention.
    ///
    /// When active, synthesises the queue-wait child and the root request
    /// span (anchored at the enqueue instant, so child stage spans sum to
    /// the root within clock resolution). Both reach the flight ring; only
    /// the queue wait feeds a stage histogram, because request latency has
    /// one histogram, owned by the serving layer.
    ///
    /// Then every [`RetainReason`] is evaluated and, when any applies, one
    /// [`TraceTree`] is retained. Slow and panicked trees carry the flight
    /// ring and bump [`Counter::SlowDumps`] / [`Counter::PanicDumps`]; an
    /// inactive guard retains them too, as span-less trees. Error and
    /// sampled retention need spans, so they apply only while active.
    ///
    /// `detail` builds free-form worker context (graph name, latency, panic
    /// message) and runs only when the tree is retained.
    pub fn finish(
        mut self,
        queue_wait: Duration,
        outcome: TraceOutcome,
        detail: impl FnOnce() -> String,
    ) {
        let recorder = self.recorder;
        let config = recorder.config();
        let active = std::mem::take(&mut self.active);
        let total_us = if active || config.slow_threshold_us.is_some() {
            micros(self.enqueued.elapsed())
        } else {
            0
        };
        let spans = if active {
            let Some(active) = TRACE.with(|cell| cell.borrow_mut().take()) else {
                return;
            };
            self.close_tree(active, queue_wait, total_us)
        } else {
            Vec::new()
        };

        let slow = matches!(config.slow_threshold_us, Some(t) if total_us > t)
            || spans.iter().any(|span| {
                matches!(
                    config.stage_thresholds_us[span.stage as usize],
                    Some(t) if span.duration_us > t
                )
            });
        let panicked = outcome == TraceOutcome::Panic;
        let mut reasons = Vec::new();
        if slow {
            reasons.push(RetainReason::Slow);
        }
        if outcome == TraceOutcome::Error && active {
            reasons.push(RetainReason::Error);
        }
        if panicked {
            reasons.push(RetainReason::Panic);
        }
        let trace = self.trace.as_u64();
        if active && config.sample_every > 0 && (trace - 1).is_multiple_of(config.sample_every) {
            reasons.push(RetainReason::Sampled);
        }
        if reasons.is_empty() {
            return;
        }
        if slow {
            recorder.add_counter(Counter::SlowDumps, 1);
        }
        if panicked {
            recorder.add_counter(Counter::PanicDumps, 1);
        }
        recorder.traces.retain(TraceTree {
            trace: self.trace,
            reasons,
            detail: detail(),
            spans,
            ring: if slow || panicked {
                recorder.ring_snapshot()
            } else {
                Vec::new()
            },
        });
    }

    /// Closes an active trace: synthesises its queue-wait and root spans
    /// and returns every span of the tree.
    fn close_tree(
        &self,
        mut active: ActiveTrace,
        queue_wait: Duration,
        total_us: u64,
    ) -> Vec<TraceSpan> {
        let recorder = self.recorder;
        let trace = self.trace.as_u64();
        let root_start_us = micros(self.enqueued.saturating_duration_since(recorder.epoch));
        let queue_wait_us = micros(queue_wait);

        // Queue wait predates the worker, so its span is synthesised here
        // from the enqueue timestamp instead of being guard-recorded.
        let (queue_id, queue_parent) = active.open(Some(ROOT_SPAN_ID));
        let queue = TraceSpan {
            span_id: queue_id,
            parent_id: queue_parent,
            stage: Stage::QueueWait,
            thread: thread_id(),
            start_us: root_start_us,
            duration_us: queue_wait_us,
            attr: 0,
        };
        recorder.record_event(queue.event(1, trace));
        active.close(queue);

        // The root span covers the whole request, queue wait included; its
        // attribute is the number of child spans in the finished tree. It
        // reaches the flight ring before retention snapshots the ring, so a
        // panicking request's ring shows its full span trail.
        let root = TraceSpan {
            span_id: ROOT_SPAN_ID,
            parent_id: 0,
            stage: Stage::Request,
            thread: thread_id(),
            start_us: root_start_us,
            duration_us: total_us,
            attr: active.spans.len() as u64,
        };
        recorder.ring.push(&root.event(0, trace));
        active.close(root);
        active.spans
    }
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        // Finishing clears the slot; an unfinished guard must too, so a
        // worker bailing out early cannot leak spans into the next request.
        if self.active {
            TRACE.with(|cell| {
                *cell.borrow_mut() = None;
            });
        }
    }
}

/// Whole microseconds in `duration`, saturating at `u64::MAX`.
fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A live span; recorded when dropped. Produced by [`enter`] / [`span!`](crate::span).
#[derive(Debug)]
pub struct SpanGuard(Option<ActiveSpan>);

#[derive(Debug)]
struct ActiveSpan {
    recorder: Arc<Recorder>,
    stage: Stage,
    depth: u8,
    attr: u64,
    start: Instant,
    /// Raw trace id (`0` when no trace is active on this thread).
    trace: u64,
    span_id: u32,
    parent_id: u32,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled path).
    pub const fn noop() -> SpanGuard {
        SpanGuard(None)
    }

    /// Whether this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the span's free-form attribute (e.g. a candidate count computed
    /// mid-stage). No-op on the disabled path.
    pub fn set_attr(&mut self, attr: u64) {
        if let Some(active) = &mut self.0 {
            active.attr = attr;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let span = TraceSpan {
                span_id: active.span_id,
                parent_id: active.parent_id,
                stage: active.stage,
                thread: thread_id(),
                start_us: micros(
                    active
                        .start
                        .saturating_duration_since(active.recorder.epoch),
                ),
                duration_us: micros(active.start.elapsed()),
                attr: active.attr,
            };
            active
                .recorder
                .record_event(span.event(active.depth, active.trace));
            if active.trace != 0 {
                // Append the completed span to the thread's trace tree.
                // This runs during panic unwinding too, so an unwinding
                // request still carries its partial tree into retention.
                TRACE.with(|cell| {
                    if let Some(current) = cell.borrow_mut().as_mut() {
                        if current.trace.as_u64() == active.trace {
                            current.close(span);
                        }
                    }
                });
            }
        }
    }
}

/// Opens a span for `stage` on the current thread's attached recorder.
///
/// Returns a no-op guard — after a single relaxed atomic load — when no
/// recorder in the process is enabled, or when this thread has no enabled
/// recorder attached. This runs during panic unwinding too: guards dropped
/// by an unwind still record, which is how a panicking request's span trail
/// reaches the flight ring before `catch_unwind` returns.
#[inline]
pub fn enter(stage: Stage) -> SpanGuard {
    enter_with(stage, 0)
}

/// Adds `n` to `counter` on the current thread's attached recorder, if any.
///
/// Like [`enter`], the fast path is a single relaxed load of the global
/// enabled count: a fully-disabled recorder set pays exactly one load per
/// event, with the thread-local lookup in the cold path (the disabled
/// overhead gate in `obs-bench` pins this). Beyond that gate, counters are
/// always live — [`Recorder::add_counter`] accumulates whether or not the
/// *attached* recorder is the enabled one. Threads without an attached
/// recorder (fork-join helpers, plain library callers) drop the increment:
/// library code can report counters unconditionally and only instrumented
/// serving stacks collect them.
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    // lint: ordering-ok(disabled-recorder fast path; a stale zero only skips a count near an enable transition)
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return;
    }
    counter_add_slow(&[(counter, n)]);
}

/// Adds a batch of counter increments in one call: the same single-load
/// fast path as [`counter_add`], and one thread-local lookup for the whole
/// batch instead of one per counter. Use at call sites that report several
/// counters back-to-back (e.g. best-first search statistics).
#[inline]
pub fn counter_add_many(counters: &[(Counter, u64)]) {
    // lint: ordering-ok(disabled-recorder fast path; a stale zero only skips counts near an enable transition)
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return;
    }
    counter_add_slow(counters);
}

#[cold]
fn counter_add_slow(counters: &[(Counter, u64)]) {
    CURRENT.with(|cell| {
        if let Some(recorder) = cell.borrow().as_ref() {
            for &(counter, n) in counters {
                recorder.add_counter(counter, n);
            }
        }
    });
}

/// The current thread's trace position, for handing across an orchestration
/// boundary: the active trace plus the span id new children should parent
/// to. `None` — after a single relaxed load on the disabled path — when no
/// trace is being built on this thread.
///
/// Capture the context *before* a fork-join pool call and reopen spans at
/// the orchestration level with [`enter_in_context`]; spans never fire
/// inside pool closures (the `trace-in-fjpool-closure` lint pins this), so
/// the handoff is explicit and the parallel section stays deterministic.
#[inline]
pub fn current_context() -> Option<TraceContext> {
    // lint: ordering-ok(disabled-recorder fast path; a stale zero only skips one context capture near an enable transition)
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    TRACE.with(|cell| {
        cell.borrow().as_ref().map(|active| TraceContext {
            trace: active.trace,
            parent: active.current_parent(),
        })
    })
}

/// [`enter_with`], but parenting the span to an explicit [`TraceContext`]
/// captured earlier with [`current_context`] instead of the thread's open
/// span stack. Falls back to stack parenting when `context` is `None` or
/// names a different trace than the one active on this thread.
#[inline]
pub fn enter_in_context(context: Option<TraceContext>, stage: Stage, attr: u64) -> SpanGuard {
    // lint: ordering-ok(disabled-recorder fast path; a stale zero only skips a span near an enable transition)
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return SpanGuard::noop();
    }
    enter_slow(stage, attr, context)
}

/// [`enter`], with a free-form attribute attached to the span event.
#[inline]
pub fn enter_with(stage: Stage, attr: u64) -> SpanGuard {
    // lint: ordering-ok(disabled-recorder fast path; a stale zero only skips a span near an enable transition)
    if ENABLED_RECORDERS.load(Ordering::Relaxed) == 0 {
        return SpanGuard::noop();
    }
    enter_slow(stage, attr, None)
}

#[cold]
fn enter_slow(stage: Stage, attr: u64, context: Option<TraceContext>) -> SpanGuard {
    CURRENT.with(|cell| {
        let current = cell.borrow();
        match current.as_ref() {
            Some(recorder) if recorder.is_enabled() => {
                let depth = DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                let (trace, span_id, parent_id) = TRACE.with(|t| {
                    match t.borrow_mut().as_mut() {
                        Some(active) => {
                            // An explicit context wins only when it names
                            // this thread's trace; a stale handoff from a
                            // different request falls back to the stack.
                            let explicit = context
                                .filter(|ctx| ctx.trace == active.trace)
                                .map(|ctx| ctx.parent);
                            let (id, parent) = active.open(explicit);
                            (active.trace.as_u64(), id, parent)
                        }
                        None => (0, 0, 0),
                    }
                });
                SpanGuard(Some(ActiveSpan {
                    recorder: Arc::clone(recorder),
                    stage,
                    depth: depth.min(u32::from(u8::MAX)) as u8,
                    attr,
                    start: Instant::now(),
                    trace,
                    span_id,
                    parent_id,
                }))
            }
            _ => SpanGuard::noop(),
        }
    })
}

/// Opens a [`SpanGuard`] for a stage: `span!(Stage::Discovery)`, with an
/// optional attribute — `span!(Stage::EntropyScoring, rel_type = id)` or
/// `span!(Stage::Algorithm, candidates)`. The attribute name is
/// documentation only; the value is stored as a `u64` on the span event.
#[macro_export]
macro_rules! span {
    ($stage:expr) => {
        $crate::enter($stage)
    };
    ($stage:expr, $name:ident = $attr:expr) => {
        $crate::enter_with($stage, $attr as u64)
    };
    ($stage:expr, $attr:expr) => {
        $crate::enter_with($stage, $attr as u64)
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Serialises tests that observe the process-global enabled count.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_process_records_nothing() {
        let _serial = serial();
        // No enabled recorder anywhere: guard is a no-op even when attached.
        let recorder = Arc::new(Recorder::default());
        let _attach = recorder.attach();
        let guard = enter(Stage::Request);
        assert!(!guard.is_recording());
        drop(guard);
        assert_eq!(recorder.stage_histogram(Stage::Request).count(), 0);
        assert_eq!(recorder.events_recorded(), 0);
    }

    #[test]
    fn enabled_and_attached_records_nested_spans() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        let _attach = recorder.attach();
        {
            let _request = span!(Stage::Request);
            {
                let mut discovery = span!(Stage::Discovery, candidates = 3);
                discovery.set_attr(9);
            }
        }
        recorder.disable();
        assert_eq!(recorder.stage_histogram(Stage::Request).count(), 1);
        assert_eq!(recorder.stage_histogram(Stage::Discovery).count(), 1);
        let events = recorder.ring_snapshot();
        assert_eq!(events.len(), 2);
        // Inner span drops first, so it is the older ring entry.
        assert_eq!(events[0].stage, Stage::Discovery);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[0].attr, 9);
        assert_eq!(events[1].stage, Stage::Request);
        assert_eq!(events[1].depth, 0);
    }

    #[test]
    fn unattached_thread_records_nothing_while_another_recorder_is_enabled() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        // This thread never attached `recorder`; even though the global
        // enabled count is non-zero, the slow path finds no attachment.
        let handle = std::thread::spawn(|| enter(Stage::Request).is_recording());
        assert!(!handle.join().unwrap());
        recorder.disable();
    }

    #[test]
    fn attach_guard_restores_previous_recorder() {
        let _serial = serial();
        let outer = Arc::new(Recorder::default());
        let inner = Arc::new(Recorder::default());
        outer.enable();
        inner.enable();
        let _outer_attach = outer.attach();
        {
            let _inner_attach = inner.attach();
            drop(span!(Stage::Algorithm));
        }
        drop(span!(Stage::Response));
        outer.disable();
        inner.disable();
        assert_eq!(inner.stage_histogram(Stage::Algorithm).count(), 1);
        assert_eq!(inner.stage_histogram(Stage::Response).count(), 0);
        assert_eq!(outer.stage_histogram(Stage::Response).count(), 1);
        assert_eq!(outer.stage_histogram(Stage::Algorithm).count(), 0);
    }

    #[test]
    fn counters_and_dumps_work_while_disabled() {
        let recorder = Recorder::new(ObsConfig::default().with_slow_threshold(1_000_000));
        recorder.add_counter(Counter::Publishes, 3);
        assert_eq!(recorder.counter(Counter::Publishes), 3);
        recorder.record_span(Stage::Discovery, 1, 0, 10, 0);
        // An inactive guard still retains a panicked request: span-less,
        // with its reasons, detail and the ring.
        let tguard = recorder.begin_trace(TraceId::from_seq(0), Instant::now());
        tguard.finish(Duration::ZERO, TraceOutcome::Panic, || "boom".to_string());
        // Errors and fast requests are not retained without spans, and
        // their detail is never built.
        for outcome in [TraceOutcome::Error, TraceOutcome::Ok] {
            recorder
                .begin_trace(TraceId::from_seq(1), Instant::now())
                .finish(Duration::ZERO, outcome, || {
                    panic!("detail of a dropped trace")
                });
        }
        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].reasons, vec![RetainReason::Panic]);
        assert_eq!(trees[0].detail, "boom");
        assert!(trees[0].spans.is_empty());
        assert_eq!(trees[0].ring.len(), 1);
        assert_eq!(trees[0].ring[0].stage, Stage::Discovery);
        assert_eq!(recorder.counter(Counter::PanicDumps), 1);
        assert_eq!(recorder.counter(Counter::SlowDumps), 0);
    }

    #[test]
    fn slow_threshold_gates_slow_dumps() {
        let recorder = Recorder::new(ObsConfig::default().with_slow_threshold(1_000));
        recorder
            .begin_trace(TraceId::from_seq(0), Instant::now())
            .finish(Duration::ZERO, TraceOutcome::Ok, || panic!("fast request"));
        assert!(recorder.traces().is_empty());
        let tguard = recorder.begin_trace(TraceId::from_seq(1), Instant::now());
        std::thread::sleep(Duration::from_millis(2));
        tguard.finish(Duration::ZERO, TraceOutcome::Ok, || "slow".to_string());
        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].reasons, vec![RetainReason::Slow]);
        assert_eq!(recorder.counter(Counter::SlowDumps), 1);

        let unset = Recorder::default();
        let tguard = unset.begin_trace(TraceId::from_seq(0), Instant::now());
        std::thread::sleep(Duration::from_millis(2));
        tguard.finish(Duration::ZERO, TraceOutcome::Ok, || panic!("no threshold"));
        assert!(unset.traces().is_empty());
    }

    #[test]
    fn panic_unwind_still_records_open_spans() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::default());
        recorder.enable();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _attach = recorder.attach();
            let _request = span!(Stage::Request);
            panic!("boom");
        }));
        assert!(result.is_err());
        recorder.disable();
        assert_eq!(recorder.stage_histogram(Stage::Request).count(), 1);
        assert_eq!(recorder.ring_snapshot().len(), 1);
    }

    #[test]
    fn dropping_an_enabled_recorder_releases_the_global_count() {
        let _serial = serial();
        let before = ENABLED_RECORDERS.load(Ordering::Relaxed);
        {
            let recorder = Recorder::default();
            recorder.enable();
            recorder.enable(); // idempotent
            assert_eq!(ENABLED_RECORDERS.load(Ordering::Relaxed), before + 1);
        }
        assert_eq!(ENABLED_RECORDERS.load(Ordering::Relaxed), before);
    }

    #[test]
    fn traces_link_spans_to_parents_and_head_sampling_retains() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::new(ObsConfig::default().with_sample_every(1)));
        recorder.enable();
        let _attach = recorder.attach();
        let tguard = recorder.begin_trace(TraceId::from_seq(6), Instant::now());
        {
            let _outer = span!(Stage::Discovery);
            let context = current_context();
            assert_eq!(context.unwrap().trace, TraceId::from_seq(6));
            let _inner = enter_in_context(context, Stage::Algorithm, 5);
        }
        tguard.finish(Duration::from_micros(100), TraceOutcome::Ok, || {
            "graph=g".to_string()
        });
        recorder.disable();

        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.reasons, vec![RetainReason::Sampled]);
        assert_eq!(tree.detail, "graph=g");
        let root = *tree.root().unwrap();
        assert_eq!(root.stage, Stage::Request);
        assert_eq!(root.attr, 3, "three child spans in the tree");
        // Every non-root parent link resolves to a span in the tree.
        let ids: Vec<u32> = tree.spans.iter().map(|s| s.span_id).collect();
        for span in &tree.spans {
            assert!(span.parent_id == 0 || ids.contains(&span.parent_id));
        }
        let find = |stage: Stage| tree.spans.iter().find(|s| s.stage == stage).unwrap();
        let discovery = find(Stage::Discovery);
        let algorithm = find(Stage::Algorithm);
        assert_eq!(discovery.parent_id, root.span_id);
        assert_eq!(
            algorithm.parent_id, discovery.span_id,
            "context handoff parents correctly"
        );
        assert_eq!(algorithm.attr, 5);
        let queue = find(Stage::QueueWait);
        assert_eq!(queue.parent_id, root.span_id);
        assert_eq!(queue.duration_us, 100);
        // The queue-wait histogram's exemplar points back at this trace.
        // The root span reaches the ring but no histogram: request latency
        // is recorded once, by the serving layer.
        let snapshot = recorder.stage_histogram(Stage::QueueWait).snapshot();
        let raw = TraceId::from_seq(6).as_u64();
        assert!(snapshot.bucket_exemplars().contains(&raw));
        assert_eq!(recorder.stage_histogram(Stage::Request).count(), 0);
        let last = *recorder.ring_snapshot().last().unwrap();
        assert_eq!((last.stage, last.trace), (Stage::Request, raw));
        // A sampled-only tree carries no ring.
        assert!(tree.ring.is_empty());
    }

    #[test]
    fn slow_and_panicked_requests_are_dumped_once_with_joined_reasons() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::new(ObsConfig::default().with_slow_threshold(0)));
        recorder.enable();
        let _attach = recorder.attach();
        let tguard = recorder.begin_trace(TraceId::from_seq(0), Instant::now());
        std::thread::sleep(Duration::from_millis(2));
        tguard.finish(Duration::ZERO, TraceOutcome::Panic, || {
            "graph=g panic=boom".to_string()
        });
        recorder.disable();

        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1, "slow+panic retains one tree, not two");
        assert_eq!(
            trees[0].reasons,
            vec![RetainReason::Slow, RetainReason::Panic]
        );
        assert_eq!(trees[0].detail, "graph=g panic=boom");
        let stages: Vec<Stage> = trees[0].ring.iter().map(|e| e.stage).collect();
        assert_eq!(stages, vec![Stage::QueueWait, Stage::Request]);
        let json = crate::JsonValue::parse(&trees[0].to_json()).unwrap();
        let ring = json.get("ring").unwrap().as_array().unwrap();
        assert_eq!(ring[1].get("stage").unwrap().as_str(), Some("request"));
        assert_eq!(recorder.counter(Counter::SlowDumps), 1);
        assert_eq!(recorder.counter(Counter::PanicDumps), 1);
    }

    #[test]
    fn a_per_stage_threshold_marks_the_request_slow() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::new(
            ObsConfig::default().with_stage_threshold(Stage::QueueWait, 50),
        ));
        recorder.enable();
        let _attach = recorder.attach();
        let tguard = recorder.begin_trace(TraceId::from_seq(1), Instant::now());
        tguard.finish(Duration::from_micros(100), TraceOutcome::Ok, || {
            "graph=g".to_string()
        });
        recorder.disable();
        let trees = recorder.traces().trees();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].reasons, vec![RetainReason::Slow]);
        assert!(!trees[0].ring.is_empty());
        assert_eq!(recorder.counter(Counter::SlowDumps), 1);
    }

    #[test]
    fn begin_trace_on_a_disabled_recorder_is_inert() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::default());
        let tguard = recorder.begin_trace(TraceId::from_seq(0), Instant::now());
        tguard.finish(Duration::ZERO, TraceOutcome::Ok, String::new);
        assert!(recorder.traces().is_empty());
        assert_eq!(recorder.events_recorded(), 0);
    }

    #[test]
    fn counter_helpers_pay_one_load_when_nothing_is_enabled() {
        let _serial = serial();
        let recorder = Arc::new(Recorder::default());
        let _attach = recorder.attach();
        counter_add(Counter::Publishes, 3);
        counter_add_many(&[(Counter::Publishes, 2), (Counter::CacheCarried, 1)]);
        assert_eq!(
            recorder.counter(Counter::Publishes),
            0,
            "the fast path returns before touching thread-locals"
        );
        recorder.enable();
        counter_add(Counter::Publishes, 3);
        counter_add_many(&[(Counter::Publishes, 2), (Counter::CacheCarried, 1)]);
        recorder.disable();
        assert_eq!(recorder.counter(Counter::Publishes), 5);
        assert_eq!(recorder.counter(Counter::CacheCarried), 1);
    }
}
