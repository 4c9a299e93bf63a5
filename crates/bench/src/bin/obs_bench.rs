//! Observability overhead benchmark and snapshot schema gate.
//!
//! Replays the same Zipf-skewed service workload three times per round —
//! two passes with the recorder *disabled* (the production default, where
//! every `span!` is a single relaxed atomic load) and one with it *enabled*
//! (full span recording into histograms and the flight ring) — interleaved
//! so load drift hits all series alike. Overhead is judged on paired
//! per-round ratios (best round wins), and `--check` enforces the floors
//! the `preview-obs` crate promises:
//!
//! * **disabled**: the second disabled pass within 1% of the first (the
//!   two run identical code, so this gates that the disabled path has no
//!   measurable cost beyond run-to-run noise),
//! * **enabled**: within 5% of the faster disabled pass of its round.
//!
//! A floor miss re-measures the whole sweep a couple of times (keeping the
//! per-series minima) before failing, so a CI load spike cannot flake the
//! gate. The enabled passes run with head sampling on, so the gated path
//! includes the full trace-tree pipeline (span parenting, retention
//! decisions), not just histogram recording.
//!
//! Independently of timing, one unmeasured enabled pass produces an
//! [`ObsSnapshot`](preview_obs::ObsSnapshot) whose JSON must parse with the crate's own parser and
//! enumerate every stage and counter, with exact request counts in the
//! queue-wait and service-latency histograms.
//!
//! A final *trace check* scenario drives tail-based sampling end to end:
//! the Zipf workload runs under a slow-request threshold with windowed
//! metrics and an SLO attached, then one injected-slow request and one
//! injected-slow-and-panicking request are served from cold graphs. The
//! scenario asserts both trace trees are retained with correct parent
//! links, the slow tree's stage spans sum to its root span, the latency
//! histogram's top bucket carries the slow trace id as its exemplar, the
//! SLO burn rate flips from zero to positive, the slow+panic request is
//! retained exactly once with both reasons and a ring holding its span
//! trail, every retained tree's JSON carries a `ring` array that parses,
//! and the Prometheus rendering re-parses numerically equal to the
//! snapshot.
//!
//! ```text
//! cargo run -p bench --release --bin obs-bench
//! cargo run -p bench --release --bin obs-bench -- --out BENCH_obs.json --check
//! cargo run -p bench --release --bin obs-bench -- --top   # one-shot dashboard
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bench::service_workload::{synth_workload, workload_graph, ServiceWorkload, WorkloadSpec};
use bench::util::parse_checked as parse;
use datagen::FreebaseDomain;
use entity_graph::EntityGraph;
use preview_obs::{
    render_top, roundtrip_failures, Counter, JsonValue, ObsConfig, Recorder, RetainReason, SloSpec,
    Stage, TimeSeriesConfig, TraceTree,
};
use preview_service::{GraphRegistry, PreviewService, ServiceConfig};

/// Overhead floors enforced by `--check`.
const DISABLED_OVERHEAD_FLOOR: f64 = 0.01;
const ENABLED_OVERHEAD_FLOOR: f64 = 0.05;
/// Extra full sweeps after a floor miss before failing.
const CHECK_RETRIES: usize = 2;

struct Options {
    spec: WorkloadSpec,
    workers: usize,
    rounds: usize,
    out: Option<String>,
    check: bool,
    top: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec {
                scale: 5e-5,
                requests: 400,
                ..WorkloadSpec::default()
            },
            workers: 2,
            rounds: 3,
            out: None,
            check: false,
            top: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--requests" => {
                options.spec.requests = parse(&value_of("--requests")?, |v: usize| v >= 1)?
            }
            "--unique" => options.spec.unique = parse(&value_of("--unique")?, |v: usize| v >= 1)?,
            "--seed" => options.spec.seed = parse(&value_of("--seed")?, |_: u64| true)?,
            "--scale" => {
                options.spec.scale =
                    parse(&value_of("--scale")?, |v: f64| v > 0.0 && v.is_finite())?
            }
            "--domain" => {
                let name = value_of("--domain")?;
                options.spec.domain = FreebaseDomain::from_name(&name)
                    .ok_or_else(|| format!("unknown domain {name:?}"))?;
            }
            "--workers" => options.workers = parse(&value_of("--workers")?, |v: usize| v >= 1)?,
            "--rounds" => options.rounds = parse(&value_of("--rounds")?, |v: usize| v >= 1)?,
            "--out" => options.out = Some(value_of("--out")?),
            "--check" => options.check = true,
            "--top" => options.top = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

/// One pass over the whole workload against a fresh service; returns the
/// elapsed seconds (and the service, so the snapshot pass can export it).
fn run_pass(
    graph: &EntityGraph,
    workload: &ServiceWorkload,
    options: &Options,
    recorder: Arc<Recorder>,
) -> (f64, PreviewService) {
    let registry = Arc::new(GraphRegistry::new());
    registry
        .register_precomputed(&workload.graph_name, graph.clone(), &workload.configs)
        .expect("scoring the workload graph succeeds");
    let service = PreviewService::start_with_recorder(
        ServiceConfig {
            workers: options.workers,
            queue_capacity: 256,
            cache_capacity: 512,
            cache_shards: 8,
        },
        registry,
        recorder,
    );
    let start = Instant::now();
    let handles: Vec<_> = workload
        .requests
        .iter()
        .map(|request| service.submit(request.clone()).expect("queue accepts"))
        .collect();
    for handle in handles {
        handle.wait().expect("workload requests succeed");
    }
    (start.elapsed().as_secs_f64(), service)
}

/// Per-series minima and best *paired* per-round ratios over one or more
/// interleaved sweeps.
///
/// Overhead is judged per round: all three passes in a round run back to
/// back under the same machine load, so their ratio cancels the slow drift
/// (thermal throttling, co-tenants) that makes cross-round minima flaky.
/// The best ratio across rounds stands for the gate — if any round shows
/// the enabled pass within the floor of its own baseline, the instrumented
/// path genuinely costs no more than that.
#[derive(Clone, Copy)]
struct SeriesMinima {
    baseline_s: f64,
    disabled_s: f64,
    enabled_s: f64,
    disabled_overhead: f64,
    enabled_overhead: f64,
}

impl SeriesMinima {
    const EMPTY: SeriesMinima = SeriesMinima {
        baseline_s: f64::INFINITY,
        disabled_s: f64::INFINITY,
        enabled_s: f64::INFINITY,
        disabled_overhead: f64::INFINITY,
        enabled_overhead: f64::INFINITY,
    };
}

/// Runs `rounds` interleaved baseline/disabled/enabled passes, folding the
/// observed times and per-round overhead ratios into `minima`.
fn sweep(
    graph: &EntityGraph,
    workload: &ServiceWorkload,
    options: &Options,
    mut minima: SeriesMinima,
) -> SeriesMinima {
    for round in 0..options.rounds {
        let (baseline_s, _) = run_pass(graph, workload, options, Arc::new(Recorder::default()));
        let (disabled_s, _) = run_pass(graph, workload, options, Arc::new(Recorder::default()));
        // Head sampling on: the enabled gate covers the trace-tree pipeline
        // (per-request span parenting and retention), not just histograms.
        let enabled = Arc::new(Recorder::new(ObsConfig::default().with_sample_every(8)));
        enabled.enable();
        let (enabled_s, _) = run_pass(graph, workload, options, Arc::clone(&enabled));
        enabled.disable();
        minima.baseline_s = minima.baseline_s.min(baseline_s);
        minima.disabled_s = minima.disabled_s.min(disabled_s);
        minima.enabled_s = minima.enabled_s.min(enabled_s);
        // The baseline and disabled passes run identical code, so either is
        // a fair denominator; the faster one is the stricter comparison the
        // round supports.
        minima.disabled_overhead = minima.disabled_overhead.min(disabled_s / baseline_s - 1.0);
        minima.enabled_overhead = minima
            .enabled_overhead
            .min(enabled_s / baseline_s.min(disabled_s) - 1.0);
        eprintln!(
            "[obs-bench] round {}: baseline {:.4}s, disabled {:.4}s, enabled {:.4}s",
            round + 1,
            baseline_s,
            disabled_s,
            enabled_s
        );
    }
    minima
}

/// Structural requirements on the enabled-pass snapshot JSON. Returns the
/// failures (empty when the document is sound).
fn snapshot_failures(json: &str, requests: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let parsed = match JsonValue::parse(json) {
        Ok(parsed) => parsed,
        Err(error) => return vec![format!("snapshot JSON does not parse: {error}")],
    };
    match parsed.get("stages").and_then(|s| s.as_object()) {
        Some(stages) => {
            for stage in Stage::ALL {
                match stages.get(stage.name()) {
                    None => failures.push(format!("stage {:?} missing", stage.name())),
                    Some(entry) => {
                        if entry.get("p99_us").and_then(|v| v.as_u64()).is_none() {
                            failures.push(format!("stage {:?} lacks p99_us", stage.name()));
                        }
                    }
                }
            }
            let count = stages
                .get(Stage::QueueWait.name())
                .and_then(|e| e.get("count"))
                .and_then(|c| c.as_u64());
            if count != Some(requests) {
                failures.push(format!(
                    "stage \"queue_wait\" count {count:?} != {requests}"
                ));
            }
        }
        None => failures.push("stages object missing".to_string()),
    }
    match parsed.get("counters").and_then(|c| c.as_object()) {
        Some(counters) => {
            for counter in Counter::ALL {
                if !counters.contains_key(counter.name()) {
                    failures.push(format!("counter {:?} missing", counter.name()));
                }
            }
        }
        None => failures.push("counters object missing".to_string()),
    }
    let latency_count = parsed
        .get("service_latency")
        .and_then(|l| l.get("count"))
        .and_then(|c| c.as_u64());
    if latency_count != Some(requests) {
        failures.push(format!(
            "service_latency count {latency_count:?} != {requests}"
        ));
    }
    if parsed.get("enabled") != Some(&JsonValue::Bool(true)) {
        failures.push("snapshot does not report enabled=true".to_string());
    }
    failures
}

/// Structural checks on one retained trace tree: exactly one root (span id
/// 1, parent 0), every non-root span's parent resolves, and — when
/// `check_sum` is set — the direct children of the root account for the
/// root's duration within clock resolution.
fn tree_failures(tree: &TraceTree, label: &str, check_sum: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent_id == 0).collect();
    if roots.len() != 1 {
        failures.push(format!(
            "{label}: {} roots, expected exactly 1",
            roots.len()
        ));
        return failures;
    }
    let root = roots[0];
    if root.stage != Stage::Request {
        failures.push(format!("{label}: root stage is {:?}", root.stage.name()));
    }
    for span in &tree.spans {
        if span.parent_id != 0 && !tree.spans.iter().any(|s| s.span_id == span.parent_id) {
            failures.push(format!(
                "{label}: span {} ({}) has unresolvable parent {}",
                span.span_id,
                span.stage.name(),
                span.parent_id
            ));
        }
    }
    if check_sum {
        let child_sum: u64 = tree
            .spans
            .iter()
            .filter(|s| s.parent_id == root.span_id)
            .map(|s| s.duration_us)
            .sum();
        // Root = queue wait + compute + bookkeeping; the untracked gaps
        // (resolve, stats, clock quantization) must stay within 10% of the
        // root or 20ms, whichever is larger.
        let tolerance = (root.duration_us / 10).max(20_000);
        if child_sum > root.duration_us || root.duration_us - child_sum > tolerance {
            failures.push(format!(
                "{label}: stage spans sum to {child_sum}us vs root {}us (tolerance {tolerance}us)",
                root.duration_us
            ));
        }
    }
    failures
}

/// Outcome of the tail-sampling end-to-end scenario.
struct TraceCheck {
    burn_before: f64,
    burn_after: f64,
    retained: usize,
    failures: Vec<String>,
    snapshot: preview_obs::ObsSnapshot,
}

/// Drives tail-based sampling end to end: the Zipf workload under a
/// slow-request threshold + windowed metrics + one SLO, then an injected
/// 400ms request on a cold graph and an injected slow-and-panicking
/// request on another, asserting retention, parent links, span sums,
/// exemplar linkage, the panic tree's ring, SLO burn flip, and export
/// round-trip.
fn trace_check(graph: &EntityGraph, workload: &ServiceWorkload, options: &Options) -> TraceCheck {
    const SLOW_THRESHOLD_US: u64 = 250_000;
    const SLO_THRESHOLD_US: u64 = 50_000;
    let mut failures = Vec::new();

    let recorder = Arc::new(Recorder::new(
        ObsConfig::default()
            .with_slow_threshold(SLOW_THRESHOLD_US)
            .with_stage_threshold(Stage::Discovery, 200_000),
    ));
    recorder.enable();
    let registry = Arc::new(GraphRegistry::new());
    registry
        .register_precomputed(&workload.graph_name, graph.clone(), &workload.configs)
        .expect("scoring the workload graph succeeds");
    // Plainly-registered cold graphs: their first request always computes,
    // so the injected delay/panic fire inside a real discovery span.
    registry.register("slowg", graph.clone());
    registry.register("panicg", graph.clone());
    let service = PreviewService::start_with_recorder(
        ServiceConfig {
            workers: options.workers,
            queue_capacity: 256,
            cache_capacity: 512,
            cache_shards: 8,
        },
        registry,
        Arc::clone(&recorder),
    );
    service.configure_timeseries(TimeSeriesConfig {
        resolution_us: 0,
        window_ticks: 60,
    });
    service.add_slo(SloSpec::new("latency-p99", 0.99, SLO_THRESHOLD_US));
    service.tick_metrics(); // seed the baseline

    // Phase 1: the plain workload, submitted sequentially so queue wait
    // cannot push honest requests over the SLO threshold.
    for request in &workload.requests {
        service
            .submit_wait(request.clone())
            .expect("workload requests succeed");
    }
    service.tick_metrics();
    let before = service.snapshot();
    let burn_before = before.slos[0].slow_burn;
    if burn_before != 0.0 {
        failures.push(format!(
            "SLO burn is {burn_before} before any injected slowness"
        ));
    }
    if !before.traces.is_empty() {
        failures.push(format!(
            "{} trees retained before any retention trigger",
            before.traces.len()
        ));
    }

    // Phase 2: one injected-slow request on a cold graph.
    service.inject_delay_next(400_000);
    let mut slow_request = workload.requests[0].clone();
    slow_request.graph = "slowg".to_string();
    let slow_response = service
        .submit_wait(slow_request)
        .expect("slow request succeeds");
    service.tick_metrics();
    let slow_trace = slow_response.trace.expect("worker-served response traced");

    // Phase 3: one injected slow-and-panicking request on another cold
    // graph; the caller sees the typed panic error.
    service.inject_delay_next(300_000);
    service.inject_panic_next();
    let mut panic_request = workload.requests[0].clone();
    panic_request.graph = "panicg".to_string();
    if service.submit_wait(panic_request).is_ok() {
        failures.push("injected panic did not surface as an error".to_string());
    }

    let snapshot = service.snapshot();
    let burn_after = snapshot.slos[0].slow_burn;
    if burn_after <= 0.0 {
        failures.push(format!(
            "SLO burn did not flip positive after the injected slow tail ({burn_after})"
        ));
    }

    // Retention: exactly the two injected requests, each with the right
    // typed reasons, well-formed parent links, and the slow tree's stage
    // spans summing to its root span.
    match snapshot.traces.iter().find(|t| t.trace == slow_trace) {
        None => failures.push("injected slow request's tree not retained".to_string()),
        Some(tree) => {
            if tree.reasons != vec![RetainReason::Slow] {
                failures.push(format!("slow tree reasons {:?}", tree.reasons));
            }
            if !tree.detail.contains("graph=slowg") {
                failures.push(format!("slow tree detail {:?}", tree.detail));
            }
            failures.extend(tree_failures(tree, "slow tree", true));
        }
    }
    // The slow-and-panicked request is retained once, with both reasons,
    // and its ring holds the span trail up to its root.
    let panic_trees: Vec<&TraceTree> = snapshot
        .traces
        .iter()
        .filter(|t| t.reasons.contains(&RetainReason::Panic))
        .collect();
    match panic_trees.as_slice() {
        [tree] => {
            if tree.reasons != vec![RetainReason::Slow, RetainReason::Panic] {
                failures.push(format!("panic tree reasons {:?}", tree.reasons));
            }
            if !tree.detail.contains("graph=panicg") {
                failures.push(format!("panic tree detail {:?}", tree.detail));
            }
            for stage in [Stage::Discovery, Stage::Request] {
                if !tree.ring.iter().any(|e| e.stage == stage) {
                    failures.push(format!("panic tree ring lacks a {:?} event", stage.name()));
                }
            }
            failures.extend(tree_failures(tree, "panic tree", false));
        }
        trees => failures.push(format!(
            "{} panicking-request trees retained, expected exactly 1",
            trees.len()
        )),
    }

    // Every retained tree's JSON carries a `ring` array that parses.
    for tree in &snapshot.traces {
        let ring = JsonValue::parse(&tree.to_json())
            .ok()
            .and_then(|json| json.get("ring").and_then(|r| r.as_array()).map(|r| r.len()));
        if ring != Some(tree.ring.len()) {
            failures.push(format!(
                "tree {} JSON ring {ring:?} != {} events",
                tree.trace,
                tree.ring.len()
            ));
        }
    }

    // Exemplar linkage: the top non-empty service-latency bucket (the
    // injected 400ms request) carries the slow trace id.
    match &snapshot.service_latency {
        None => failures.push("service latency histogram missing".to_string()),
        Some(latency) => {
            let top = latency.bucket_counts().iter().rposition(|&c| c > 0);
            match top {
                None => failures.push("service latency histogram empty".to_string()),
                Some(bucket) => {
                    let exemplar = latency.bucket_exemplars()[bucket];
                    if exemplar != slow_trace.as_u64() {
                        failures.push(format!(
                            "top-bucket exemplar {exemplar:#x} != slow trace {:#x}",
                            slow_trace.as_u64()
                        ));
                    }
                }
            }
        }
    }

    // The Prometheus rendering of this snapshot re-parses numerically equal.
    for failure in roundtrip_failures(&snapshot) {
        failures.push(format!("prometheus round-trip: {failure}"));
    }

    recorder.disable();
    TraceCheck {
        burn_before,
        burn_after,
        retained: snapshot.traces.len(),
        failures,
        snapshot,
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "[obs-bench] generating domain {:?} at scale {} ...",
        options.spec.domain.name(),
        options.spec.scale
    );
    let graph = workload_graph(&options.spec);
    let workload = synth_workload(&options.spec);
    eprintln!(
        "[obs-bench] {} requests over {} unique keys, {} worker(s), {} round(s)",
        workload.requests.len(),
        workload.unique_keys,
        options.workers,
        options.rounds
    );

    let mut minima = sweep(&graph, &workload, &options, SeriesMinima::EMPTY);
    if options.check {
        let mut attempt = 0;
        while (minima.disabled_overhead > DISABLED_OVERHEAD_FLOOR
            || minima.enabled_overhead > ENABLED_OVERHEAD_FLOOR)
            && attempt < CHECK_RETRIES
        {
            attempt += 1;
            eprintln!(
                "[obs-bench] overhead floors missed (disabled {:+.2}%, enabled {:+.2}%), \
                 re-measuring (attempt {attempt}) ...",
                minima.disabled_overhead * 100.0,
                minima.enabled_overhead * 100.0
            );
            minima = sweep(&graph, &workload, &options, minima);
        }
    }

    // One unmeasured enabled pass drives the snapshot/schema gate: the
    // recorder is configured with a slow threshold so the slow-retention
    // check runs on every request.
    let snapshot_recorder = Arc::new(Recorder::new(ObsConfig {
        slow_threshold_us: Some(10_000_000),
        ..ObsConfig::default()
    }));
    snapshot_recorder.enable();
    let (_, service) = run_pass(&graph, &workload, &options, Arc::clone(&snapshot_recorder));
    let snapshot_json = service.snapshot().to_json();
    snapshot_recorder.disable();
    drop(service);
    let schema_failures = snapshot_failures(&snapshot_json, workload.requests.len() as u64);

    // Tail-sampling end-to-end scenario (trace retention, exemplars, SLO
    // burn flip, the panic tree's ring, Prometheus round-trip).
    eprintln!("[obs-bench] running trace-retention scenario ...");
    let trace = trace_check(&graph, &workload, &options);
    for failure in &trace.failures {
        eprintln!("[obs-bench] trace check: {failure}");
    }
    if options.top {
        println!("{}", render_top(&trace.snapshot));
    }

    let json = format!(
        concat!(
            "{{\"workload\":{{\"domain\":\"{}\",\"scale\":{},\"seed\":{},",
            "\"requests\":{},\"unique_keys\":{},\"workers\":{},\"rounds\":{}}},\n",
            " \"series\":{{\"baseline_s\":{:.6},\"disabled_s\":{:.6},\"enabled_s\":{:.6}}},\n",
            " \"overhead\":{{\"disabled\":{:.6},\"enabled\":{:.6}}},\n",
            " \"check\":{{\"disabled_floor\":{},\"enabled_floor\":{},\"snapshot_sound\":{}}},\n",
            " \"trace_check\":{{\"burn_before\":{:.6},\"burn_after\":{:.6},",
            "\"retained\":{},\"sound\":{}}},\n",
            " \"snapshot\":{}}}"
        ),
        workload.graph_name,
        options.spec.scale,
        options.spec.seed,
        workload.requests.len(),
        workload.unique_keys,
        options.workers,
        options.rounds,
        minima.baseline_s,
        minima.disabled_s,
        minima.enabled_s,
        minima.disabled_overhead,
        minima.enabled_overhead,
        DISABLED_OVERHEAD_FLOOR,
        ENABLED_OVERHEAD_FLOOR,
        schema_failures.is_empty(),
        trace.burn_before,
        trace.burn_after,
        trace.retained,
        trace.failures.is_empty(),
        snapshot_json,
    );
    println!("{json}");
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[obs-bench] summary written to {path}");
    }

    if options.check {
        let mut failures = schema_failures;
        failures.extend(trace.failures);
        if minima.disabled_overhead > DISABLED_OVERHEAD_FLOOR {
            failures.push(format!(
                "disabled overhead {:.2}% above the {:.0}% floor",
                minima.disabled_overhead * 100.0,
                DISABLED_OVERHEAD_FLOOR * 100.0
            ));
        }
        if minima.enabled_overhead > ENABLED_OVERHEAD_FLOOR {
            failures.push(format!(
                "enabled overhead {:.2}% above the {:.0}% floor",
                minima.enabled_overhead * 100.0,
                ENABLED_OVERHEAD_FLOOR * 100.0
            ));
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("check failed: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[obs-bench] checks passed: disabled {:+.2}%, enabled {:+.2}%, snapshot sound, \
             trace retention sound (burn {:.3} -> {:.3})",
            minima.disabled_overhead * 100.0,
            minima.enabled_overhead * 100.0,
            trace.burn_before,
            trace.burn_after
        );
    }
    ExitCode::SUCCESS
}
