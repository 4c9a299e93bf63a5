//! Load generator for the preview service.
//!
//! Replays a synthetic `datagen` workload (Zipf-skewed repeated requests)
//! against two service configurations — a 1-worker, cache-disabled baseline
//! and the full multi-worker cached service — and prints a JSON summary of
//! throughput, latency percentiles and cache behaviour. The service pass
//! runs with an enabled [`Recorder`], and its full [`ObsSnapshot`] rides
//! along in the summary under `"obs"` (per-stage histograms, counters,
//! retained trace trees).
//!
//! ```text
//! cargo run -p bench --release --bin preview-serve
//! cargo run -p bench --release --bin preview-serve -- --requests 2000 --workers 8
//! cargo run -p bench --release --bin preview-serve -- --out BENCH_service.json --check
//! ```

use bench::util::parse_checked as parse;
use std::process::ExitCode;
use std::sync::Arc;

use bench::service_workload::{synth_workload, workload_graph, ServiceWorkload, WorkloadSpec};
use datagen::FreebaseDomain;
use entity_graph::EntityGraph;
use preview_obs::{ObsSnapshot, Recorder};
use preview_service::{GraphRegistry, PreviewService, ServiceConfig};

struct Options {
    spec: WorkloadSpec,
    workers: usize,
    baseline_workers: usize,
    cache_capacity: usize,
    queue_capacity: usize,
    out: Option<String>,
    check: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec::default(),
            workers: 4,
            baseline_workers: 1,
            cache_capacity: 512,
            queue_capacity: 256,
            out: None,
            check: false,
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
            "--baseline-workers" => {
                options.baseline_workers =
                    parse(&value_of("--baseline-workers")?, |v: usize| v >= 1)?
            }
            "--cache-capacity" => {
                options.cache_capacity = parse(&value_of("--cache-capacity")?, |v: usize| v >= 1)?
            }
            "--queue-capacity" => {
                options.queue_capacity = parse(&value_of("--queue-capacity")?, |v: usize| v >= 1)?
            }
            "--out" => options.out = Some(value_of("--out")?),
            "--check" => options.check = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(options)
}

/// One measured service run over the whole workload.
struct PassSummary {
    label: &'static str,
    workers: usize,
    cache_enabled: bool,
    elapsed_s: f64,
    throughput_rps: f64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    latency_mean_us: f64,
    cache_hit_rate: f64,
    cache_evictions: u64,
    publishes: u64,
    cache_carried_forward: u64,
    cache_invalidated: u64,
    completed: u64,
    failed: u64,
}

/// Runs one measured pass; with `recorder`, the service is traced and its
/// [`ObsSnapshot`] is returned alongside the summary.
fn run_pass(
    label: &'static str,
    graph: &EntityGraph,
    workload: &ServiceWorkload,
    config: ServiceConfig,
    recorder: Option<Arc<Recorder>>,
) -> (PassSummary, Option<ObsSnapshot>) {
    let registry = Arc::new(GraphRegistry::new());
    registry
        .register_precomputed(&workload.graph_name, graph.clone(), &workload.configs)
        .expect("scoring the workload graph succeeds");
    let service = match &recorder {
        Some(recorder) => {
            recorder.enable();
            PreviewService::start_with_recorder(config, registry, Arc::clone(recorder))
        }
        None => PreviewService::start(config, registry),
    };

    let handles: Vec<_> = workload
        .requests
        .iter()
        .map(|request| service.submit(request.clone()).expect("queue accepts"))
        .collect();
    for handle in handles {
        handle.wait().expect("workload requests succeed");
    }

    let snapshot = recorder.as_ref().map(|recorder| {
        let snapshot = service.snapshot();
        recorder.disable();
        snapshot
    });
    let stats = service.shutdown();
    let summary = PassSummary {
        label,
        workers: config.workers,
        cache_enabled: config.cache_capacity > 0,
        elapsed_s: stats.elapsed.as_secs_f64(),
        throughput_rps: stats.throughput_rps,
        latency_p50_us: stats.latency_p50_us,
        latency_p99_us: stats.latency_p99_us,
        latency_mean_us: stats.latency_mean_us,
        cache_hit_rate: stats.cache.hit_rate(),
        cache_evictions: stats.cache.evictions,
        publishes: stats.publishes,
        cache_carried_forward: stats.cache_carried_forward,
        cache_invalidated: stats.cache_invalidated,
        completed: stats.completed,
        failed: stats.failed,
    };
    (summary, snapshot)
}

fn pass_json(pass: &PassSummary) -> String {
    format!(
        concat!(
            "{{\"label\":\"{}\",\"workers\":{},\"cache_enabled\":{},",
            "\"elapsed_s\":{:.4},\"throughput_rps\":{:.2},",
            "\"latency_p50_us\":{},\"latency_p99_us\":{},\"latency_mean_us\":{:.1},",
            "\"cache_hit_rate\":{:.4},\"cache_evictions\":{},",
            "\"publishes\":{},\"cache_carried_forward\":{},\"cache_invalidated\":{},",
            "\"completed\":{},\"failed\":{}}}"
        ),
        pass.label,
        pass.workers,
        pass.cache_enabled,
        pass.elapsed_s,
        pass.throughput_rps,
        pass.latency_p50_us,
        pass.latency_p99_us,
        pass.latency_mean_us,
        pass.cache_hit_rate,
        pass.cache_evictions,
        pass.publishes,
        pass.cache_carried_forward,
        pass.cache_invalidated,
        pass.completed,
        pass.failed,
    )
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
        "[preview-serve] generating domain {:?} at scale {} ...",
        options.spec.domain.name(),
        options.spec.scale
    );
    let graph = workload_graph(&options.spec);
    let workload = synth_workload(&options.spec);
    eprintln!(
        "[preview-serve] {} requests over {} unique keys ({:.0}% repeated)",
        workload.requests.len(),
        workload.unique_keys,
        workload.repeated_fraction * 100.0
    );

    eprintln!(
        "[preview-serve] baseline pass: {} worker(s), cache disabled ...",
        options.baseline_workers
    );
    let (baseline, _) = run_pass(
        "baseline",
        &graph,
        &workload,
        ServiceConfig {
            workers: options.baseline_workers,
            queue_capacity: options.queue_capacity,
            cache_capacity: 0,
            cache_shards: 1,
        },
        None,
    );
    eprintln!(
        "[preview-serve] service pass: {} worker(s), cache capacity {} ...",
        options.workers, options.cache_capacity
    );
    let (service, obs) = run_pass(
        "service",
        &graph,
        &workload,
        ServiceConfig {
            workers: options.workers,
            queue_capacity: options.queue_capacity,
            cache_capacity: options.cache_capacity,
            cache_shards: 8,
        },
        Some(Arc::new(Recorder::default())),
    );
    let obs = obs.expect("the traced pass returns a snapshot");

    let speedup = if baseline.throughput_rps > 0.0 {
        service.throughput_rps / baseline.throughput_rps
    } else {
        0.0
    };
    let json = format!(
        concat!(
            "{{\"workload\":{{\"domain\":\"{}\",\"scale\":{},\"seed\":{},",
            "\"requests\":{},\"unique_keys\":{},\"repeated_fraction\":{:.4}}},\n",
            " \"baseline\":{},\n",
            " \"service\":{},\n",
            " \"speedup\":{:.2},\n",
            " \"peak_rss_bytes\":{},\n",
            " \"obs\":{}}}"
        ),
        workload.graph_name,
        options.spec.scale,
        options.spec.seed,
        workload.requests.len(),
        workload.unique_keys,
        workload.repeated_fraction,
        pass_json(&baseline),
        pass_json(&service),
        speedup,
        bench::util::json_opt_u64(bench::util::peak_rss_bytes()),
        obs.to_json(),
    );
    println!("{json}");
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path:?}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[preview-serve] summary written to {path}");
    }

    if options.check {
        let mut failures = Vec::new();
        if workload.repeated_fraction < 0.5 {
            failures.push(format!(
                "repeated fraction {:.2} < 0.5",
                workload.repeated_fraction
            ));
        }
        if service.cache_hit_rate < 0.4 {
            failures.push(format!(
                "cache hit rate {:.2} < 0.4",
                service.cache_hit_rate
            ));
        }
        if service.throughput_rps <= baseline.throughput_rps {
            failures.push(format!(
                "service throughput {:.0} rps not above baseline {:.0} rps",
                service.throughput_rps, baseline.throughput_rps
            ));
        }
        if baseline.failed + service.failed > 0 {
            failures.push("requests failed".to_string());
        }
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("check failed: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[preview-serve] checks passed: hit rate {:.2}, speedup {:.2}x",
            service.cache_hit_rate, speedup
        );
    }
    ExitCode::SUCCESS
}
