//! Standing up the service, and publishing to it.

use std::sync::Arc;
use std::time::Duration;

use entity_graph::{EntityGraph, GraphDelta};
use preview_core::ScoringConfig;
use preview_obs::{AttachGuard, ObsConfig, Recorder};
use preview_service::{
    GraphRegistry, PreviewRequest, PreviewResponse, PreviewService, ServiceConfig,
};

use crate::inputs::{Answer, Reference, Updates, GRAPH};
use crate::layers::{Layers, SplitTotals};
use crate::measure::{median_of, ms, timed, Report, Samples, Stopwatch};
use crate::reads::Reads;
use crate::Args;

/// Worker threads of the service: one worker plus the one client thread
/// keeps both cores of a 2-core host busy without oversubscribing them.
pub const WORKERS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Untimed publish-and-refresh steps before the timed ones. The first
/// publishes of a process fault in the memory later publishes reuse, and
/// take up to half as long again.
pub const WARMUP_PUBLISHES: usize = 4;

/// A running service over a registry, with its recorder attached to the
/// benchmark thread (disabled until a traced op enables it).
pub struct Served {
    pub registry: Arc<GraphRegistry>,
    pub service: PreviewService,
    pub recorder: Arc<Recorder>,
    _attach: AttachGuard,
}

/// The timed parts of one set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    /// `GraphRegistry::register` alone.
    pub register: Duration,
    /// `RegisteredGraph::scored_for` of every precomputed configuration.
    pub scoring: Vec<Duration>,
    pub start: Duration,
    pub warmup: Duration,
    pub warmup_compute_ms: Samples,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        let scoring: Duration = self.scoring.iter().sum();
        (self.generate + self.register + scoring + self.start + self.warmup).as_secs_f64()
    }
}

/// What a set-up leaves behind: the service and the warm-up responses.
pub struct Setup {
    pub served: Served,
    pub warmup: Vec<Result<PreviewResponse, String>>,
    pub times: SetupTimes,
}

/// Registers `graph`, whose generation took `generate`, scores it under
/// `configs`, starts the service and sends each warm-up request once.
pub fn set_up(
    graph: EntityGraph,
    generate: Duration,
    configs: &[ScoringConfig],
    warmup: &[PreviewRequest],
) -> Result<Setup, String> {
    let mut times = SetupTimes {
        generate,
        ..SetupTimes::default()
    };
    let registry = Arc::new(GraphRegistry::new());
    let (registered, took) = timed(|| registry.register(GRAPH, graph));
    times.register = took;
    for config in configs {
        let (scored, took) = timed(|| registered.scored_for(config));
        scored.map_err(|e| e.to_string())?;
        times.scoring.push(took);
    }
    drop(registered);
    let ((service, recorder), took) = timed(|| {
        let recorder = Arc::new(Recorder::new(ObsConfig::default()));
        let config = ServiceConfig::with_workers(WORKERS);
        let service = PreviewService::start_with_recorder(
            config,
            Arc::clone(&registry),
            Arc::clone(&recorder),
        );
        (service, recorder)
    });
    times.start = took;
    let (responses, took) = timed(|| {
        warmup
            .iter()
            .map(|request| {
                service
                    .submit_wait(request.clone())
                    .map_err(|e| e.to_string())
            })
            .collect::<Vec<_>>()
    });
    times.warmup = took;
    for response in responses.iter().flatten() {
        if !response.cache_hit {
            times.warmup_compute_ms.push(ms(response.compute));
        }
    }
    let _attach = recorder.attach();
    Ok(Setup {
        served: Served {
            registry,
            service,
            recorder,
            _attach,
        },
        warmup: responses,
        times,
    })
}

/// Runs `once` [`SETUP_REPEATS`] times, dropping all but the last set-up
/// before the next starts. Returns the last with every set-up's times.
pub fn repeat_set_up(
    mut once: impl FnMut() -> Result<Setup, String>,
) -> Result<(Setup, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let mut setup = once()?;
        times.push(std::mem::take(&mut setup.times));
        last = Some(setup);
    }
    let setup = last.ok_or("no set-up ran")?;
    Ok((setup, times))
}

/// Recomputes the answer of every template directly on the latest version,
/// checks the warm-up responses (one per template) against them, and
/// returns them.
pub fn check_warmup(
    served: &Served,
    templates: &[PreviewRequest],
    warmup: &[Result<PreviewResponse, String>],
    report: &mut Report,
) -> Result<Vec<Answer>, String> {
    let expected = served.answers(templates)?;
    report.attempted += templates.len() as u64;
    for (warm, want) in warmup.iter().zip(&expected) {
        if !matches!(warm, Ok(response) if want.matches(response)) {
            report_failure(&format!("warm-up answer differs: {warm:?}"));
            report.failed += 1;
        }
    }
    Ok(expected)
}

/// `setup_s`: the median set-up time.
pub fn setup_s(times: &[SetupTimes]) -> f64 {
    median_of(&times.iter().map(SetupTimes::total_s).collect::<Vec<_>>())
}

/// Fills the set-up rows of `layers` with medians over the set-ups.
pub fn setup_layers(times: &[SetupTimes], layers: &mut Layers) {
    let med = |f: &dyn Fn(&SetupTimes) -> f64| median_of(&times.iter().map(f).collect::<Vec<_>>());
    layers.generate_s = med(&|t| t.generate.as_secs_f64());
    layers.register_s = med(&|t| (t.register + t.scoring.iter().sum::<Duration>()).as_secs_f64());
    layers.warmup_s = med(&|t| t.warmup.as_secs_f64());
}

/// Fills the register and scoring rows of `layers` from the set-ups, for
/// workloads whose timed ops never register or build scores: the plain
/// register and the slowest (entropy) scoring build.
pub fn setup_op_layers(times: &[SetupTimes], layers: &mut Layers) {
    for t in times {
        layers.register_ms.push(ms(t.register));
        layers
            .build_ms
            .push(t.scoring.iter().max().map_or(0.0, |&d| ms(d)));
    }
}

impl Served {
    /// Turns span recording on or off for the next op.
    pub fn trace(&self, on: bool) {
        if on {
            self.recorder.enable();
        } else {
            self.recorder.disable();
        }
    }

    /// The latest registered graph.
    pub fn latest_graph(&self) -> Result<Arc<EntityGraph>, String> {
        let registered = self
            .registry
            .resolve(GRAPH, None)
            .map_err(|e| e.to_string())?;
        Ok(Arc::clone(registered.graph()))
    }

    /// The answers `templates` must get on the latest version, recomputed
    /// directly (see [`Reference`]).
    pub fn answers(&self, templates: &[PreviewRequest]) -> Result<Vec<Answer>, String> {
        let graph = self.latest_graph()?;
        let mut reference = Reference::new(&graph);
        templates.iter().map(|t| reference.answer(t)).collect()
    }

    /// Times one `PreviewService::publish_delta` from outside; returns its
    /// milliseconds and, when the recorder is on, the milliseconds of delta
    /// apply and rescore inside it (zero otherwise).
    pub fn publish(&self, delta: &GraphDelta, layers: &mut Layers) -> Result<(f64, f64), String> {
        let traced = self.recorder.is_enabled();
        let before = SplitTotals::read(&self.recorder);
        let (report, took) = timed(|| self.service.publish_delta(GRAPH, delta));
        let report = report.map_err(|e| e.to_string())?;
        if !report.bumped || report.version != report.previous_version + 1 {
            return Err(format!("publish did not bump the version: {report:?}"));
        }
        let took = ms(took);
        if !traced {
            return Ok((took, 0.0));
        }
        let split = SplitTotals::read(&self.recorder).since_ms(&before);
        let (invalidated, carried) = (report.cache_invalidated, report.cache_carried_forward);
        layers.publish.record(took, split, invalidated, carried);
        Ok((took, split.0 + split.1))
    }

    /// Shared tail of every workload: live versions and neighbor-index
    /// memory of the latest graph.
    pub fn memory_layers(&self, layers: &mut Layers) -> Result<(), String> {
        layers.live_versions = self.registry.versions(GRAPH).len();
        let (_, total_bytes) = self.latest_graph()?.neighbor_index_bytes();
        layers.neighbor_index_mb = total_bytes as f64 / 1e6;
        Ok(())
    }
}

/// What one [`Churn::step`] leaves for the caller.
pub struct Step {
    /// The publish op's milliseconds and those of its traced parts (delta
    /// apply, rescore and refresh; zero when untraced), if it succeeded.
    pub publish: Option<(f64, f64)>,
    /// The answer every template must get on the published version.
    pub expected: Vec<Answer>,
}

/// Publishes, each timed until every template is fresh. A step draws a
/// delta from the seeded update stream against the latest version and
/// publishes it, timed from outside. It then recomputes every template's
/// answer on the published version, untimed, and reads every template once
/// (the refresh), timed. A publish invalidates the cached results of the
/// configurations it rescored, so the refresh reads all miss.
///
/// The publish op behind `publish_mean_ms` and `publish_p90_ms` is the
/// publish plus its refresh, so work a publish leaves to the reads that
/// follow stays in it. The refresh reads are kept apart from a workload's
/// other reads.
pub struct Churn {
    updates: Updates,
    refresh_reads: Reads,
    pub publish_ms: Samples,
    publish_failed: u64,
    /// Publishes and refresh reads of the warm-up, whose times are dropped.
    warmup_ops: usize,
}

impl Churn {
    pub fn new(seed: u64) -> Self {
        Self {
            updates: Updates::new(seed),
            refresh_reads: Reads::default(),
            publish_ms: Samples::default(),
            publish_failed: 0,
            warmup_ops: 0,
        }
    }

    /// Runs [`WARMUP_PUBLISHES`] untraced steps and drops their times;
    /// their answers are checked and their failures count.
    pub fn warm_up(
        &mut self,
        served: &Served,
        templates: &[PreviewRequest],
        layers: &mut Layers,
    ) -> Result<(), String> {
        for _ in 0..WARMUP_PUBLISHES {
            self.step(served, templates, (false, None), layers)?;
        }
        self.warmup_ops += self.publish_ms.len() + self.refresh_reads.latency_ms.len();
        self.publish_ms = Samples::default();
        self.refresh_reads.latency_ms = Samples::default();
        Ok(())
    }

    /// One publish and refresh. `trace_publish` traces the publish;
    /// `trace_reads` is passed to [`Reads::block`] for the refresh reads. A
    /// wrong or failed refresh read makes the publish op's time infinite.
    pub fn step(
        &mut self,
        served: &Served,
        templates: &[PreviewRequest],
        (trace_publish, trace_reads): (bool, Option<bool>),
        layers: &mut Layers,
    ) -> Result<Step, String> {
        let delta = self.updates.next(&*served.latest_graph()?);
        served.trace(trace_publish);
        let published = served.publish(&delta, layers);
        served.trace(false);
        let expected = served.answers(templates)?;
        let requests = templates.iter().cloned().enumerate();
        let check = |t: usize, r: &PreviewResponse| expected[t].matches(r);
        let (refreshed, refresh) =
            self.refresh_reads
                .block(served, requests, check, trace_reads, layers);
        let publish = match published {
            Ok((publish, split)) if refreshed == templates.len() as u64 => {
                let refresh = ms(refresh);
                self.publish_ms.push(publish + refresh);
                if trace_publish {
                    layers.refresh_ms.push(refresh);
                }
                Some((publish + refresh, split + refresh))
            }
            Ok(_) => {
                self.publish_ms.push_failed();
                None
            }
            Err(e) => {
                report_failure(&e);
                self.publish_failed += 1;
                self.publish_ms.push_failed();
                None
            }
        };
        Ok(Step { publish, expected })
    }

    /// Adds the publish and refresh-read counts and notes to `report`.
    pub fn report(&self, kind: &str, report: &mut Report) {
        let reads = &self.refresh_reads;
        report.attempted +=
            (self.warmup_ops + self.publish_ms.len() + reads.latency_ms.len()) as u64;
        report.failed += self.publish_failed + reads.failed;
        report.note_samples(
            &format!("{kind}.publish"),
            &self.publish_ms,
            self.publish_failed,
        );
        report.note_samples(
            &format!("{kind}.refresh_read"),
            &reads.latency_ms,
            reads.failed,
        );
    }
}

/// Runs the publish probe that closes `browse` and `first-preview`, which
/// do not publish otherwise, so that every workload reports the publish
/// metrics. It runs after the workload's timed phase and its peak-memory
/// reading: a warm-up, then steps of [`Churn`] over the workload's
/// templates for `seconds` of wall time (at least two). A traced run
/// traces every second publish and none of the refresh reads.
pub fn publish_probe(
    served: &Served,
    templates: &[PreviewRequest],
    args: &Args,
    seconds: f64,
    report: &mut Report,
    layers: &mut Layers,
) -> Result<Churn, String> {
    let mut churn = Churn::new(args.seed);
    churn.warm_up(served, templates, layers)?;
    let phase = Stopwatch::start();
    let mut i = 0;
    while i < 2 || phase.elapsed().as_secs_f64() < seconds {
        let trace = (args.trace && i % 2 == 1, None);
        churn.step(served, templates, trace, layers)?;
        i += 1;
    }
    churn.report("probe", report);
    Ok(churn)
}

/// Reports a failed op, or a failed run, on standard error.
pub fn report_failure(message: &str) {
    // lint: allow(no-println, benchmark binary: diagnostics go to standard error)
    eprintln!("perfbench: {message}");
}
