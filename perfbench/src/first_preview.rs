//! `first-preview`: the first preview of a newly registered dataset.
//!
//! Each op registers a fresh version of the graph with
//! `GraphRegistry::register` and requests its first preview with
//! Coverage/Entropy scoring, alternating the spaces diverse(4,8,3) and
//! concise(3,6). Every op pays a cold `ScoredSchema::build`, whose entropy
//! pass scans every edge of a graph larger than the last-level cache, plus
//! discovery and a cache miss.
//!
//! `register` keeps every version (only `publish_delta` prunes), so the
//! previous version is dropped with `retain_latest` outside the timed op.
//! The graph is never cloned inside the timed op: the next op's copy is
//! cloned from a master that never derived its schema, between ops.

use std::time::Duration;

use preview_core::{KeyScoring, NonKeyScoring, PreviewSpace, ScoringConfig};
use preview_service::PreviewRequest;

use crate::inputs::{self, Answer, Reference, GRAPH};
use crate::layers::{nodes_expanded, Layers};
use crate::measure::{ms, peak_rss_mb, timed, us, Rate, Report, Samples, Stopwatch};
use crate::serve::{self, report_failure};
use crate::{Args, EndToEnd, OPS_SHARE};

fn requests() -> Result<[PreviewRequest; 2], String> {
    let scoring = ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy);
    let request = |space: preview_core::Result<PreviewSpace>| {
        space
            .map(|s| PreviewRequest::new(GRAPH, s).with_scoring(scoring))
            .map_err(|e| e.to_string())
    };
    Ok([
        request(PreviewSpace::diverse(4, 8, 3))?,
        request(PreviewSpace::concise(3, 6))?,
    ])
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let requests = requests()?;
    let mut master = None;
    let (setup, setups) = serve::repeat_set_up(|| {
        let (graph, took) = timed(|| inputs::generate_graph(args.seed, args.scale));
        let first = graph.clone();
        master = Some(graph);
        serve::set_up(first, took, &[], &requests[1..])
    })?;
    let master = master.ok_or("no set-up ran")?;
    let served = &setup.served;

    // Every op registers identical data, so two answers (one per space),
    // recomputed directly on a copy before timing, check every op.
    let expected = {
        let copy = master.clone();
        let mut reference = Reference::new(&copy);
        requests
            .iter()
            .map(|r| reference.answer(r))
            .collect::<Result<Vec<Answer>, String>>()?
    };
    report.attempted += 1;
    if !matches!(&setup.warmup[..], [Ok(r)] if expected[1].matches(r)) {
        report_failure(&format!("warm-up answer differs: {:?}", setup.warmup));
        report.failed += 1;
    }

    let mut layers = Layers::default();
    let mut latency = Samples::default();
    let mut failed = 0u64;
    let mut busy = Duration::ZERO;
    let mut rate = Rate::default();
    let mut copy = master.clone();
    let before = served.service.stats();
    let seconds = args.seconds as f64;
    let mut i = 0usize;
    while i < 2 || busy.as_secs_f64() < seconds * OPS_SHARE {
        let which = i % 2;
        let request = requests[which].clone();
        let traced = args.trace && (i / 2) % 2 == 1;
        served.trace(traced);
        let nodes_before = nodes_expanded(&served.recorder);
        let watch = Stopwatch::start();
        let (registered, register) = timed(|| served.registry.register(GRAPH, copy));
        let mut parts = register;
        if traced {
            // Split the op: resolve and score on this thread, so the
            // request then finds its scoring memoized.
            let (resolved, resolve) = timed(|| served.registry.resolve(GRAPH, None));
            let (scored, build) = timed(|| registered.scored_for(&request.scoring));
            resolved.and(scored).map_err(|e| e.to_string())?;
            layers.register_ms.push(ms(register));
            layers.resolve_us.push(us(resolve));
            layers.build_ms.push(ms(build));
            parts += resolve + build;
        }
        let result = served.service.submit_wait(request);
        let took = watch.elapsed();
        served.trace(false);
        busy += took;

        let ok = matches!(&result, Ok(r) if expected[which].matches(r));
        rate.add(u64::from(ok), took);
        match result {
            Ok(response) if ok => {
                latency.push(ms(took));
                if traced {
                    let served_parts = response.queue_wait + response.compute;
                    layers.queue_wait_us.push(us(response.queue_wait));
                    layers.compute_us.push(us(response.compute));
                    layers.cold_compute_ms.push(ms(response.compute));
                    layers
                        .reply_us
                        .push(us(took.saturating_sub(parts + served_parts)));
                    layers.nodes_expanded += nodes_expanded(&served.recorder) - nodes_before;
                    layers.nodes_ops += 1;
                    layers.traced_op_ms.push(ms(took));
                    layers.record_coverage(ms(took), ms(parts + served_parts));
                } else if args.trace {
                    layers.untraced_op_ms.push(ms(took));
                }
            }
            other => {
                report_failure(&format!("first-preview answer differs: {other:?}"));
                failed += 1;
                latency.push_failed();
            }
        }
        drop(registered);
        served.registry.retain_latest(GRAPH, 1);
        copy = master.clone();
        i += 1;
    }
    let after = served.service.stats();
    layers.cache_hits = after.cache.hits - before.cache.hits;
    layers.cache_lookups = layers.cache_hits + after.cache.misses - before.cache.misses;
    report.attempted += latency.len() as u64;
    report.failed += failed;
    report.note_samples("first_preview", &latency, failed);
    let peak_rss_mb = peak_rss_mb();
    served.memory_layers(&mut layers)?;
    drop((master, copy));

    let probe_seconds = seconds * (1.0 - OPS_SHARE);
    let probe = serve::publish_probe(served, &requests, args, probe_seconds, report, &mut layers)?;

    EndToEnd {
        setup_s: serve::setup_s(&setups),
        peak_rss_mb,
        throughput: rate,
        latency_ms: latency,
        publish_ms: probe.publish_ms,
    }
    .emit(report, args.trace);
    if args.trace {
        serve::setup_layers(&setups, &mut layers);
        layers.emit(report);
    }
    Ok(())
}
