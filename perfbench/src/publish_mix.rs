//! `publish-mix`: writes beside reads.
//!
//! Each step publishes one 48-edit delta with `PreviewService::publish_delta`,
//! reads every one of the 64 templates once on the new version (the
//! refresh, see [`serve::Churn`]), then sends [`READS_PER_STEP`] reads from
//! a 64-template Zipf stream, with a window in flight (see [`crate::reads`]).
//! The registry keeps its default retention of four versions and has
//! Coverage and Coverage/Entropy memoized, so every publish splices the
//! delta and rescores both. The refresh reads miss on every entry the
//! publish invalidated. The publish op is the publish plus its refresh, so
//! work a publish saves by leaving it to the reads that follow is no gain.
//! `latency_p50_ms`, `latency_p90_ms` and `throughput_per_s` are those of
//! the Zipf reads, which all hit.
//!
//! After a warm-up of [`serve::WARMUP_PUBLISHES`] untimed steps, steps run
//! for `seconds` of wall time, the untimed checks included (at least two
//! steps). The host's speed drifts in stretches of a few seconds, so a run
//! is kept as long as the time limit of all runs allows, and a faster
//! program is measured over as long a stretch as a slower one. Each
//! step's delta is drawn from the seeded update stream against the version
//! it is published onto, and the answers its reads must get are recomputed
//! on the published version, both between the timed parts of a step.

use preview_core::{KeyScoring, NonKeyScoring, ScoringConfig};
use preview_service::PreviewResponse;

use crate::inputs::{self, GRAPH};
use crate::layers::{nodes_expanded, Layers};
use crate::measure::{peak_rss_mb, timed, us, Rate, Report, Stopwatch};
use crate::reads::Reads;
use crate::serve::{self, Churn};
use crate::{Args, EndToEnd};

const TEMPLATES: usize = 64;

/// Zipf reads after each refresh. The read-to-publish ratio is arbitrary,
/// not taken from measured traffic: it keeps each step's reads well under
/// its publish in time, so that a run holds as many publishes as it can.
const READS_PER_STEP: usize = 2048;

/// Length of the generated read stream; steps cycle through it.
const STREAM: usize = 1 << 15;

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let stream = inputs::request_stream(args.seed, args.scale, TEMPLATES, STREAM);
    let (templates, template_of) = inputs::distinct(&stream);
    let configs = [
        ScoringConfig::coverage(),
        ScoringConfig::new(KeyScoring::Coverage, NonKeyScoring::Entropy),
    ];
    let (setup, setups) = serve::repeat_set_up(|| {
        let (graph, took) = timed(|| inputs::generate_graph(args.seed, args.scale));
        serve::set_up(graph, took, &configs, &templates)
    })?;
    let served = &setup.served;
    serve::check_warmup(served, &templates, &setup.warmup, report)?;

    let mut churn = Churn::new(args.seed);
    let mut layers = Layers::default();
    churn.warm_up(served, &templates, &mut layers)?;
    let mut reads = Reads::default();
    let mut rate = Rate::default();
    let before = served.service.stats();
    let mut sent = 0usize;
    let phase = Stopwatch::start();
    let mut step = 0;
    while step < 2 || phase.elapsed().as_secs_f64() < args.seconds as f64 {
        let trace = args.trace.then_some(step % 2 == 1);
        let traced = trace == Some(true);
        let nodes_before = nodes_expanded(&served.recorder);
        let done = churn.step(served, &templates, (traced, trace), &mut layers)?;
        let slots = (sent..sent + READS_PER_STEP).map(|i| i % stream.len());
        let requests = slots.map(|slot| (template_of[slot], stream[slot].clone()));
        let check = |t: usize, r: &PreviewResponse| done.expected[t].matches(r);
        let (ok, took) = reads.block(served, requests, check, trace, &mut layers);
        sent += READS_PER_STEP;
        // The refresh belongs to the publish op, not to the reads.
        rate.add(ok, took);
        if traced {
            if let Some((publish, split)) = done.publish {
                layers.record_coverage(publish, split);
            }
            layers.nodes_expanded += nodes_expanded(&served.recorder) - nodes_before;
            layers.nodes_ops += (templates.len() + READS_PER_STEP) as u64;
            let (resolved, resolve) = timed(|| served.registry.resolve(GRAPH, None));
            resolved.map_err(|e| e.to_string())?;
            layers.resolve_us.push(us(resolve));
        }
        step += 1;
    }
    let after = served.service.stats();
    layers.cache_hits = after.cache.hits - before.cache.hits;
    layers.cache_lookups = layers.cache_hits + after.cache.misses - before.cache.misses;
    churn.report("publish_mix", report);
    report.attempted += reads.latency_ms.len() as u64;
    report.failed += reads.failed;
    report.note_samples("read", &reads.latency_ms, reads.failed);
    let peak_rss_mb = peak_rss_mb();
    served.memory_layers(&mut layers)?;

    EndToEnd {
        setup_s: serve::setup_s(&setups),
        peak_rss_mb,
        throughput: rate,
        latency_ms: reads.latency_ms,
        publish_ms: churn.publish_ms,
    }
    .emit(report, args.trace);
    if args.trace {
        serve::setup_layers(&setups, &mut layers);
        serve::setup_op_layers(&setups, &mut layers);
        layers.emit(report);
    }
    Ok(())
}
