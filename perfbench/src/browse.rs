//! `browse`: repeated previews of data that is already scored.
//!
//! A Zipf(1.0) stream over 256 request templates, sent by one client thread
//! with a window of requests in flight (see [`crate::reads`]). Set-up warms
//! every distinct template once, so every timed request is a cache hit: the
//! timed path is queue handoff, resolve, cache-key build, LRU get and stats
//! recording. Scoring, discovery and the graph store never run in the timed
//! phase.

use preview_core::ScoringConfig;
use preview_service::PreviewResponse;

use crate::inputs::{self, GRAPH};
use crate::layers::{nodes_expanded, Layers};
use crate::measure::{peak_rss_mb, timed, us, Rate, Report, Stopwatch};
use crate::reads::{Reads, BLOCK};
use crate::serve;
use crate::{Args, EndToEnd, OPS_SHARE};

/// Distinct request templates.
const TEMPLATES: usize = 256;

/// Length of the generated stream; the timed phase cycles through it.
const STREAM: usize = 1 << 15;

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let stream = inputs::request_stream(args.seed, args.scale, TEMPLATES, STREAM);
    let (templates, template_of) = inputs::distinct(&stream);
    let mut configs: Vec<ScoringConfig> = Vec::new();
    for t in &templates {
        if !configs.contains(&t.scoring) {
            configs.push(t.scoring);
        }
    }
    let (setup, setups) = serve::repeat_set_up(|| {
        let (graph, took) = timed(|| inputs::generate_graph(args.seed, args.scale));
        serve::set_up(graph, took, &configs, &templates)
    })?;
    let served = &setup.served;

    // Answers recomputed directly, before timing; the warm-up responses and
    // every timed response must match them bitwise.
    let expected = serve::check_warmup(served, &templates, &setup.warmup, report)?;

    let mut layers = Layers::default();
    let mut reads = Reads {
        record_coverage: true,
        ..Reads::default()
    };
    let mut rate = Rate::default();
    let before = served.service.stats();
    let nodes_before = nodes_expanded(&served.recorder);
    let seconds = args.seconds as f64;
    let phase = Stopwatch::start();
    let mut sent = 0usize;
    for block in 0.. {
        if block > 0 && phase.elapsed().as_secs_f64() >= seconds * OPS_SHARE {
            break;
        }
        let slots = (sent..sent + BLOCK).map(|i| i % stream.len());
        let requests = slots.map(|slot| (template_of[slot], stream[slot].clone()));
        let trace = args.trace.then_some(block % 2 == 1);
        let check = |t: usize, r: &PreviewResponse| expected[t].matches(r);
        let (ok, took) = reads.block(served, requests, check, trace, &mut layers);
        rate.add(ok, took);
        sent += BLOCK;
    }
    let after = served.service.stats();
    layers.nodes_expanded = nodes_expanded(&served.recorder) - nodes_before;
    layers.nodes_ops = layers.traced_op_ms.len() as u64;
    layers.cache_hits = after.cache.hits - before.cache.hits;
    layers.cache_lookups = layers.cache_hits + after.cache.misses - before.cache.misses;
    if args.trace {
        // Resolve as the worker does it, from the benchmark thread.
        for _ in 0..BLOCK {
            let (resolved, took) = timed(|| served.registry.resolve(GRAPH, None));
            resolved.map_err(|e| e.to_string())?;
            layers.resolve_us.push(us(took));
        }
    }
    let latency = reads.latency_ms;
    report.attempted += latency.len() as u64;
    report.failed += reads.failed;
    report.note_samples("browse", &latency, reads.failed);
    let peak_rss_mb = peak_rss_mb();
    served.memory_layers(&mut layers)?;

    let probe_seconds = seconds * (1.0 - OPS_SHARE);
    let probe = serve::publish_probe(served, &templates, args, probe_seconds, report, &mut layers)?;

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
        serve::setup_op_layers(&setups, &mut layers);
        setups
            .iter()
            .for_each(|t| layers.cold_compute_ms.extend(&t.warmup_compute_ms));
        layers.emit(report);
    }
    Ok(())
}
