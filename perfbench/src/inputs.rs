//! Inputs made from the seed, and the answers they must get.
//!
//! Every input is a pure function of `(seed, scale)`: the film graph from
//! `datagen::SyntheticGenerator`, Zipf request streams from
//! `bench::service_workload::synth_workload` (made before timing), and
//! 48-edit deltas from `datagen::UpdateStream` (each drawn between timed
//! ops). Reference answers are recomputed here directly
//! with `ScoredSchema::build` and the resolved discovery, never through the
//! service, its registry memo or its cache.

use bench::service_workload::{synth_workload, WorkloadSpec};
use datagen::{FreebaseDomain, SyntheticGenerator, UpdateStream, UpdateStreamConfig};
use entity_graph::{EntityGraph, GraphDelta};
use preview_core::{Preview, ScoredSchema};
use preview_service::{PreviewRequest, PreviewResponse, ScoringKey};

/// Name the graph is registered under (the domain name the request
/// streams address).
pub const GRAPH: &str = "film";

/// Edits per published delta.
const DELTA_EDITS: usize = 48;

/// Salt separating the update stream's seed from the graph's.
const DELTA_SALT: u64 = 0x00de_17a5;

pub fn generate_graph(seed: u64, scale: f64) -> EntityGraph {
    SyntheticGenerator::new(seed).generate(&FreebaseDomain::Film.spec(scale))
}

/// A Zipf(1.0) stream of `requests` requests over `unique` templates. Every
/// request keeps the default sequential thread budget.
pub fn request_stream(
    seed: u64,
    scale: f64,
    unique: usize,
    requests: usize,
) -> Vec<PreviewRequest> {
    let spec = WorkloadSpec {
        domain: FreebaseDomain::Film,
        scale,
        seed,
        requests,
        unique,
    };
    let stream = synth_workload(&spec).requests;
    debug_assert!(stream.iter().all(|r| r.scoring.threads == 1));
    stream
}

/// The seeded stream of [`DELTA_EDITS`]-edit deltas. Each delta is drawn
/// against the version it will be published onto, between timed ops, so
/// the benchmark never holds a second copy of the graph.
pub struct Updates(UpdateStream);

impl Updates {
    pub fn new(seed: u64) -> Self {
        let config = UpdateStreamConfig::with_batch_size(DELTA_EDITS);
        Self(UpdateStream::new(seed ^ DELTA_SALT, config))
    }

    /// The next delta, valid against `graph`.
    pub fn next(&mut self, graph: &EntityGraph) -> GraphDelta {
        self.0.next_delta(graph)
    }
}

/// An answer compared bitwise: the preview and the bits of its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    preview: Option<Preview>,
    score_bits: u64,
}

impl Answer {
    /// Whether `response` carries this answer, compared without copying.
    pub fn matches(&self, response: &PreviewResponse) -> bool {
        self.score_bits == response.score.to_bits() && self.preview == response.preview
    }
}

/// Reference answers for requests against one graph, each scoring
/// configuration built once.
pub struct Reference<'g> {
    graph: &'g EntityGraph,
    scored: Vec<(ScoringKey, ScoredSchema)>,
}

impl<'g> Reference<'g> {
    pub fn new(graph: &'g EntityGraph) -> Self {
        Self {
            graph,
            scored: Vec::new(),
        }
    }

    /// The answer `request` must get: `ScoredSchema::build` on the graph,
    /// then the discovery `Auto` resolves to for the schema's type count.
    pub fn answer(&mut self, request: &PreviewRequest) -> Result<Answer, String> {
        let key = ScoringKey::from(&request.scoring);
        let index = match self.scored.iter().position(|(k, _)| *k == key) {
            Some(index) => index,
            None => {
                let scored =
                    ScoredSchema::build(self.graph, &request.scoring).map_err(|e| e.to_string())?;
                self.scored.push((key, scored));
                self.scored.len() - 1
            }
        };
        let scored = &self.scored[index].1;
        let algorithm = request
            .algorithm
            .resolve_for(&request.space, self.graph.schema_graph().type_count());
        let preview = algorithm
            .discovery()
            .discover_with_threads(scored, &request.space, 1)
            .map_err(|e| e.to_string())?;
        let score = preview.as_ref().map_or(0.0, |p| scored.preview_score(p));
        Ok(Answer {
            preview,
            score_bits: score.to_bits(),
        })
    }
}

/// Distinct requests of `stream` in order of first appearance, and for each
/// request the index of its distinct template.
pub fn distinct(stream: &[PreviewRequest]) -> (Vec<PreviewRequest>, Vec<usize>) {
    let mut templates: Vec<PreviewRequest> = Vec::new();
    let index = stream
        .iter()
        .map(
            |request| match templates.iter().position(|t| t == request) {
                Some(i) => i,
                None => {
                    templates.push(request.clone());
                    templates.len() - 1
                }
            },
        )
        .collect();
    (templates, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed() {
        let a = request_stream(5, 1e-3, 16, 200);
        assert_eq!(a, request_stream(5, 1e-3, 16, 200));
        assert_ne!(a, request_stream(6, 1e-3, 16, 200));
        let graph = generate_graph(5, 1e-3);
        let d1 = Updates::new(5).next(&graph);
        assert_eq!(d1, Updates::new(5).next(&graph));
        assert!(!d1.is_empty());
    }

    #[test]
    fn distinct_maps_each_request_to_its_template() {
        let stream = request_stream(5, 1e-3, 8, 100);
        let (templates, index) = distinct(&stream);
        assert!(templates.len() <= 8);
        for (request, &i) in stream.iter().zip(&index) {
            assert_eq!(*request, templates[i]);
        }
    }
}
