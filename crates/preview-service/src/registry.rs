//! The graph registry: named, versioned entity graphs with memoized
//! per-configuration [`ScoredSchema`]s, all behind `Arc` so worker threads
//! share one copy of every precomputed structure.
//!
//! Versions advance two ways: [`register`](GraphRegistry::register) swaps in
//! a fully rebuilt graph, while [`publish_delta`](GraphRegistry::publish_delta)
//! splices a [`GraphDelta`] onto the latest version — carrying every
//! memoized scoring configuration forward through the incremental
//! [`rescore_delta`](ScoredSchema::rescore_delta) path — and prunes
//! superseded versions down to the configured retention window so old
//! `Arc<RegisteredGraph>`s can actually drop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};

use entity_graph::{DeltaSummary, EntityGraph, GraphDelta, ShardedGraph, ShardingStrategy};
use preview_core::{ScoredSchema, ScoringConfig};

use crate::request::{ScoringKey, ServiceError, ServiceResult};

/// How many versions of a graph [`publish_delta`](GraphRegistry::publish_delta)
/// keeps by default (the new version included).
pub const DEFAULT_VERSION_RETENTION: usize = 4;

/// The memoized outcome of scoring one graph version under one configuration.
type ScoredSlot = Arc<OnceLock<Result<Arc<ScoredSchema>, preview_core::Error>>>;

/// One memoized scoring configuration: the slot plus the configuration that
/// produced it, kept so a delta publish can re-score it on the next version.
#[derive(Debug)]
struct ScoredEntry {
    config: ScoringConfig,
    slot: ScoredSlot,
}

/// One immutable registered graph version.
///
/// Scoring is memoized per [`ScoringConfig`]: the first request for a
/// configuration pays [`ScoredSchema::build`] once, every later request —
/// from any worker — shares the resulting `Arc`. A `OnceLock` per
/// configuration ensures concurrent first requests build at most once
/// without holding the registry-wide lock during the build.
#[derive(Debug)]
pub struct RegisteredGraph {
    name: String,
    version: u32,
    /// The name's route slot: assigned when the name is first registered
    /// and shared by all its versions, it indexes the service's lock-free
    /// per-route request counts.
    route_slot: usize,
    graph: Arc<EntityGraph>,
    /// Sharded storage for this version, when registered through
    /// [`GraphRegistry::register_sharded`]. The inner `Arc<EntityGraph>` is
    /// the same allocation as `graph`, so the logical graph is never held
    /// twice; scoring routes through the sharded path transparently.
    sharded: Option<Arc<ShardedGraph>>,
    scored: Mutex<HashMap<ScoringKey, ScoredEntry>>,
}

impl RegisteredGraph {
    fn new(
        name: String,
        version: u32,
        route_slot: usize,
        graph: Arc<EntityGraph>,
        sharded: Option<Arc<ShardedGraph>>,
    ) -> Self {
        Self {
            name,
            version,
            route_slot,
            graph,
            sharded,
            scored: Mutex::new(HashMap::new()),
        }
    }

    /// The graph's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version number (starts at 1, increments per registration).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The route slot shared by every version of this name.
    pub(crate) fn route_slot(&self) -> usize {
        self.route_slot
    }

    /// The underlying entity graph.
    pub fn graph(&self) -> &Arc<EntityGraph> {
        &self.graph
    }

    /// The sharded storage backing this version, if it was registered
    /// sharded (see [`GraphRegistry::register_sharded`]).
    pub fn sharded(&self) -> Option<&Arc<ShardedGraph>> {
        self.sharded.as_ref()
    }

    /// Number of scoring configurations already memoized.
    pub fn scored_config_count(&self) -> usize {
        lock_unpoisoned(&self.scored).len()
    }

    /// Returns the shared [`ScoredSchema`] for `config`, building (and
    /// memoizing) it on first use.
    pub fn scored_for(&self, config: &ScoringConfig) -> ServiceResult<Arc<ScoredSchema>> {
        let key = ScoringKey::from(config);
        let slot = {
            let mut map = lock_unpoisoned(&self.scored);
            Arc::clone(
                &map.entry(key)
                    .or_insert_with(|| ScoredEntry {
                        config: *config,
                        slot: ScoredSlot::default(),
                    })
                    .slot,
            )
        };
        // Build outside the map lock: other configurations stay servable
        // while this one scores, and OnceLock still guarantees one build.
        // Sharded versions score through cross-shard aggregation, which is
        // bitwise identical to the unsharded path — callers cannot tell the
        // storage layouts apart.
        let outcome = slot.get_or_init(|| match &self.sharded {
            Some(sharded) => ScoredSchema::build_sharded(sharded, config).map(Arc::new),
            None => ScoredSchema::build(&self.graph, config).map(Arc::new),
        });
        match outcome {
            Ok(scored) => Ok(Arc::clone(scored)),
            Err(e) => Err(ServiceError::Discovery(e.clone())),
        }
    }

    /// Every successfully memoized `(config, scored)` pair, in unspecified
    /// order. In-flight (unfinished) builds are skipped.
    fn memoized_scored(&self) -> Vec<(ScoringConfig, Arc<ScoredSchema>)> {
        lock_unpoisoned(&self.scored)
            .values()
            .filter_map(|entry| {
                entry
                    .slot
                    .get()
                    .and_then(|outcome| outcome.as_ref().ok())
                    .map(|scored| (entry.config, Arc::clone(scored)))
            })
            .collect()
    }

    /// Pre-populates the memo with an already-built schema (the delta
    /// publish path seeds the new version with rescored configurations).
    fn seed_scored(&self, config: &ScoringConfig, scored: Arc<ScoredSchema>) {
        let slot = ScoredSlot::default();
        // lint: allow(request-path-unwrap, freshly constructed OnceLock cannot already hold a value)
        slot.set(Ok(scored)).expect("fresh slot accepts one value");
        lock_unpoisoned(&self.scored).insert(
            ScoringKey::from(config),
            ScoredEntry {
                config: *config,
                slot,
            },
        );
    }
}

/// The outcome of a [`GraphRegistry::publish_delta`] call.
#[derive(Debug, Clone)]
pub struct DeltaPublish {
    /// The version now serving "latest" requests — the freshly spliced one,
    /// or the unchanged current version when the delta was empty.
    pub registered: Arc<RegisteredGraph>,
    /// The version that was latest before the publish.
    pub previous_version: u32,
    /// Whether a new version was created (`false` iff the delta was empty).
    pub bumped: bool,
    /// What the delta changed (all-zero when not bumped).
    pub summary: DeltaSummary,
    /// Memoized scoring configurations carried to the new version through
    /// the incremental rescore path.
    pub rescored_configs: usize,
    /// The subset of those configurations whose scores are **bitwise
    /// unchanged** by the delta ([`ScoredSchema::scores_identical`]): any
    /// cached preview under these keys is provably still optimal.
    pub unaffected_configs: Vec<ScoringKey>,
    /// Superseded versions dropped by the retention window.
    pub versions_dropped: usize,
    /// Whether shard storage took the identity splice fast path
    /// (block-copying untouched shards) rather than a full reshard. Always
    /// `true` on the unsharded path, whose CSR splice has no reshard
    /// fallback; `false` only when a sharded delta removed entities.
    pub spliced: bool,
    /// Shards whose storage was rebuilt for this publish (`0` for empty
    /// deltas and unsharded versions).
    pub touched_shards: usize,
}

/// A concurrent registry of named, versioned graphs.
///
/// Registering the same name again creates a new version; lookups without an
/// explicit version resolve to the latest. All returned handles are `Arc`s,
/// so a version stays fully usable by in-flight requests even after newer
/// versions supersede it.
#[derive(Debug)]
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, Vec<Arc<RegisteredGraph>>>>,
    /// Versions kept per name by `publish_delta` (latest included).
    version_retention: AtomicUsize,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        Self {
            graphs: RwLock::new(HashMap::new()),
            version_retention: AtomicUsize::new(DEFAULT_VERSION_RETENTION),
        }
    }
}

impl GraphRegistry {
    /// Creates an empty registry with the default version retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry keeping at most `keep` versions per name on
    /// delta publishes (clamped to ≥ 1).
    pub fn with_retention(keep: usize) -> Self {
        let registry = Self::default();
        registry.set_version_retention(keep);
        registry
    }

    /// Sets the number of versions `publish_delta` retains per name
    /// (clamped to ≥ 1; the latest version is always kept).
    pub fn set_version_retention(&self, keep: usize) {
        // lint: ordering-ok(standalone tuning knob; no other memory is published with it)
        self.version_retention.store(keep.max(1), Ordering::Relaxed);
    }

    /// The current retention window.
    pub fn version_retention(&self) -> usize {
        // lint: ordering-ok(standalone tuning knob; readers need no ordering with other state)
        self.version_retention.load(Ordering::Relaxed)
    }

    /// Registers `graph` under `name`, returning the new version's handle.
    ///
    /// The graph's memoized schema derivation is warmed here, off the request
    /// path, so the first preview request against the new version never pays
    /// it.
    pub fn register(&self, name: impl Into<String>, graph: EntityGraph) -> Arc<RegisteredGraph> {
        self.register_version(name.into(), Arc::new(graph), None)
    }

    /// Registers `graph` under `name` with **sharded** storage: the graph is
    /// partitioned under `strategy` (shards built in parallel on the global
    /// fork-join pool) before the new version goes live, and every scoring
    /// request and delta publish against it runs through the sharded path —
    /// transparently, since all sharded outputs are bitwise identical to the
    /// unsharded ones.
    pub fn register_sharded(
        &self,
        name: impl Into<String>,
        graph: EntityGraph,
        strategy: ShardingStrategy,
    ) -> Arc<RegisteredGraph> {
        let graph = Arc::new(graph);
        let sharded = Arc::new(preview_core::build_sharded(Arc::clone(&graph), strategy, 0));
        self.register_version(name.into(), graph, Some(sharded))
    }

    /// Shared registration tail: warms the schema memo off the request path
    /// and appends the new version under the write lock.
    fn register_version(
        &self,
        name: String,
        graph: Arc<EntityGraph>,
        sharded: Option<Arc<ShardedGraph>>,
    ) -> Arc<RegisteredGraph> {
        graph.schema_graph();
        let mut graphs = write_unpoisoned(&self.graphs);
        // Names are never removed, so a new name's slot is the count of
        // names registered before it: dense and stable.
        let new_slot = graphs.len();
        let versions = graphs.entry(name.clone()).or_default();
        let (version, route_slot) = versions
            .last()
            .map_or((1, new_slot), |g| (g.version + 1, g.route_slot));
        let registered = Arc::new(RegisteredGraph::new(
            name, version, route_slot, graph, sharded,
        ));
        versions.push(Arc::clone(&registered));
        registered
    }

    /// Registers `graph` and eagerly scores it under each of `configs`, so
    /// the first live requests do not pay the scoring cost.
    pub fn register_precomputed(
        &self,
        name: impl Into<String>,
        graph: EntityGraph,
        configs: &[ScoringConfig],
    ) -> ServiceResult<Arc<RegisteredGraph>> {
        let registered = self.register(name, graph);
        for config in configs {
            registered.scored_for(config)?;
        }
        Ok(registered)
    }

    /// Applies a [`GraphDelta`] to the latest version of `name`, registering
    /// the spliced result as the next version.
    ///
    /// * An **empty delta does not bump the version** — the current handle
    ///   is returned with `bumped == false`.
    /// * Every scoring configuration memoized on the superseded version is
    ///   carried forward through [`ScoredSchema::rescore_delta`], so
    ///   requests against the new version reuse all untouched scores and
    ///   never pay a cold full scoring pass.
    /// * Configurations whose scores come out bitwise identical are reported
    ///   in [`DeltaPublish::unaffected_configs`]; the serving layer uses
    ///   this to retain result-cache entries across the bump.
    /// * Superseded versions beyond the retention window
    ///   ([`set_version_retention`](Self::set_version_retention)) are
    ///   dropped, releasing their memory once in-flight requests finish.
    ///
    /// Concurrent publishes against the same name are safe: splicing and
    /// rescoring run off the registry lock, and registration revalidates
    /// under the write lock that the latest version is still the one the
    /// delta was applied to — if another publish (or `register`) won the
    /// race, the batch is transparently re-applied on top of the new latest,
    /// so no acknowledged edit is ever lost.
    ///
    /// # Errors
    ///
    /// [`ServiceError::GraphNotFound`] if `name` is unknown,
    /// [`ServiceError::Delta`] if the graph layer rejects the batch (the
    /// current version stays untouched), [`ServiceError::Discovery`] if
    /// rescoring a memoized configuration fails.
    pub fn publish_delta(&self, name: &str, delta: &GraphDelta) -> ServiceResult<DeltaPublish> {
        let _span = preview_obs::span!(preview_obs::Stage::Publish, ops = delta.ops().len());
        let mut current = self.resolve(name, None)?;
        if delta.is_empty() {
            return Ok(DeltaPublish {
                previous_version: current.version(),
                bumped: false,
                registered: current,
                summary: DeltaSummary::default(),
                rescored_configs: 0,
                unaffected_configs: Vec::new(),
                versions_dropped: 0,
                spliced: true,
                touched_shards: 0,
            });
        }
        loop {
            // Sharded versions splice through the per-shard path (shards
            // re-spliced in parallel, untouched entities block-copied); the
            // logical outcome and summary are identical either way.
            let (new_graph, new_sharded, summary, spliced, touched_shards) = match current.sharded()
            {
                Some(sharded) => {
                    let applied = preview_core::apply_delta_parallel(sharded, delta, 0)
                        .map_err(ServiceError::Delta)?;
                    (
                        Arc::clone(applied.sharded.graph()),
                        Some(Arc::new(applied.sharded)),
                        applied.summary,
                        applied.spliced,
                        applied.touched_shards,
                    )
                }
                None => {
                    let applied = current
                        .graph()
                        .apply_delta(delta)
                        .map_err(ServiceError::Delta)?;
                    // The unsharded CSR splice is always incremental and
                    // has no per-shard storage to rebuild.
                    (Arc::new(applied.graph), None, applied.summary, true, 0)
                }
            };
            // Warm the schema memo off the request path, like `register`.
            new_graph.schema_graph();
            let mut seeds = Vec::new();
            let mut unaffected_configs = Vec::new();
            for (config, old_scored) in current.memoized_scored() {
                let rescored = Arc::new(
                    old_scored
                        .rescore_delta(&new_graph, &summary)
                        .map_err(ServiceError::Discovery)?,
                );
                if old_scored.scores_identical(&rescored) {
                    unaffected_configs.push(ScoringKey::from(&config));
                }
                seeds.push((config, rescored));
            }
            let rescored_configs = seeds.len();
            let keep = self.version_retention();
            let outcome = {
                let mut graphs = write_unpoisoned(&self.graphs);
                let versions = graphs.entry(name.to_string()).or_default();
                let latest = versions.last().map(|g| g.version);
                if latest != Some(current.version()) {
                    // Lost the race: someone registered or published while we
                    // were splicing. Re-apply the batch on top of the new
                    // latest instead of silently overwriting their edits.
                    versions.last().cloned()
                } else {
                    let version = current.version() + 1;
                    let registered = Arc::new(RegisteredGraph::new(
                        name.to_string(),
                        version,
                        current.route_slot,
                        new_graph,
                        new_sharded,
                    ));
                    for (config, scored) in seeds {
                        registered.seed_scored(&config, scored);
                    }
                    versions.push(Arc::clone(&registered));
                    let dropped = versions.len().saturating_sub(keep);
                    versions.drain(..dropped);
                    return Ok(DeltaPublish {
                        registered,
                        previous_version: current.version(),
                        bumped: true,
                        summary,
                        rescored_configs,
                        unaffected_configs,
                        versions_dropped: dropped,
                        spliced,
                        touched_shards,
                    });
                }
            };
            current = outcome.ok_or_else(|| ServiceError::GraphNotFound {
                graph: name.to_string(),
                version: None,
            })?;
        }
    }

    /// Drops all but the newest `keep` versions of `name` (clamped to ≥ 1),
    /// returning how many were dropped. Dropped versions become
    /// unresolvable; their memory is released once the last in-flight `Arc`
    /// goes away.
    pub fn retain_latest(&self, name: &str, keep: usize) -> usize {
        let mut graphs = write_unpoisoned(&self.graphs);
        let Some(versions) = graphs.get_mut(name) else {
            return 0;
        };
        let dropped = versions.len().saturating_sub(keep.max(1));
        versions.drain(..dropped);
        dropped
    }

    /// Looks up a graph by name and version (`None` = latest).
    pub fn get(&self, name: &str, version: Option<u32>) -> Option<Arc<RegisteredGraph>> {
        let graphs = read_unpoisoned(&self.graphs);
        let versions = graphs.get(name)?;
        match version {
            None => versions.last().cloned(),
            Some(v) => versions.iter().find(|g| g.version == v).cloned(),
        }
    }

    /// Like [`get`](Self::get) but with a typed error for the service path.
    pub fn resolve(&self, name: &str, version: Option<u32>) -> ServiceResult<Arc<RegisteredGraph>> {
        self.get(name, version)
            .ok_or_else(|| ServiceError::GraphNotFound {
                graph: name.to_string(),
                version,
            })
    }

    /// The latest version number registered under `name`.
    pub fn latest_version(&self, name: &str) -> Option<u32> {
        self.get(name, None).map(|g| g.version())
    }

    /// The resolvable version numbers of `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u32> {
        read_unpoisoned(&self.graphs)
            .get(name)
            .map(|versions| versions.iter().map(|g| g.version).collect())
            .unwrap_or_default()
    }

    /// Every registered name, indexed by its route slot.
    pub(crate) fn route_names(&self) -> Vec<String> {
        let graphs = read_unpoisoned(&self.graphs);
        let mut names = vec![String::new(); graphs.len()];
        for (name, versions) in graphs.iter() {
            if let Some(slot) = versions.last().and_then(|g| names.get_mut(g.route_slot)) {
                slot.clone_from(name);
            }
        }
        names
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_unpoisoned(&self.graphs).keys().cloned().collect();
        names.sort();
        names
    }

    /// Total number of registered (name, version) pairs.
    pub fn len(&self) -> usize {
        read_unpoisoned(&self.graphs).values().map(Vec::len).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entity_graph::fixtures;
    use std::sync::Weak;

    #[test]
    fn versions_increment_and_latest_wins() {
        let registry = GraphRegistry::new();
        let v1 = registry.register("fig1", fixtures::figure1_graph());
        let v2 = registry.register("fig1", fixtures::figure1_graph());
        assert_eq!(v1.version(), 1);
        assert_eq!(v2.version(), 2);
        assert_eq!(registry.latest_version("fig1"), Some(2));
        assert_eq!(registry.get("fig1", None).unwrap().version(), 2);
        assert_eq!(registry.get("fig1", Some(1)).unwrap().version(), 1);
        assert!(registry.get("fig1", Some(3)).is_none());
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["fig1".to_string()]);
        assert_eq!(registry.versions("fig1"), vec![1, 2]);
    }

    #[test]
    fn route_slots_are_per_name_and_shared_across_versions() {
        let registry = GraphRegistry::new();
        let a1 = registry.register("a", fixtures::figure1_graph());
        let b1 = registry.register("b", fixtures::figure1_graph());
        let a2 = registry.register("a", fixtures::figure1_graph());
        let mut delta = entity_graph::GraphDelta::new();
        delta.add_entity("Extra", &["FILM"]);
        let b2 = registry.publish_delta("b", &delta).unwrap().registered;
        assert_eq!((a1.route_slot(), a2.route_slot()), (0, 0));
        assert_eq!((b1.route_slot(), b2.route_slot()), (1, 1));
        assert_eq!(
            registry.route_names(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn resolve_reports_missing_graphs() {
        let registry = GraphRegistry::new();
        let err = registry.resolve("absent", Some(4)).unwrap_err();
        assert_eq!(
            err,
            ServiceError::GraphNotFound {
                graph: "absent".into(),
                version: Some(4),
            }
        );
    }

    #[test]
    fn scoring_is_memoized_per_config() {
        let registry = GraphRegistry::new();
        let graph = registry.register("fig1", fixtures::figure1_graph());
        let config = ScoringConfig::coverage();
        let a = graph.scored_for(&config).unwrap();
        let b = graph.scored_for(&config).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(graph.scored_config_count(), 1);

        let entropy = ScoringConfig::new(
            preview_core::KeyScoring::Coverage,
            preview_core::NonKeyScoring::Entropy,
        );
        let c = graph.scored_for(&entropy).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(graph.scored_config_count(), 2);
    }

    #[test]
    fn register_precomputed_scores_eagerly() {
        let registry = GraphRegistry::new();
        let graph = registry
            .register_precomputed(
                "fig1",
                fixtures::figure1_graph(),
                &[ScoringConfig::coverage()],
            )
            .unwrap();
        assert_eq!(graph.scored_config_count(), 1);
    }

    #[test]
    fn concurrent_scoring_converges_to_one_instance() {
        let registry = Arc::new(GraphRegistry::new());
        let graph = registry.register("fig1", fixtures::figure1_graph());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let graph = Arc::clone(&graph);
                std::thread::spawn(move || graph.scored_for(&ScoringConfig::coverage()).unwrap())
            })
            .collect();
        let schemas: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for pair in schemas.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }

    #[test]
    fn retain_latest_drops_old_versions_and_releases_memory() {
        let registry = GraphRegistry::new();
        for _ in 0..4 {
            registry.register("fig1", fixtures::figure1_graph());
        }
        let old: Weak<RegisteredGraph> = Arc::downgrade(&registry.get("fig1", Some(1)).unwrap());
        assert!(old.upgrade().is_some());
        assert_eq!(registry.retain_latest("fig1", 2), 2);
        // Old versions are no longer resolvable...
        assert!(registry.get("fig1", Some(1)).is_none());
        assert!(registry.get("fig1", Some(2)).is_none());
        assert_eq!(registry.versions("fig1"), vec![3, 4]);
        assert_eq!(registry.latest_version("fig1"), Some(4));
        // ...and their memory is actually released (the weak handle is the
        // only reference left).
        assert!(old.upgrade().is_none());
        // Unknown names and generous windows are no-ops.
        assert_eq!(registry.retain_latest("absent", 1), 0);
        assert_eq!(registry.retain_latest("fig1", 10), 0);
    }

    #[test]
    fn publish_delta_bumps_and_carries_memoized_configs() {
        let registry = GraphRegistry::new();
        registry
            .register_precomputed(
                "fig1",
                fixtures::figure1_graph(),
                &[ScoringConfig::coverage()],
            )
            .unwrap();
        let mut delta = entity_graph::GraphDelta::new();
        delta.add_entity("Bad Boys", &["FILM"]).add_edge(
            "Will Smith",
            "Actor",
            "Bad Boys",
            "FILM ACTOR",
            "FILM",
        );
        let publish = registry.publish_delta("fig1", &delta).unwrap();
        assert!(publish.bumped);
        assert_eq!(publish.previous_version, 1);
        assert_eq!(publish.registered.version(), 2);
        assert_eq!(publish.rescored_configs, 1);
        // Unsharded versions always report the incremental splice.
        assert!(publish.spliced);
        assert_eq!(publish.touched_shards, 0);
        // The new version serves without a cold scoring pass.
        assert_eq!(publish.registered.scored_config_count(), 1);
        assert_eq!(
            publish.registered.graph().entity_count(),
            fixtures::figure1_graph().entity_count() + 1
        );
        assert_eq!(registry.latest_version("fig1"), Some(2));
    }

    #[test]
    fn publish_delta_empty_does_not_bump() {
        let registry = GraphRegistry::new();
        let v1 = registry.register("fig1", fixtures::figure1_graph());
        let publish = registry
            .publish_delta("fig1", &entity_graph::GraphDelta::new())
            .unwrap();
        assert!(!publish.bumped);
        assert!(Arc::ptr_eq(&publish.registered, &v1));
        assert_eq!(registry.latest_version("fig1"), Some(1));
        assert_eq!(publish.summary, DeltaSummary::default());
    }

    #[test]
    fn publish_delta_rejection_leaves_version_untouched() {
        let registry = GraphRegistry::new();
        registry.register("fig1", fixtures::figure1_graph());
        let mut delta = entity_graph::GraphDelta::new();
        delta.remove_entity("Men in Black"); // still referenced by edges
        let err = registry.publish_delta("fig1", &delta).unwrap_err();
        assert!(matches!(err, ServiceError::Delta(_)));
        assert_eq!(registry.latest_version("fig1"), Some(1));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn register_sharded_serves_identical_scores() {
        let registry = GraphRegistry::new();
        let plain = registry.register("plain", fixtures::figure1_graph());
        let sharded = registry.register_sharded(
            "sharded",
            fixtures::figure1_graph(),
            ShardingStrategy::ByIdHash { shards: 3 },
        );
        assert!(plain.sharded().is_none());
        assert!(sharded.sharded().is_some());
        let entropy = ScoringConfig::new(
            preview_core::KeyScoring::Coverage,
            preview_core::NonKeyScoring::Entropy,
        );
        for config in [ScoringConfig::coverage(), entropy] {
            let a = plain.scored_for(&config).unwrap();
            let b = sharded.scored_for(&config).unwrap();
            assert!(a.scores_identical(&b), "{config:?}");
        }
    }

    #[test]
    fn publish_delta_keeps_versions_sharded() {
        let registry = GraphRegistry::new();
        let strategy = ShardingStrategy::ByEntityType { shards: 4 };
        let v1 = registry.register_sharded("fig1", fixtures::figure1_graph(), strategy);
        let entropy = ScoringConfig::new(
            preview_core::KeyScoring::Coverage,
            preview_core::NonKeyScoring::Entropy,
        );
        v1.scored_for(&entropy).unwrap();
        let mut delta = entity_graph::GraphDelta::new();
        delta.add_entity("Bad Boys", &["FILM"]).add_edge(
            "Will Smith",
            "Actor",
            "Bad Boys",
            "FILM ACTOR",
            "FILM",
        );
        let publish = registry.publish_delta("fig1", &delta).unwrap();
        assert!(publish.bumped);
        assert_eq!(publish.rescored_configs, 1);
        // No entity was removed, so the identity splice fast path applied,
        // and only the shards touched by the edit were rebuilt.
        assert!(publish.spliced);
        assert!(publish.touched_shards >= 1);
        let new_sharded = publish.registered.sharded().expect("version stays sharded");
        assert!(publish.touched_shards <= new_sharded.shard_count());
        // The spliced sharded storage equals a reshard of the new logical
        // graph from scratch, and the logical graph is shared, not copied.
        let reference = entity_graph::ShardedGraph::from_graph(
            Arc::clone(publish.registered.graph()),
            strategy,
        );
        assert_eq!(**new_sharded, reference);
        assert!(Arc::ptr_eq(new_sharded.graph(), publish.registered.graph()));
        // The carried-forward rescore matches a cold sharded build bitwise.
        let rescored = publish.registered.scored_for(&entropy).unwrap();
        let cold = ScoredSchema::build_sharded(new_sharded, &entropy).unwrap();
        assert!(rescored.scores_identical(&cold));
        // A rejected delta leaves the sharded version in place.
        let mut bad = entity_graph::GraphDelta::new();
        bad.remove_entity("Men in Black");
        assert!(registry.publish_delta("fig1", &bad).is_err());
        assert_eq!(registry.latest_version("fig1"), Some(2));
    }

    #[test]
    fn publish_delta_reports_splice_vs_full_reshard() {
        let registry = GraphRegistry::new();
        let strategy = ShardingStrategy::ByIdHash { shards: 4 };
        registry.register_sharded("fig1", fixtures::figure1_graph(), strategy);
        // Adding an entity keeps ids stable: identity splice.
        let mut add = entity_graph::GraphDelta::new();
        add.add_entity("Orphan", &["FILM"]);
        let spliced = registry.publish_delta("fig1", &add).unwrap();
        assert!(spliced.spliced);
        // Removing an entity shifts ids: every shard rebuilds.
        let mut remove = entity_graph::GraphDelta::new();
        remove.remove_entity("Orphan");
        let resharded = registry.publish_delta("fig1", &remove).unwrap();
        assert!(!resharded.spliced);
        assert_eq!(
            resharded.touched_shards,
            resharded.registered.sharded().unwrap().shard_count()
        );
    }

    #[test]
    fn publish_delta_enforces_retention() {
        let registry = GraphRegistry::with_retention(2);
        registry.register("fig1", fixtures::figure1_graph());
        let mut delta = entity_graph::GraphDelta::new();
        delta.add_entity("Extra", &["FILM"]);
        let first = registry.publish_delta("fig1", &delta).unwrap();
        assert_eq!(first.versions_dropped, 0);
        let mut delta2 = entity_graph::GraphDelta::new();
        delta2.add_entity("Extra 2", &["FILM"]);
        let second = registry.publish_delta("fig1", &delta2).unwrap();
        assert_eq!(second.versions_dropped, 1);
        assert_eq!(registry.versions("fig1"), vec![2, 3]);
        assert!(registry.get("fig1", Some(1)).is_none());
    }
}
