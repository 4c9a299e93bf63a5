//! The fixed stage and counter taxonomy instrumented across the stack.
//!
//! Stages are a closed enum rather than free-form strings so that recording
//! a span costs an array index instead of a hash lookup, and so the snapshot
//! schema (and the `obs-bench --check` validator) can enumerate every stage
//! that must be present.

/// A named pipeline stage whose duration is recorded by spans.
///
/// The serving path nests as: [`Stage::Request`] → [`Stage::QueueWait`] /
/// [`Stage::CacheLookup`] / [`Stage::Discovery`] → ([`Stage::CandidateGen`],
/// [`Stage::EntropyScoring`], [`Stage::Algorithm`], [`Stage::Materialize`])
/// → [`Stage::Response`]. The update path records [`Stage::Publish`] →
/// [`Stage::DeltaApply`] / [`Stage::ShardSplice`] / [`Stage::Rescore`], and
/// initial sharding records [`Stage::ShardedBuild`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// A whole request, from enqueue to reply: the root of its trace tree.
    /// The serving layer keeps request latency in its own histogram, so
    /// trace roots reach the flight ring but not this stage's histogram.
    Request = 0,
    /// Time a job waited in the submission queue before a worker picked it up.
    QueueWait = 1,
    /// Preview-cache probe (hit or miss).
    CacheLookup = 2,
    /// Full preview discovery (scoring + algorithm + materialisation).
    Discovery = 3,
    /// Candidate key/non-key list generation.
    CandidateGen = 4,
    /// Entropy scoring of non-key candidates.
    EntropyScoring = 5,
    /// The selection algorithm (dynamic programming / greedy / brute force).
    Algorithm = 6,
    /// Materialising the selected preview into rows.
    Materialize = 7,
    /// Serialising and sending the reply.
    Response = 8,
    /// Logical graph delta application (CSR splice).
    DeltaApply = 9,
    /// Sharded re-splice of a delta across shards.
    ShardSplice = 10,
    /// Initial sharded build from a logical graph.
    ShardedBuild = 11,
    /// Incremental rescoring of affected relationship types.
    Rescore = 12,
    /// A whole `publish_delta` call in the registry.
    Publish = 13,
    /// Best-first branch-and-bound search (a [`Stage::Algorithm`]-child span
    /// on the discovery path; the attribute carries nodes expanded).
    BestFirstSearch = 14,
}

/// Number of distinct stages.
pub const STAGE_COUNT: usize = 15;

impl Stage {
    /// Every stage, in `repr` order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Request,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::Discovery,
        Stage::CandidateGen,
        Stage::EntropyScoring,
        Stage::Algorithm,
        Stage::Materialize,
        Stage::Response,
        Stage::DeltaApply,
        Stage::ShardSplice,
        Stage::ShardedBuild,
        Stage::Rescore,
        Stage::Publish,
        Stage::BestFirstSearch,
    ];

    /// Stable snake_case name used in snapshot JSON and span events.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::Discovery => "discovery",
            Stage::CandidateGen => "candidate_gen",
            Stage::EntropyScoring => "entropy_scoring",
            Stage::Algorithm => "algorithm",
            Stage::Materialize => "materialize",
            Stage::Response => "response",
            Stage::DeltaApply => "delta_apply",
            Stage::ShardSplice => "shard_splice",
            Stage::ShardedBuild => "sharded_build",
            Stage::Rescore => "rescore",
            Stage::Publish => "publish",
            Stage::BestFirstSearch => "best_first_search",
        }
    }

    /// The stage with `repr` value `raw`, if in range.
    pub const fn from_raw(raw: u8) -> Option<Stage> {
        if (raw as usize) < STAGE_COUNT {
            Some(Stage::ALL[raw as usize])
        } else {
            None
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Counter {
    /// `publish_delta` calls that registered a new version.
    Publishes = 0,
    /// Publishes that took the identity splice fast path.
    PublishSplices = 1,
    /// Publishes that fell back to a full reshard.
    PublishFullReshards = 2,
    /// Total shards rebuilt across all publishes.
    PublishTouchedShards = 3,
    /// Cache entries carried forward across publishes.
    CacheCarried = 4,
    /// Cache entries invalidated by publishes.
    CacheInvalidated = 5,
    /// Panicked requests retained as trace trees with the flight ring.
    PanicDumps = 6,
    /// Slow requests retained as trace trees with the flight ring.
    SlowDumps = 7,
    /// Prefix nodes expanded by best-first discovery searches.
    NodesExpanded = 8,
    /// Prefix subtrees discarded without expansion by best-first searches
    /// (bound cutoffs plus infeasibility).
    NodesPruned = 9,
    /// Best-first discards attributable to the admissible bound failing to
    /// beat the incumbent (a subset of [`Counter::NodesPruned`]).
    BoundCutoffs = 10,
}

/// Number of distinct counters.
pub const COUNTER_COUNT: usize = 11;

impl Counter {
    /// Every counter, in `repr` order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Publishes,
        Counter::PublishSplices,
        Counter::PublishFullReshards,
        Counter::PublishTouchedShards,
        Counter::CacheCarried,
        Counter::CacheInvalidated,
        Counter::PanicDumps,
        Counter::SlowDumps,
        Counter::NodesExpanded,
        Counter::NodesPruned,
        Counter::BoundCutoffs,
    ];

    /// Stable snake_case name used in snapshot JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Publishes => "publishes",
            Counter::PublishSplices => "publish_splices",
            Counter::PublishFullReshards => "publish_full_reshards",
            Counter::PublishTouchedShards => "publish_touched_shards",
            Counter::CacheCarried => "cache_carried",
            Counter::CacheInvalidated => "cache_invalidated",
            Counter::PanicDumps => "panic_dumps",
            Counter::SlowDumps => "slow_dumps",
            Counter::NodesExpanded => "nodes_expanded",
            Counter::NodesPruned => "nodes_pruned",
            Counter::BoundCutoffs => "bound_cutoffs",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_all_matches_repr_order_and_names_are_unique() {
        for (index, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, index);
            assert_eq!(Stage::from_raw(index as u8), Some(*stage));
        }
        assert_eq!(Stage::from_raw(STAGE_COUNT as u8), None);
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }

    #[test]
    fn counter_all_matches_repr_order_and_names_are_unique() {
        for (index, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, index);
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }
}
