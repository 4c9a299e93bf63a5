//! Declarative domain specifications consumed by the synthetic generator.

use serde::{Deserialize, Serialize};

/// Specification of one entity type in a synthetic domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityTypeSpec {
    /// Entity-type name (e.g. `"FILM"`).
    pub name: String,
    /// Number of entities of this type to generate.
    pub entities: u64,
}

/// Specification of one relationship type in a synthetic domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelTypeSpec {
    /// Surface name (e.g. `"Directed By"`). Different relationship types may
    /// share a surface name as long as their endpoint types differ.
    pub name: String,
    /// Index into [`DomainSpec::entity_types`] of the source type.
    pub src: usize,
    /// Index into [`DomainSpec::entity_types`] of the destination type.
    pub dst: usize,
    /// Number of relationship instances (entity-graph edges) to generate.
    pub edges: u64,
}

/// A complete synthetic-domain specification: the schema graph shape plus the
/// per-type / per-relationship cardinalities the generator instantiates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Domain name (e.g. `"film"`).
    pub name: String,
    /// Entity types with their target entity counts.
    pub entity_types: Vec<EntityTypeSpec>,
    /// Relationship types with their target edge counts.
    pub relationship_types: Vec<RelTypeSpec>,
}

/// Errors detected while validating a [`DomainSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A relationship type references an entity type index that does not exist.
    DanglingTypeIndex {
        /// The offending relationship type name.
        relationship: String,
        /// The out-of-range index.
        index: usize,
    },
    /// Two entity types share the same name.
    DuplicateTypeName(String),
    /// Two relationship types share name *and* endpoints.
    DuplicateRelationship(String),
    /// The spec's cardinalities would overflow the `u32`-indexed graph store
    /// the generator lowers into (entity ids, edge ids and every CSR offset
    /// are `u32`-backed; see [`entity_graph::check_graph_capacity`]).
    ///
    /// Large scale factors hit this long before allocation fails: at film
    /// scale 1.0 a single extra `×300` on the edge scale silently wraps the
    /// edge-id space. Validation rejects the combination up front instead.
    CardinalityOverflow {
        /// Which counter overflowed (`"entities"`, `"edges"`,
        /// `"type memberships"`).
        what: &'static str,
        /// The requested total.
        requested: u64,
        /// The largest representable total.
        max: u64,
    },
    /// A type-name lookup failed; carries did-you-mean suggestions ranked by
    /// edit distance (matching the experiments-CLI unknown-flag pattern).
    UnknownTypeName {
        /// The name that did not match any entity type.
        name: String,
        /// The closest declared type names, nearest first.
        suggestions: Vec<String>,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::DanglingTypeIndex {
                relationship,
                index,
            } => {
                write!(
                    f,
                    "relationship {relationship:?} references unknown entity type index {index}"
                )
            }
            SpecError::DuplicateTypeName(name) => write!(f, "duplicate entity type name {name:?}"),
            SpecError::DuplicateRelationship(name) => {
                write!(
                    f,
                    "duplicate relationship type {name:?} (same name and endpoints)"
                )
            }
            SpecError::CardinalityOverflow {
                what,
                requested,
                max,
            } => {
                write!(
                    f,
                    "spec cardinalities too large: {requested} {what} exceed the \
                     u32-indexed limit of {max}; lower the scale factor"
                )
            }
            SpecError::UnknownTypeName { name, suggestions } => {
                write!(f, "unknown entity type name {name:?}")?;
                if !suggestions.is_empty() {
                    write!(f, "; did you mean {}?", suggestions.join(" or "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl DomainSpec {
    /// Total number of entities across all types.
    pub fn total_entities(&self) -> u64 {
        self.entity_types.iter().map(|t| t.entities).sum()
    }

    /// Total number of edges across all relationship types.
    pub fn total_edges(&self) -> u64 {
        self.relationship_types.iter().map(|r| r.edges).sum()
    }

    /// Number of entity types (schema-graph vertices).
    pub fn type_count(&self) -> usize {
        self.entity_types.len()
    }

    /// Number of relationship types (schema-graph edges).
    pub fn relationship_type_count(&self) -> usize {
        self.relationship_types.len()
    }

    /// Index of an entity type by name.
    pub fn type_index(&self, name: &str) -> Option<usize> {
        self.entity_types.iter().position(|t| t.name == name)
    }

    /// Resolves an entity-type name to its index, or fails with a
    /// [`SpecError::UnknownTypeName`] carrying did-you-mean suggestions —
    /// the closest declared names by edit distance, nearest first.
    pub fn resolve_type(&self, name: &str) -> Result<usize, SpecError> {
        if let Some(index) = self.type_index(name) {
            return Ok(index);
        }
        // Same tolerance rule as the experiments-CLI flag matcher: accept
        // candidates within a third of the query length (at least 1 edit),
        // so short names don't suggest arbitrary strangers.
        let max_distance = (name.chars().count() / 3).max(1);
        let mut ranked: Vec<(usize, &str)> = self
            .entity_types
            .iter()
            .map(|t| (levenshtein(name, &t.name), t.name.as_str()))
            .filter(|&(d, _)| d <= max_distance)
            .collect();
        ranked.sort();
        Err(SpecError::UnknownTypeName {
            name: name.to_string(),
            suggestions: ranked
                .into_iter()
                .take(3)
                .map(|(_, n)| n.to_string())
                .collect(),
        })
    }

    /// Validates internal consistency of the specification.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut names = std::collections::HashSet::new();
        for t in &self.entity_types {
            if !names.insert(t.name.as_str()) {
                return Err(SpecError::DuplicateTypeName(t.name.clone()));
            }
        }
        let mut rel_keys = std::collections::HashSet::new();
        for r in &self.relationship_types {
            for idx in [r.src, r.dst] {
                if idx >= self.entity_types.len() {
                    return Err(SpecError::DanglingTypeIndex {
                        relationship: r.name.clone(),
                        index: idx,
                    });
                }
            }
            if !rel_keys.insert((r.name.as_str(), r.src, r.dst)) {
                return Err(SpecError::DuplicateRelationship(r.name.clone()));
            }
        }
        // Reject cardinalities the u32-indexed graph store cannot hold before
        // the generator burns minutes building a graph that must fail. The
        // generator assigns exactly one type per entity, so type memberships
        // equal total entities.
        let entities = self.total_entities();
        if let Err(entity_graph::Error::GraphTooLarge {
            what,
            requested,
            max,
        }) = entity_graph::check_graph_capacity(entities, self.total_edges(), entities)
        {
            return Err(SpecError::CardinalityOverflow {
                what,
                requested,
                max,
            });
        }
        Ok(())
    }
}

/// Levenshtein edit distance over `char`s (insertions, deletions and
/// substitutions all cost 1), for did-you-mean suggestions.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DomainSpec {
        DomainSpec {
            name: "tiny".into(),
            entity_types: vec![
                EntityTypeSpec {
                    name: "A".into(),
                    entities: 10,
                },
                EntityTypeSpec {
                    name: "B".into(),
                    entities: 5,
                },
            ],
            relationship_types: vec![RelTypeSpec {
                name: "rel".into(),
                src: 0,
                dst: 1,
                edges: 20,
            }],
        }
    }

    #[test]
    fn totals_and_lookup() {
        let spec = tiny_spec();
        assert_eq!(spec.total_entities(), 15);
        assert_eq!(spec.total_edges(), 20);
        assert_eq!(spec.type_count(), 2);
        assert_eq!(spec.relationship_type_count(), 1);
        assert_eq!(spec.type_index("B"), Some(1));
        assert_eq!(spec.type_index("C"), None);
    }

    #[test]
    fn validate_accepts_well_formed_spec() {
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_dangling_index() {
        let mut spec = tiny_spec();
        spec.relationship_types[0].dst = 7;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::DanglingTypeIndex { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_type_names() {
        let mut spec = tiny_spec();
        spec.entity_types.push(EntityTypeSpec {
            name: "A".into(),
            entities: 1,
        });
        assert!(matches!(
            spec.validate(),
            Err(SpecError::DuplicateTypeName(_))
        ));
    }

    #[test]
    fn validate_rejects_duplicate_relationships() {
        let mut spec = tiny_spec();
        let dup = spec.relationship_types[0].clone();
        spec.relationship_types.push(dup);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::DuplicateRelationship(_))
        ));
    }

    #[test]
    fn spec_error_display() {
        let e = SpecError::DanglingTypeIndex {
            relationship: "r".into(),
            index: 3,
        };
        assert!(e.to_string().contains("unknown entity type index 3"));
    }

    #[test]
    fn validate_rejects_entity_overflow() {
        let mut spec = tiny_spec();
        spec.entity_types[0].entities = u64::from(u32::MAX);
        let err = spec.validate().unwrap_err();
        assert!(matches!(
            err,
            SpecError::CardinalityOverflow {
                what: "entities",
                requested,
                ..
            } if requested == u64::from(u32::MAX) + 5
        ));
        assert!(err.to_string().contains("lower the scale factor"));
    }

    #[test]
    fn validate_rejects_edge_overflow() {
        let mut spec = tiny_spec();
        spec.relationship_types[0].edges = u64::from(u32::MAX) + 7;
        assert!(matches!(
            spec.validate(),
            Err(SpecError::CardinalityOverflow { what: "edges", .. })
        ));
    }

    #[test]
    fn validate_accepts_near_limit_cardinalities() {
        let mut spec = tiny_spec();
        // MAX_GRAPH_DIMENSION itself is representable.
        spec.entity_types[0].entities = entity_graph::MAX_GRAPH_DIMENSION - 5;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn resolve_type_finds_exact_names() {
        let spec = tiny_spec();
        assert_eq!(spec.resolve_type("B"), Ok(1));
    }

    #[test]
    fn resolve_type_suggests_near_misses() {
        let mut spec = tiny_spec();
        spec.entity_types[0].name = "FILM".into();
        spec.entity_types[1].name = "FILM GENRE".into();
        let err = spec.resolve_type("FILN").unwrap_err();
        match &err {
            SpecError::UnknownTypeName { name, suggestions } => {
                assert_eq!(name, "FILN");
                assert_eq!(suggestions, &["FILM".to_string()]);
            }
            other => panic!("expected UnknownTypeName, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean FILM?"));
    }

    #[test]
    fn resolve_type_omits_far_fetched_suggestions() {
        let spec = tiny_spec(); // types "A" and "B"
        let err = spec.resolve_type("COMPLETELY DIFFERENT").unwrap_err();
        assert!(matches!(
            err,
            SpecError::UnknownTypeName { ref suggestions, .. } if suggestions.is_empty()
        ));
        assert!(!err.to_string().contains("did you mean"));
    }

    #[test]
    fn levenshtein_basics() {
        for (a, b, distance) in [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("kitten", "sitting", 3),
            ("table3", "table3", 0),
            ("tabel3", "table3", 2),
            ("fig5", "fig15", 1),
        ] {
            assert_eq!(levenshtein(a, b), distance, "{a:?} vs {b:?}");
        }
    }
}
