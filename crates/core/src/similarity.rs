//! The Similarity Checker (§4.2, §5).
//!
//! "Smartpick maintains the known queries' identifiers and their
//! attributes, such as the number of tables, columns, subqueries, and map
//! tasks. When queries are sent, Smartpick extracts these attributes from
//! the incoming queries and computes the spatial cosine similarity to
//! search for the closest known-query identifier."

use smartpick_engine::QueryProfile;
use smartpick_sqlmeta::{cosine_similarity, extract};

/// A known query's similarity signature.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownSignature {
    /// Query identifier.
    pub query_id: String,
    /// `(tables, columns, subqueries, map_tasks)`.
    pub vector: [f64; 4],
}

/// The result of a similarity lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityMatch {
    /// The closest known query's identifier.
    pub query_id: String,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f64,
}

/// Finds the closest known query for alien requests.
#[derive(Debug, Clone, Default)]
pub struct SimilarityChecker {
    known: Vec<KnownSignature>,
}

impl SimilarityChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        SimilarityChecker::default()
    }

    /// Rebuilds a checker from previously captured
    /// [`SimilarityChecker::signatures`] — the persistence restore path.
    /// Signatures are taken verbatim (no re-extraction), so a restored
    /// checker matches queries exactly as the original did.
    pub fn from_signatures(signatures: Vec<KnownSignature>) -> Self {
        SimilarityChecker { known: signatures }
    }

    /// Registers a known query, extracting its signature from its SQL and
    /// map-task count. Re-registering an id replaces the old signature.
    pub fn register(&mut self, query: &QueryProfile) {
        let meta = extract(&query.sql);
        let vector = meta.to_similarity_vector(query.map_tasks());
        self.known.retain(|k| k.query_id != query.id);
        self.known.push(KnownSignature {
            query_id: query.id.clone(),
            vector,
        });
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// The registered signatures.
    pub fn signatures(&self) -> &[KnownSignature] {
        &self.known
    }

    /// Finds the closest known query to `query`, or `None` when nothing is
    /// registered.
    ///
    /// Dimensions are rescaled to comparable ranges (each divided by its
    /// maximum over the known set and the probe) before the cosine: the
    /// raw vector is dominated by the map-task count, which would make the
    /// cosine nearly degenerate across structurally different queries.
    pub fn closest(&self, query: &QueryProfile) -> Option<SimilarityMatch> {
        let meta = extract(&query.sql);
        let probe = meta.to_similarity_vector(query.map_tasks());

        let mut scale = [1e-9f64; 4];
        for d in 0..4 {
            scale[d] = scale[d].max(probe[d].abs());
            for k in &self.known {
                scale[d] = scale[d].max(k.vector[d].abs());
            }
        }
        let normalise = |v: &[f64; 4]| -> [f64; 4] {
            [
                v[0] / scale[0],
                v[1] / scale[1],
                v[2] / scale[2],
                v[3] / scale[3],
            ]
        };
        let probe = normalise(&probe);
        self.known
            .iter()
            .map(|k| SimilarityMatch {
                query_id: k.query_id.clone(),
                similarity: cosine_similarity(&probe, &normalise(&k.vector)),
            })
            .max_by(|a, b| {
                a.similarity
                    .partial_cmp(&b.similarity)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpick_workloads::tpcds;

    fn checker_with_training_set() -> SimilarityChecker {
        let mut sc = SimilarityChecker::new();
        for q in tpcds::TRAINING_QUERIES {
            sc.register(&tpcds::query(q, 100.0).unwrap());
        }
        sc
    }

    #[test]
    fn empty_checker_matches_nothing() {
        let sc = SimilarityChecker::new();
        assert!(sc.closest(&tpcds::query(2, 100.0).unwrap()).is_none());
        assert!(sc.is_empty());
    }

    #[test]
    fn known_query_matches_itself() {
        let sc = checker_with_training_set();
        let q11 = tpcds::query(11, 100.0).unwrap();
        let m = sc.closest(&q11).unwrap();
        assert_eq!(m.query_id, "tpcds-q11");
        assert!(m.similarity > 0.999);
    }

    #[test]
    fn aliens_match_their_counterparts() {
        // §6.5.1 pairings encoded in the workload catalog.
        let sc = checker_with_training_set();
        for (alien, expect) in [(2u32, "tpcds-q74"), (4, "tpcds-q11"), (55, "tpcds-q82")] {
            let q = tpcds::query(alien, 100.0).unwrap();
            let m = sc.closest(&q).unwrap();
            assert_eq!(m.query_id, expect, "alien q{alien}");
            assert!(m.similarity > 0.95, "similarity {}", m.similarity);
        }
    }

    #[test]
    fn reregistering_replaces() {
        let mut sc = SimilarityChecker::new();
        let q = tpcds::query(11, 100.0).unwrap();
        sc.register(&q);
        sc.register(&q);
        assert_eq!(sc.len(), 1);
        assert_eq!(sc.known[0].query_id, "tpcds-q11");
    }
}
