//! Ground truth: the set of true matching pairs of a benchmark dataset.

use crate::collection::{ErKind, ProfileCollection};
use crate::error::{Error, Result};
use crate::pair::Pair;
use crate::profile::{ProfileId, SourceId};
use std::collections::HashSet;

/// The reference set of matching profile pairs, in internal-id space.
///
/// The paper's demo uses datasets that "come with a ground-truth that allows
/// to analyze the performances of each SparkER step"; every per-step recall
/// and precision in the evaluation is computed against this set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    matches: HashSet<Pair>,
}

impl GroundTruth {
    /// Build from pairs already in internal-id space.
    pub fn from_pairs(pairs: impl IntoIterator<Item = Pair>) -> Self {
        GroundTruth {
            matches: pairs.into_iter().collect(),
        }
    }

    /// Resolve `(original_id_a, original_id_b)` pairs against a collection:
    /// on a clean–clean one the left id is looked up in source 0 and the
    /// right in source 1; on a dirty one both come from its single source.
    pub fn from_original_ids<'a>(
        collection: &ProfileCollection,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self> {
        let index = collection.original_id_index();
        let source_b = match collection.kind() {
            ErKind::Dirty => SourceId(0),
            ErKind::CleanClean => SourceId(1),
        };
        let resolve = |source: SourceId, id: &str| {
            index
                .get(&(source, id))
                .copied()
                .ok_or_else(|| Error::UnknownOriginalId {
                    source: source.0,
                    original_id: id.to_string(),
                })
        };
        let mut matches = HashSet::new();
        for (a, b) in pairs {
            matches.insert(Pair::new(resolve(SourceId(0), a)?, resolve(source_b, b)?));
        }
        Ok(GroundTruth { matches })
    }

    /// Number of true matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// `true` when there are no known matches.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, pair: &Pair) -> bool {
        self.matches.contains(pair)
    }

    /// Iterate over all true matches (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Pair> {
        self.matches.iter()
    }

    /// Fraction of true matches present in `candidates` — *pair
    /// completeness* (the blocking literature's name for recall).
    pub fn recall_of<'a>(&self, candidates: impl IntoIterator<Item = &'a Pair>) -> f64 {
        if self.matches.is_empty() {
            return 1.0;
        }
        let found = candidates
            .into_iter()
            .filter(|p| self.matches.contains(p))
            .count();
        found as f64 / self.matches.len() as f64
    }

    /// True matches for which `is_candidate` is false — the "false
    /// positives" of the paper's Figure 6(d) debug view (ground-truth pairs
    /// lost during blocking).
    pub fn lost_pairs(&self, is_candidate: impl Fn(&Pair) -> bool) -> Vec<Pair> {
        let mut lost: Vec<Pair> = self
            .matches
            .iter()
            .filter(|p| !is_candidate(p))
            .copied()
            .collect();
        lost.sort();
        lost
    }

    /// All true matches involving `id`.
    pub fn matches_of(&self, id: ProfileId) -> Vec<Pair> {
        let mut out: Vec<Pair> = self
            .matches
            .iter()
            .filter(|p| p.contains(id))
            .copied()
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn recall_and_precision() {
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(2, 3)]);
        let candidates = [pair(0, 1), pair(0, 2), pair(1, 3)];
        assert!((gt.recall_of(candidates.iter()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ground_truth_has_full_recall() {
        let gt = GroundTruth::default();
        assert!(gt.is_empty());
        assert_eq!(gt.recall_of(std::iter::empty()), 1.0);
    }

    #[test]
    fn lost_pairs_sorted() {
        let gt = GroundTruth::from_pairs(vec![pair(4, 5), pair(0, 1), pair(2, 3)]);
        assert_eq!(
            gt.lost_pairs(|p| *p == pair(2, 3)),
            vec![pair(0, 1), pair(4, 5)]
        );
    }

    #[test]
    fn matches_of_profile() {
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(1, 2), pair(3, 4)]);
        assert_eq!(gt.matches_of(ProfileId(1)), vec![pair(0, 1), pair(1, 2)]);
        assert!(gt.matches_of(ProfileId(9)).is_empty());
    }

    #[test]
    fn resolves_original_ids() {
        let coll = ProfileCollection::clean_clean(
            vec![Profile::builder(SourceId(0), "abt-1")
                .attr("n", "x")
                .build()],
            vec![Profile::builder(SourceId(1), "buy-9")
                .attr("n", "x")
                .build()],
        );
        let gt = GroundTruth::from_original_ids(&coll, vec![("abt-1", "buy-9")]).unwrap();
        assert_eq!(gt.len(), 1);
        assert!(gt.contains(&pair(0, 1)));
    }

    #[test]
    fn unknown_original_id_is_an_error() {
        let coll = ProfileCollection::clean_clean(
            vec![Profile::builder(SourceId(0), "a").attr("n", "x").build()],
            vec![Profile::builder(SourceId(1), "b").attr("n", "x").build()],
        );
        let err = GroundTruth::from_original_ids(&coll, vec![("a", "nope")]).unwrap_err();
        assert!(matches!(err, Error::UnknownOriginalId { source: 1, .. }));
    }

    #[test]
    fn resolves_both_ids_in_the_single_source_of_a_dirty_collection() {
        let coll = ProfileCollection::dirty(
            ["a", "b", "c"]
                .map(|id| Profile::builder(SourceId(0), id).attr("n", "x").build())
                .into(),
        );
        let gt = GroundTruth::from_original_ids(&coll, vec![("a", "b"), ("c", "a")]).unwrap();
        assert_eq!(gt.len(), 2);
        assert!(gt.contains(&pair(0, 1)));
        assert!(gt.contains(&pair(0, 2)));
        let err = GroundTruth::from_original_ids(&coll, vec![("a", "zz")]).unwrap_err();
        assert!(matches!(err, Error::UnknownOriginalId { source: 0, .. }));
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(1, 0), pair(0, 1)]);
        assert_eq!(gt.len(), 1);
        assert_eq!(gt.iter().count(), 1);
    }
}
