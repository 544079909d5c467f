//! The blocker's candidate pairs as a sorted set.
//!
//! Every pruning driver already emits its retained edges sorted by pair —
//! the fused driver as a run of sorted per-morsel batches that ascend — so
//! the set is those lists themselves, adopted as chunks: membership is two
//! binary searches and no second, hashed or concatenated copy of millions
//! of pairs is ever built.

use sparker_matching::AscendingBatches;
use sparker_profiles::Pair;

/// A set of candidate pairs, each with its meta-blocking weight, stored
/// strictly ascending by pair in one or more sorted chunks.
///
/// Set semantics are over the pairs alone: two sets are equal when they
/// hold the same pairs, however they are chunked. Sets built from bare
/// pairs (meta-blocking disabled: the blocking graph is unweighted) give
/// every pair weight 1.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Non-empty chunks; strictly ascending within and across chunks.
    chunks: Vec<Vec<(Pair, f64)>>,
    len: usize,
}

impl CandidateSet {
    /// Adopt a retained-edge list that is already strictly ascending by
    /// pair — what the staged meta-blocking drivers return. Panics
    /// otherwise.
    pub fn from_sorted(edges: Vec<(Pair, f64)>) -> Self {
        Self::from_sorted_chunks(vec![edges])
    }

    /// Adopt a run of retained-edge lists whose concatenation is strictly
    /// ascending by pair — what the fused driver's producers emit, one
    /// list per morsel — without copying them. Empty lists are dropped.
    /// Panics on an equal or descending pair inside a list or across a
    /// list boundary.
    pub fn from_sorted_chunks(chunks: Vec<Vec<(Pair, f64)>>) -> Self {
        assert!(
            chunks.iter().all(|c| c.windows(2).all(|w| w[0].0 < w[1].0)),
            "candidate edges must be strictly ascending by pair"
        );
        Self::adopt_ascending(chunks)
    }

    /// Adopt the fused stage's retained batches: the consumer that scored
    /// each batch already checked it strictly ascending, so only the
    /// boundaries between batches are compared here. Empty batches are
    /// dropped. Panics on an equal or descending pair across a boundary.
    pub fn from_ascending_batches(batches: AscendingBatches) -> Self {
        Self::adopt_ascending(batches.into_batches())
    }

    /// Adopt chunks each known to be strictly ascending, checking the
    /// chunk boundaries.
    fn adopt_ascending(mut chunks: Vec<Vec<(Pair, f64)>>) -> Self {
        chunks.retain(|c| !c.is_empty());
        assert!(
            chunks
                .windows(2)
                .all(|w| w[0][w[0].len() - 1].0 < w[1][0].0),
            "candidate edges must be strictly ascending by pair"
        );
        let len = chunks.iter().map(Vec::len).sum();
        CandidateSet { chunks, len }
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test: binary search for the one chunk that could hold
    /// `pair` (the first whose last pair is not below it), then within it.
    pub fn contains(&self, pair: &Pair) -> bool {
        let k = self.chunks.partition_point(|c| c[c.len() - 1].0 < *pair);
        self.chunks
            .get(k)
            .is_some_and(|c| c.binary_search_by(|(p, _)| p.cmp(pair)).is_ok())
    }

    /// The candidate pairs, ascending.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The candidates with their meta-blocking weights, ascending by pair.
    pub fn weighted(&self) -> impl Iterator<Item = &(Pair, f64)> + '_ {
        self.chunks.iter().flatten()
    }
}

impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for CandidateSet {}

impl FromIterator<Pair> for CandidateSet {
    /// Collect bare pairs in any order; duplicates collapse.
    fn from_iter<I: IntoIterator<Item = Pair>>(pairs: I) -> Self {
        let mut edges: Vec<(Pair, f64)> = pairs.into_iter().map(|p| (p, 1.0)).collect();
        edges.sort_unstable_by_key(|&(p, _)| p);
        edges.dedup_by_key(|&mut (p, _)| p);
        Self::from_sorted(edges)
    }
}

impl<'a> IntoIterator for &'a CandidateSet {
    type Item = &'a Pair;
    type IntoIter = std::iter::Map<
        std::iter::Flatten<std::slice::Iter<'a, Vec<(Pair, f64)>>>,
        fn(&'a (Pair, f64)) -> &'a Pair,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter().flatten().map(|(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparker_profiles::ProfileId;
    use std::collections::HashSet;

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn empty_set() {
        let set = CandidateSet::default();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&pair(0, 1)));
        assert_eq!(set.iter().count(), 0);
        assert_eq!(set, CandidateSet::from_sorted(Vec::new()));
        assert_eq!(set, CandidateSet::from_sorted_chunks(vec![vec![], vec![]]));
    }

    #[test]
    fn equality_ignores_weights() {
        let a = CandidateSet::from_sorted(vec![(pair(0, 1), 2.0), (pair(0, 2), 3.0)]);
        let b: CandidateSet = [pair(0, 2), pair(0, 1)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.weighted().nth(1), Some(&(pair(0, 2), 3.0)));
        assert_ne!(a, CandidateSet::from_sorted(vec![(pair(0, 1), 2.0)]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_rejected() {
        CandidateSet::from_sorted(vec![(pair(0, 2), 1.0), (pair(0, 1), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_edges_rejected() {
        CandidateSet::from_sorted(vec![(pair(0, 1), 1.0), (pair(0, 1), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn equal_pairs_across_a_chunk_boundary_rejected() {
        CandidateSet::from_sorted_chunks(vec![
            vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
            vec![],
            vec![(pair(0, 2), 1.0), (pair(0, 3), 1.0)],
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn descending_pairs_across_a_chunk_boundary_rejected() {
        CandidateSet::from_sorted_chunks(vec![
            vec![(pair(1, 2), 1.0)],
            vec![(pair(0, 5), 1.0), (pair(0, 6), 1.0)],
        ]);
    }

    /// The retained batches `score_stream` hands back for `morsels`,
    /// emitted as they are on two workers.
    fn streamed(morsels: &[Vec<(Pair, f64)>]) -> AscendingBatches {
        use sparker_dataflow::Context;
        use sparker_matching::{PreparedProfile, SimilarityMeasure, ThresholdMatcher};
        use sparker_profiles::{Profile, ProfileCollection, SourceId};
        let collection = ProfileCollection::dirty(
            (0..8)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("name", format!("tok{} shared", i % 2))
                        .build()
                })
                .collect(),
        );
        let prepared = PreparedProfile::prepare_all(&collection);
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        matcher
            .score_stream(&Context::new(2), &prepared, morsels, 2, |_, m| m.clone())
            .retained
    }

    #[test]
    fn streamed_batches_are_adopted_with_their_boundaries_checked() {
        let morsels = vec![
            vec![(pair(0, 1), 1.0), (pair(0, 2), 2.0)],
            vec![],
            vec![(pair(1, 2), 1.0), (pair(3, 4), 1.0)],
        ];
        let set = CandidateSet::from_ascending_batches(streamed(&morsels));
        assert_eq!(set, CandidateSet::from_sorted_chunks(morsels.clone()));
        assert!(set.weighted().eq(morsels.iter().flatten()));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_inversion_across_batches_rejected() {
        CandidateSet::from_ascending_batches(streamed(&[
            vec![(pair(0, 1), 1.0), (pair(2, 3), 1.0)],
            vec![],
            vec![(pair(1, 2), 1.0)],
        ]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_duplicate_across_batches_rejected() {
        CandidateSet::from_ascending_batches(streamed(&[
            vec![(pair(0, 1), 1.0)],
            vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
        ]));
    }

    proptest! {
        /// `len`/`contains`/`iter`/`weighted`/`Eq` agree with a `HashSet`
        /// oracle, built either way (bare pairs in any order, or the sorted
        /// edge list cut into random chunks, empty ones included) — and
        /// `contains` finds the first and last pair of every chunk.
        #[test]
        fn agrees_with_hashset_oracle(
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..120),
            probes in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
            cuts in proptest::collection::vec(0usize..121, 0..8),
        ) {
            let pairs: Vec<Pair> = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| pair(a, b))
                .collect();
            let oracle: HashSet<Pair> = pairs.iter().copied().collect();
            let set: CandidateSet = pairs.iter().copied().collect();

            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
            let listed: Vec<Pair> = set.iter().copied().collect();
            prop_assert!(listed.windows(2).all(|w| w[0] < w[1]), "iter is ascending");
            prop_assert_eq!(listed.iter().copied().collect::<HashSet<_>>(), oracle.clone());
            prop_assert_eq!((&set).into_iter().count(), oracle.len());
            for &(a, b) in &probes {
                if a != b {
                    let p = pair(a, b);
                    prop_assert_eq!(set.contains(&p), oracle.contains(&p));
                }
            }

            let sorted: Vec<(Pair, f64)> = listed.iter().map(|&p| (p, 0.5)).collect();
            let adopted = CandidateSet::from_sorted(sorted.clone());
            prop_assert_eq!(&adopted, &set);
            if let Some(&drop) = listed.first() {
                let fewer: CandidateSet = listed.iter().copied().filter(|p| *p != drop).collect();
                prop_assert_ne!(&fewer, &set);
            }

            // The same list cut at random (possibly repeated, so possibly
            // empty-chunk-producing) points.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(sorted.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for &cut in cuts.iter().chain([&sorted.len()]) {
                chunks.push(sorted[start..cut].to_vec());
                start = cut;
            }
            let chunked = CandidateSet::from_sorted_chunks(chunks.clone());
            prop_assert_eq!(&chunked, &set);
            prop_assert_eq!(chunked.len(), oracle.len());
            prop_assert!(chunked.weighted().eq(sorted.iter()));
            for &(a, b) in &probes {
                if a != b {
                    let p = pair(a, b);
                    prop_assert_eq!(chunked.contains(&p), oracle.contains(&p));
                }
            }
            for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                prop_assert!(chunked.contains(&chunk[0].0));
                prop_assert!(chunked.contains(&chunk[chunk.len() - 1].0));
            }
        }
    }
}
