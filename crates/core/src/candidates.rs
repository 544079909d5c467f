//! The blocker's candidate pairs as a sorted set.
//!
//! Every pruning driver already emits its retained edges sorted by pair,
//! so the set is that list itself: membership is a binary search and no
//! second, hashed copy of millions of pairs is ever built.

use sparker_profiles::Pair;

/// A set of candidate pairs, each with its meta-blocking weight, stored
/// strictly ascending by pair.
///
/// Set semantics are over the pairs alone: two sets are equal when they
/// hold the same pairs. Sets built from bare pairs (meta-blocking
/// disabled: the blocking graph is unweighted) give every pair weight 1.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    edges: Vec<(Pair, f64)>,
}

impl CandidateSet {
    /// Adopt a retained-edge list that is already strictly ascending by
    /// pair — what every meta-blocking driver returns. Panics otherwise.
    pub fn from_sorted(edges: Vec<(Pair, f64)>) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0].0 < w[1].0),
            "candidate edges must be strictly ascending by pair"
        );
        CandidateSet { edges }
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, pair: &Pair) -> bool {
        self.edges.binary_search_by(|(p, _)| p.cmp(pair)).is_ok()
    }

    /// The candidate pairs, ascending.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The candidates with their meta-blocking weights, ascending by pair.
    pub fn weighted(&self) -> &[(Pair, f64)] {
        &self.edges
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
        CandidateSet { edges }
    }
}

impl<'a> IntoIterator for &'a CandidateSet {
    type Item = &'a Pair;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (Pair, f64)>, fn(&'a (Pair, f64)) -> &'a Pair>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter().map(|(p, _)| p)
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
    }

    #[test]
    fn equality_ignores_weights() {
        let a = CandidateSet::from_sorted(vec![(pair(0, 1), 2.0), (pair(0, 2), 3.0)]);
        let b: CandidateSet = [pair(0, 2), pair(0, 1)].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.weighted()[1], (pair(0, 2), 3.0));
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

    proptest! {
        /// `len`/`contains`/`iter`/`Eq` agree with a `HashSet` oracle, built
        /// either way (bare pairs in any order, or the sorted edge list).
        #[test]
        fn agrees_with_hashset_oracle(
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..120),
            probes in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
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
            for (a, b) in probes {
                if a != b {
                    let p = pair(a, b);
                    prop_assert_eq!(set.contains(&p), oracle.contains(&p));
                }
            }

            let mut sorted: Vec<(Pair, f64)> = oracle.iter().map(|&p| (p, 0.5)).collect();
            sorted.sort_by_key(|&(p, _)| p);
            let adopted = CandidateSet::from_sorted(sorted);
            prop_assert_eq!(&adopted, &set);
            if let Some(&drop) = listed.first() {
                let fewer: CandidateSet = listed.iter().copied().filter(|p| *p != drop).collect();
                prop_assert_ne!(&fewer, &set);
            }
        }
    }
}
