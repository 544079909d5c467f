//! The blocker's candidate pairs as a sorted set.
//!
//! Every pruning driver emits its retained edges sorted by pair. The
//! staged drivers hand over one list, adopted as the set: membership is one
//! binary search and no second, hashed copy of millions of pairs is ever
//! built. The fused driver hands over less — per-batch digests taken while
//! its matcher scored the batches (see [`sparker_matching::BatchDigest`])
//! — and a way to re-derive them: the set knows its length from the
//! digests, and only a read of the pairs themselves runs pass B again,
//! once, into one buffer of exactly that length, checked against them.

use sparker_matching::{BatchDigest, RetainedDigest};
use sparker_profiles::Pair;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A set of candidate pairs, each with its meta-blocking weight, stored
/// strictly ascending by pair in one buffer — held from the start, or
/// re-derived on the first read ([`CandidateSet::deferred`]).
///
/// Set semantics are over the pairs alone: two sets are equal when they
/// hold the same pairs. Sets built from bare pairs (meta-blocking
/// disabled: the blocking graph is unweighted) give every pair weight 1.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    store: Store,
}

#[derive(Debug, Clone)]
enum Store {
    /// Strictly ascending.
    Sorted(Vec<(Pair, f64)>),
    /// Counted while streamed, materialized on the first read; clones
    /// share the materialization.
    Deferred(Arc<Deferred>),
}

impl Default for Store {
    fn default() -> Self {
        Store::Sorted(Vec::new())
    }
}

/// Feeds the retained batches again, in the order they were streamed, to
/// the sink it is given.
type Rederive = dyn Fn(&mut dyn FnMut(&[(Pair, f64)])) + Send + Sync;

/// A retained-edge run known by its digest until something reads it.
struct Deferred {
    digest: RetainedDigest,
    rederive: Box<Rederive>,
    edges: OnceLock<Vec<(Pair, f64)>>,
}

impl fmt::Debug for Deferred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deferred")
            .field("digest", &self.digest)
            .field("materialized", &self.edges.get().is_some())
            .finish_non_exhaustive()
    }
}

impl Deferred {
    /// Run the re-derivation into one buffer of the streamed length,
    /// digesting each batch as it is appended, and check it reproduces the
    /// streamed run: every batch strictly ascending, every boundary
    /// ascending, and the same length and fingerprint.
    fn materialize(&self) -> Vec<(Pair, f64)> {
        let mut edges = Vec::with_capacity(self.digest.len());
        self.replay(|batch| edges.extend_from_slice(batch));
        edges
    }

    /// Run the re-derivation, handing `sink` each batch, with the checks
    /// [`Deferred::materialize`] makes.
    fn replay(&self, mut sink: impl FnMut(&[(Pair, f64)])) {
        let mut digests = Vec::new();
        (self.rederive)(&mut |batch| {
            digests.push(BatchDigest::of(batch));
            sink(batch);
        });
        assert!(
            RetainedDigest::fold(&digests) == self.digest,
            "re-derived candidate edges differ from the streamed ones \
             (pass B must be a pure function of its morsels)"
        );
    }
}

impl CandidateSet {
    /// Adopt a retained-edge list that is already strictly ascending by
    /// pair — what the staged meta-blocking drivers return — without
    /// copying it. Panics otherwise.
    pub fn from_sorted(edges: Vec<(Pair, f64)>) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0].0 < w[1].0),
            "candidate edges must be strictly ascending by pair"
        );
        CandidateSet {
            store: Store::Sorted(edges),
        }
    }

    /// The fused driver's set: `streamed` are the digests its consumers
    /// took of each retained batch, in morsel order, and `rederive` feeds
    /// those batches again (the same pass B over the same morsels) to the
    /// sink it is called with. The batch boundaries are checked here and
    /// the digests folded; [`CandidateSet::len`] and
    /// [`CandidateSet::is_empty`] read the fold. The first read of the
    /// pairs — `contains`, `iter`, `weighted`, `==` — calls `rederive`
    /// once, appending its batches to one buffer of the streamed length,
    /// and panics unless they are strictly ascending and match the streamed
    /// length and fingerprint. Panics on an equal or descending pair across
    /// a batch boundary.
    pub fn deferred(
        streamed: &[BatchDigest],
        rederive: impl Fn(&mut dyn FnMut(&[(Pair, f64)])) + Send + Sync + 'static,
    ) -> Self {
        CandidateSet {
            store: Store::Deferred(Arc::new(Deferred {
                digest: RetainedDigest::fold(streamed),
                rederive: Box::new(rederive),
                edges: OnceLock::new(),
            })),
        }
    }

    /// The sorted edges, materializing a deferred set.
    fn edges(&self) -> &[(Pair, f64)] {
        match &self.store {
            Store::Sorted(edges) => edges,
            Store::Deferred(deferred) => deferred.edges.get_or_init(|| deferred.materialize()),
        }
    }

    /// Number of candidate pairs.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Sorted(edges) => edges.len(),
            Store::Deferred(deferred) => deferred.digest.len(),
        }
    }

    /// `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test: one binary search.
    pub fn contains(&self, pair: &Pair) -> bool {
        self.edges().binary_search_by(|(p, _)| p.cmp(pair)).is_ok()
    }

    /// How many of `pairs` — ascending, repeats counted each time — are
    /// candidates. A set that holds its pairs answers by one binary search
    /// per pair; a deferred one not yet read is re-derived batch by batch,
    /// with the checks of its first read, and merge-joined against `pairs`
    /// as the batches go by, so its pairs are never held at once.
    pub(crate) fn count_contained(&self, pairs: &[Pair]) -> usize {
        debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "pairs ascending");
        let deferred = match &self.store {
            Store::Deferred(deferred) if deferred.edges.get().is_none() => deferred,
            _ => return pairs.iter().filter(|p| self.contains(p)).count(),
        };
        let (mut found, mut next) = (0, 0);
        deferred.replay(|batch| {
            for (edge, _) in batch {
                while pairs.get(next).is_some_and(|p| p < edge) {
                    next += 1;
                }
                while pairs.get(next) == Some(edge) {
                    found += 1;
                    next += 1;
                }
            }
        });
        found
    }

    /// The candidate pairs, ascending.
    pub fn iter(&self) -> <&Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// The candidates with their meta-blocking weights, ascending by pair.
    pub fn weighted(&self) -> impl Iterator<Item = &(Pair, f64)> + '_ {
        self.edges().iter()
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
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, (Pair, f64)>, fn(&'a (Pair, f64)) -> &'a Pair>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges().iter().map(|(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparker_profiles::ProfileId;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let (empty_batches, _) = deferred(&[vec![], vec![]], vec![vec![], vec![]]);
        assert_eq!(set, empty_batches);
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

    /// Re-derived batches that are each sorted but repeat a pair across a
    /// boundary (an empty batch between them) are refused when the set is
    /// read, before their fingerprint is compared.
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn equal_pairs_across_a_chunk_boundary_rejected() {
        let rederived = vec![
            vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
            vec![],
            vec![(pair(0, 2), 1.0), (pair(0, 3), 1.0)],
        ];
        deferred(&morsels(), rederived).0.contains(&pair(0, 1));
    }

    /// The same for a batch that starts below the end of the one before.
    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn descending_pairs_across_a_chunk_boundary_rejected() {
        let rederived = vec![
            vec![(pair(1, 2), 1.0)],
            vec![(pair(0, 5), 1.0), (pair(0, 6), 1.0)],
        ];
        deferred(&morsels(), rederived).0.iter().count();
    }

    /// The digests `score_stream` takes of `morsels`, emitted as they are
    /// on two workers.
    fn streamed(morsels: &[Vec<(Pair, f64)>]) -> Vec<BatchDigest> {
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
            .score_stream(&Context::new(2), &prepared, morsels, 2, |_, m, out| {
                out.clear();
                out.extend_from_slice(m);
            })
            .retained
    }

    /// A deferred set over `streamed(morsels)` whose re-derivation returns
    /// `rederived`, and a count of its re-derivations.
    fn deferred(
        morsels: &[Vec<(Pair, f64)>],
        rederived: Vec<Vec<(Pair, f64)>>,
    ) -> (CandidateSet, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let set = CandidateSet::deferred(&streamed(morsels), {
            let calls = Arc::clone(&calls);
            move |sink| {
                calls.fetch_add(1, Ordering::Relaxed);
                for batch in &rederived {
                    sink(batch);
                }
            }
        });
        (set, calls)
    }

    fn morsels() -> Vec<Vec<(Pair, f64)>> {
        vec![
            vec![(pair(0, 1), 1.0), (pair(0, 2), 2.0)],
            vec![],
            vec![(pair(1, 2), 1.0), (pair(3, 4), 0.25)],
        ]
    }

    #[test]
    fn streamed_batches_are_adopted_with_their_boundaries_checked() {
        let morsels = morsels();
        let adopted = CandidateSet::from_sorted(morsels.concat());
        let (set, calls) = deferred(&morsels, morsels.clone());
        let copy = set.clone();
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "len must not re-derive");
        for (a, b) in [(0, 1), (0, 2), (1, 2), (3, 4), (0, 3), (2, 3), (4, 5)] {
            assert_eq!(set.contains(&pair(a, b)), adopted.contains(&pair(a, b)));
        }
        assert!(set.iter().eq(adopted.iter()));
        assert!(set.weighted().eq(adopted.weighted()));
        assert!(set.weighted().eq(morsels.iter().flatten()));
        assert_eq!(set, adopted);
        assert_eq!(adopted, set);
        assert_eq!(copy, set);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "clones share one re-derivation"
        );
        let Store::Deferred(materialized) = &set.store else {
            unreachable!("a deferred set")
        };
        let edges = materialized.edges.get().expect("read above");
        assert_eq!(
            edges.capacity(),
            4,
            "one buffer of exactly the streamed length"
        );
    }

    #[test]
    fn each_read_materializes_a_deferred_set() {
        let morsels = morsels();
        let adopted = CandidateSet::from_sorted(morsels.concat());
        let reads: [fn(&CandidateSet, &CandidateSet); 4] = [
            |s, _| assert!(s.contains(&pair(1, 2))),
            |s, c| assert!(s.iter().eq(c.iter())),
            |s, c| assert!(s.weighted().eq(c.weighted())),
            |s, c| assert_eq!(s, c),
        ];
        for read in reads {
            let (set, calls) = deferred(&morsels, morsels.clone());
            assert_eq!(set.len(), adopted.len());
            assert_eq!(calls.load(Ordering::Relaxed), 0);
            read(&set, &adopted);
            assert_eq!(calls.load(Ordering::Relaxed), 1);
        }
        // A length mismatch needs no pairs at all.
        let (empty, calls) = deferred(&[], Vec::new());
        assert!(empty.is_empty());
        assert_ne!(empty, adopted);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(empty, CandidateSet::default());
    }

    #[test]
    fn counting_streams_a_deferred_set_without_holding_it() {
        let morsels = morsels();
        let adopted = CandidateSet::from_sorted(morsels.concat());
        let mut probes: Vec<Pair> = [(0, 1), (0, 2), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]
            .into_iter()
            .map(|(a, b)| pair(a, b))
            .collect();
        probes.sort_unstable();
        let expected = probes.iter().filter(|p| adopted.contains(p)).count();
        assert_eq!(expected, 5, "a repeated pair counts each time");
        assert_eq!(adopted.count_contained(&probes), expected);
        let (set, calls) = deferred(&morsels, morsels.clone());
        assert_eq!(set.count_contained(&probes), expected);
        assert_eq!(set.count_contained(&[]), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "each count re-derives");
        let Store::Deferred(lazy) = &set.store else {
            unreachable!("a deferred set")
        };
        assert!(lazy.edges.get().is_none(), "counting holds no pairs");
        // Once read, the held pairs answer.
        assert!(set.contains(&pair(0, 1)));
        assert_eq!(set.count_contained(&probes), expected);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "re-derived candidate edges differ")]
    fn counting_checks_the_rederivation() {
        let mut changed = morsels();
        changed[0][0].1 = 0.5;
        deferred(&morsels(), changed)
            .0
            .count_contained(&[pair(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "re-derived candidate edges differ")]
    fn rederived_weight_change_panics() {
        let mut changed = morsels();
        changed[2][1].1 = 0.5;
        deferred(&morsels(), changed).0.contains(&pair(0, 1));
    }

    #[test]
    #[should_panic(expected = "re-derived candidate edges differ")]
    fn rederived_pair_change_panics() {
        let mut changed = morsels();
        changed[2][1].0 = pair(3, 5);
        deferred(&morsels(), changed).0.iter().count();
    }

    #[test]
    #[should_panic(expected = "re-derived candidate edges differ")]
    fn rederived_extra_pair_panics() {
        let mut changed = morsels();
        changed[1].push((pair(0, 3), 1.0));
        deferred(&morsels(), changed).0.weighted().count();
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rederived_inversion_panics() {
        let mut changed = morsels();
        changed.swap(0, 2);
        let (set, _) = deferred(&morsels(), changed);
        let _ = set == CandidateSet::from_sorted(morsels().concat());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_inversion_across_batches_rejected() {
        CandidateSet::deferred(
            &streamed(&[
                vec![(pair(0, 1), 1.0), (pair(2, 3), 1.0)],
                vec![],
                vec![(pair(1, 2), 1.0)],
            ]),
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn streamed_duplicate_across_batches_rejected() {
        CandidateSet::deferred(
            &streamed(&[
                vec![(pair(0, 1), 1.0)],
                vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
            ]),
            |_| {},
        );
    }

    proptest! {
        /// `len`/`contains`/`iter`/`weighted`/`Eq` agree with a `HashSet`
        /// oracle, built any way (bare pairs in any order, the sorted edge
        /// list adopted, or that list cut into random batches, empty ones
        /// included, and re-derived) — and `contains` finds the first and
        /// last pair of every batch.
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
            // empty) batches, streamed and re-derived on demand.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(sorted.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for &cut in cuts.iter().chain([&sorted.len()]) {
                chunks.push(sorted[start..cut].to_vec());
                start = cut;
            }
            let digests: Vec<BatchDigest> = chunks.iter().map(|c| BatchDigest::of(c)).collect();
            let rederived = chunks.clone();
            let lazy = CandidateSet::deferred(&digests, move |sink| {
                for chunk in &rederived {
                    sink(chunk);
                }
            });
            prop_assert_eq!(lazy.len(), oracle.len());
            prop_assert_eq!(lazy.is_empty(), oracle.is_empty());
            for &(a, b) in &probes {
                if a != b {
                    let p = pair(a, b);
                    prop_assert_eq!(lazy.contains(&p), oracle.contains(&p));
                }
            }
            for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                prop_assert!(lazy.contains(&chunk[0].0));
                prop_assert!(lazy.contains(&chunk[chunk.len() - 1].0));
            }
            let mut sorted_probes: Vec<Pair> = probes
                .iter()
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| pair(a, b))
                .collect();
            sorted_probes.sort_unstable();
            let in_oracle = sorted_probes.iter().filter(|p| oracle.contains(p)).count();
            prop_assert_eq!(lazy.count_contained(&sorted_probes), in_oracle);
            prop_assert_eq!(set.count_contained(&sorted_probes), in_oracle);
            prop_assert!(lazy.weighted().eq(sorted.iter()));
            prop_assert_eq!(&lazy, &set);
        }
    }
}
