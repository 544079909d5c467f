//! Per-step evaluation against the ground truth.
//!
//! "Each step can be assessed using precision and recall, if a ground-truth
//! is available." The blocking literature's names are used alongside:
//! recall = pair completeness (PC), precision = pair quality (PQ), plus the
//! reduction ratio (RR) against the naive all-pairs baseline.

use crate::candidates::CandidateSet;
use sparker_clustering::EntityClusters;
use sparker_profiles::{GroundTruth, Pair, ProfileCollection};

/// Quality of a candidate-pair set (after blocking or meta-blocking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingQuality {
    /// Pair completeness: fraction of true matches among the candidates.
    pub recall: f64,
    /// Pair quality: fraction of candidates that are true matches.
    pub precision: f64,
    /// Reduction ratio: 1 − candidates / all comparable pairs.
    pub reduction_ratio: f64,
    /// Number of candidate pairs.
    pub candidates: u64,
    /// True matches lost (the debug view's "false positives").
    pub lost_matches: u64,
}

impl BlockingQuality {
    /// Measure a candidate set against the ground truth.
    pub fn measure(
        candidates: &CandidateSet,
        ground_truth: &GroundTruth,
        collection: &ProfileCollection,
    ) -> Self {
        Self::measure_with_total(candidates, ground_truth, collection.comparable_pairs())
    }

    /// [`BlockingQuality::measure`] with an explicit comparable-pair total
    /// (the reduction-ratio baseline). The ground truth is sorted once and
    /// merge-joined against the ascending candidates — a deferred set is
    /// re-derived batch by batch, not materialized: the found-match count
    /// drives `recall`, `precision` and `lost_matches`.
    pub fn measure_with_total(
        candidates: &CandidateSet,
        ground_truth: &GroundTruth,
        total: u64,
    ) -> Self {
        let mut truth: Vec<Pair> = ground_truth.iter().copied().collect();
        truth.sort_unstable();
        let found = candidates.count_contained(&truth) as u64;
        let recall = if ground_truth.is_empty() {
            1.0
        } else {
            found as f64 / ground_truth.len() as f64
        };
        // Both sides are sets, so the found matches are exactly the true
        // matches among the candidates.
        let precision = if candidates.is_empty() {
            0.0
        } else {
            found as f64 / candidates.len() as f64
        };
        let reduction_ratio = if total == 0 {
            0.0
        } else {
            1.0 - candidates.len() as f64 / total as f64
        };
        BlockingQuality {
            recall,
            precision,
            reduction_ratio,
            candidates: candidates.len() as u64,
            lost_matches: ground_truth.len() as u64 - found,
        }
    }
}

/// Pairwise precision/recall/F1 of a set of asserted matching pairs
/// (matcher output or cluster-implied pairs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairQuality {
    /// Fraction of asserted pairs that are true matches.
    pub precision: f64,
    /// Fraction of true matches asserted.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl PairQuality {
    /// Measure asserted pairs against the ground truth.
    pub fn measure<'a>(
        asserted: impl IntoIterator<Item = &'a Pair>,
        ground_truth: &GroundTruth,
    ) -> Self {
        let mut total = 0u64;
        let mut correct = 0u64;
        for p in asserted {
            total += 1;
            if ground_truth.contains(p) {
                correct += 1;
            }
        }
        Self::from_counts(correct, total, ground_truth.len() as u64)
    }

    /// Measure a clustering by its implied intra-cluster pairs, counted
    /// rather than listed: a cluster of `s` profiles asserts `s(s−1)/2`
    /// pairs, and an asserted pair is correct exactly when it is a
    /// ground-truth pair whose two profiles share a cluster. The same
    /// numbers, bit for bit, as [`PairQuality::measure`] over every
    /// intra-cluster pair, in time linear in profiles plus truth pairs.
    pub fn of_clusters(clusters: &EntityClusters, ground_truth: &GroundTruth) -> Self {
        let (offsets, _) = clusters.grouped();
        let total = offsets
            .windows(2)
            .map(|w| {
                let size = u64::from(w[1] - w[0]);
                size * size.saturating_sub(1) / 2
            })
            .sum();
        let n = clusters.num_profiles();
        let correct = ground_truth
            .iter()
            .filter(|p| {
                p.first != p.second
                    && p.first.index() < n
                    && p.second.index() < n
                    && clusters.same_entity(p.first, p.second)
            })
            .count() as u64;
        Self::from_counts(correct, total, ground_truth.len() as u64)
    }

    /// Precision, recall and F1 from `correct` of `total` asserted pairs
    /// against `truth` true matches.
    fn from_counts(correct: u64, total: u64, truth: u64) -> Self {
        let precision = if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        };
        let recall = if truth == 0 {
            1.0
        } else {
            correct as f64 / truth as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PairQuality {
            precision,
            recall,
            f1,
        }
    }
}

/// Evaluation of a full pipeline run: one row per step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineEvaluation {
    /// Candidate quality after the blocker.
    pub blocking: BlockingQuality,
    /// Matching-pair quality after the entity matcher.
    pub matching: PairQuality,
    /// Cluster-implied pair quality after the entity clusterer.
    pub clustering: PairQuality,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::{Profile, ProfileId, SourceId};

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    fn collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("x", "v")
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn blocking_quality_metrics() {
        // 5 profiles → 10 comparable pairs. GT = {(0,1),(2,3)}.
        let coll = collection(5);
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(2, 3)]);
        let candidates: CandidateSet = [pair(0, 1), pair(0, 2), pair(1, 4)].into_iter().collect();
        let q = BlockingQuality::measure(&candidates, &gt, &coll);
        assert!((q.recall - 0.5).abs() < 1e-12);
        assert!((q.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.reduction_ratio - 0.7).abs() < 1e-12);
        assert_eq!(q.candidates, 3);
        assert_eq!(q.lost_matches, 1);
    }

    #[test]
    fn empty_candidates() {
        let coll = collection(4);
        let gt = GroundTruth::from_pairs(vec![pair(0, 1)]);
        let q = BlockingQuality::measure(&CandidateSet::default(), &gt, &coll);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.reduction_ratio, 1.0);
        assert_eq!(q.lost_matches, 1);
    }

    #[test]
    fn pair_quality_and_f1() {
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(2, 3), pair(4, 5)]);
        let asserted = [pair(0, 1), pair(2, 3), pair(0, 5)];
        let q = PairQuality::measure(asserted.iter(), &gt);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_pair_quality() {
        let gt = GroundTruth::default();
        let q = PairQuality::measure(std::iter::empty(), &gt);
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1, 0.0);
    }

    #[test]
    fn cluster_quality_uses_implied_pairs() {
        use sparker_clustering::connected_components;
        let gt = GroundTruth::from_pairs(vec![pair(0, 1), pair(1, 2)]);
        // One cluster {0,1,2} implies 3 pairs; 2 are in GT, plus (0,2) is not.
        let clusters = connected_components(&[(pair(0, 1), 1.0), (pair(1, 2), 1.0)], 4);
        let q = PairQuality::of_clusters(&clusters, &gt);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.recall, 1.0);
    }

    /// Every intra-cluster pair, listed — what [`PairQuality::of_clusters`]
    /// counts without building.
    fn listed_pairs(clusters: &EntityClusters) -> Vec<Pair> {
        let (offsets, members) = clusters.grouped();
        let mut pairs = Vec::new();
        for w in offsets.windows(2) {
            let group = &members[w[0] as usize..w[1] as usize];
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    pairs.push(Pair::new(a, b));
                }
            }
        }
        pairs
    }

    proptest::proptest! {
        #[test]
        fn counted_cluster_quality_equals_listed_pairs(
            labels in proptest::collection::vec(0u32..12, 0..40),
            truth in proptest::collection::vec((0u32..45, 0u32..45), 0..60),
        ) {
            use sparker_profiles::ProfileId;
            let clusters = EntityClusters::from_labels(labels);
            // Truth ids may fall outside the clustering: those pairs are
            // never asserted.
            let gt = GroundTruth::from_pairs(
                truth
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| Pair::new(ProfileId(a), ProfileId(b))),
            );
            let counted = PairQuality::of_clusters(&clusters, &gt);
            let listed = PairQuality::measure(listed_pairs(&clusters).iter(), &gt);
            proptest::prop_assert_eq!(counted.precision.to_bits(), listed.precision.to_bits());
            proptest::prop_assert_eq!(counted.recall.to_bits(), listed.recall.to_bits());
            proptest::prop_assert_eq!(counted.f1.to_bits(), listed.f1.to_bits());
        }
    }
}
