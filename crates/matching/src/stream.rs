//! Fused streaming scorer: consume pruned candidate pairs as the pruning
//! stage emits them.
//!
//! [`ThresholdMatcher::score_stream`] is the matcher half of the fused
//! prune→score pipeline: the caller supplies pruning morsels and a
//! `produce` closure that turns one morsel into its sorted `(pair,
//! weight)` batch (in practice
//! `sparker_metablocking::StreamingMetaBlocking::prune_range`), and the
//! matcher's filter–verify cascade scores each batch as soon as it lands
//! in the bounded channel — pruning and matching overlap on the same
//! worker pool via [`sparker_dataflow::pipelined_stage`].
//!
//! Scoring a pair is a pure function of the pair (the per-worker scratch
//! is reusable buffers, not state), and scored shards keep their morsel
//! index, so the assembled [`SimilarityGraph`] is byte-identical to the
//! staged `prune-everything-then-score` path at any worker count and any
//! channel capacity. Shards arrive sorted (each morsel is a contiguous
//! ascending node range emitting forward edges in ascending pair order),
//! so assembly is [`SimilarityGraph::from_sorted_shards`] — the same
//! strictly-ascending merge the staged pool matcher uses, no re-sort.
//!
//! The retained edges must ascend too. The consumer asserts it while it
//! walks each batch — in parallel, with the batch in cache — and hands the
//! batches back as [`AscendingBatches`], which nothing else constructs, so
//! whoever adopts them has only the batch boundaries left to compare.

use crate::graph::SimilarityGraph;
use crate::matcher::{FilterStats, PreparedProfile, ThresholdMatcher};
use crate::similarity::MatchScratch;
use sparker_dataflow::{pipelined_stage, Context, FusedStageStats, WorkerLocal};
use sparker_profiles::Pair;
use std::sync::Arc;

/// Everything one fused prune→score run produces.
pub struct FusedMatchOutcome {
    /// The scored matches, identical to the staged matcher's output.
    pub similarity: SimilarityGraph,
    /// The pruned candidate pairs with their meta-blocking weights: the
    /// producer batches themselves, in morsel order, each checked strictly
    /// ascending. When the batches ascend across their boundaries too,
    /// their concatenation is the staged pruning output; they are handed
    /// over as they are — never copied into one list, so the retained
    /// edges are resident exactly once.
    pub retained: AscendingBatches,
    /// Merged cascade statistics across all workers.
    pub stats: FilterStats,
    /// Overlap accounting for the fused stage (produce vs consume busy,
    /// queue wait, backpressure).
    pub report: FusedStageStats,
}

/// Retained-edge batches, each strictly ascending by pair — checked by the
/// [`ThresholdMatcher::score_stream`] consumer that scored it, the only
/// place one is constructed. Whether the batches also ascend across their
/// boundaries is left to whoever adopts them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AscendingBatches(Vec<Vec<(Pair, f64)>>);

impl AscendingBatches {
    /// The batches, in morsel order.
    pub fn batches(&self) -> &[Vec<(Pair, f64)>] {
        &self.0
    }

    /// Take the batches.
    pub fn into_batches(self) -> Vec<Vec<(Pair, f64)>> {
        self.0
    }
}

impl ThresholdMatcher {
    /// Score pruned candidates as they stream out of `produce`, overlapped
    /// on the context's worker pool (see the module docs). `prepared` holds
    /// one view per profile (index = profile id) —
    /// [`PreparedProfile::prepare_all`], or
    /// [`PreparedProfile::prepare_from_keys`] over the ids the blocking
    /// stage's token pass already produced. `capacity`
    /// bounds the channel of unscored batches;
    /// [`sparker_dataflow::fused_channel_capacity`] gives a
    /// `MemBudget`-aware default. Results are independent of both the
    /// worker count and `capacity`.
    ///
    /// Panics if a produced batch is not strictly ascending by pair.
    pub fn score_stream<M, F>(
        &self,
        ctx: &Context,
        prepared: &[PreparedProfile],
        morsels: &[M],
        capacity: usize,
        produce: F,
    ) -> FusedMatchOutcome
    where
        M: Sync,
        F: Fn(usize, &M) -> Vec<(Pair, f64)> + Send + Sync,
    {
        let matcher = self.clone();
        let locals = Arc::new(WorkerLocal::new(ctx.workers(), || {
            (MatchScratch::default(), FilterStats::default())
        }));
        let consume_locals = Arc::clone(&locals);
        let (produced, scored_shards, report) = pipelined_stage(
            ctx,
            "fused_prune_score",
            morsels,
            capacity,
            produce,
            move |worker, batch: &Vec<(Pair, f64)>| {
                consume_locals.with(worker, |(scratch, stats)| {
                    let mut last = None;
                    batch
                        .iter()
                        .filter_map(|&(pair, _)| {
                            assert!(
                                last < Some(pair),
                                "candidate edges must be strictly ascending by pair"
                            );
                            last = Some(pair);
                            matcher
                                .decide(
                                    &prepared[pair.first.index()],
                                    &prepared[pair.second.index()],
                                    scratch,
                                    stats,
                                )
                                .map(|score| (pair, score))
                        })
                        .collect::<Vec<_>>()
                })
            },
        );
        let similarity = SimilarityGraph::from_sorted_shards(scored_shards);
        let stats = match Arc::try_unwrap(locals) {
            Ok(locals) => {
                let mut merged = FilterStats::default();
                for (_, slot) in locals.into_inner() {
                    merged.merge(&slot);
                }
                merged
            }
            Err(_) => FilterStats::default(),
        };
        FusedMatchOutcome {
            similarity,
            retained: AscendingBatches(produced),
            stats,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{Matcher, SimilarityMeasure};
    use sparker_profiles::{Profile, ProfileCollection, ProfileId, SourceId};

    fn collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("name", format!("alpha{} beta{} gamma", i % 5, i % 3))
                        .build()
                })
                .collect(),
        )
    }

    /// All forward pairs cut into `chunks` sorted morsels.
    fn pair_morsels(n: u32, chunks: usize) -> Vec<Vec<(Pair, f64)>> {
        let all: Vec<(Pair, f64)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (Pair::new(ProfileId(a), ProfileId(b)), 1.0)))
            .collect();
        let per = all.len().div_ceil(chunks.max(1)).max(1);
        all.chunks(per).map(<[_]>::to_vec).collect()
    }

    #[test]
    fn score_stream_matches_staged_matcher() {
        let coll = collection(40);
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        let morsels = pair_morsels(40, 9);
        let staged = matcher.match_pairs(&coll, morsels.iter().flatten().map(|&(p, _)| p));
        let prepared = PreparedProfile::prepare_all(&coll);
        for workers in [1, 2, 4] {
            for capacity in [1, 2, 1 << 20] {
                let ctx = Context::new(workers);
                let out =
                    matcher.score_stream(&ctx, &prepared, &morsels, capacity, |_, m| m.clone());
                assert_eq!(
                    out.similarity.edges(),
                    staged.edges(),
                    "workers={workers} capacity={capacity}"
                );
                assert_eq!(out.retained.batches(), morsels);
                assert!(out.stats.pairs > 0);
                assert_eq!(out.report.morsels, morsels.len());
            }
        }
    }

    #[test]
    fn score_stream_empty_input() {
        let coll = collection(4);
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        let morsels: Vec<Vec<(Pair, f64)>> = Vec::new();
        let ctx = Context::new(2);
        let prepared = PreparedProfile::prepare_all(&coll);
        let out = matcher.score_stream(&ctx, &prepared, &morsels, 4, |_, m: &Vec<_>| m.clone());
        assert!(out.similarity.edges().is_empty());
        assert!(out.retained.batches().is_empty());
    }

    /// Run `score_stream` on two workers over `morsels` as they are.
    fn stream_as_is(morsels: &[Vec<(Pair, f64)>]) -> FusedMatchOutcome {
        let prepared = PreparedProfile::prepare_all(&collection(8));
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        matcher.score_stream(&Context::new(2), &prepared, morsels, 2, |_, m| m.clone())
    }

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn descending_pair_in_a_batch_panics() {
        stream_as_is(&[
            vec![(pair(0, 1), 1.0)],
            vec![(pair(1, 2), 1.0), (pair(1, 5), 1.0), (pair(1, 3), 1.0)],
        ]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_pair_in_a_batch_panics() {
        stream_as_is(&[
            vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
            vec![(pair(2, 3), 1.0), (pair(2, 3), 1.0)],
        ]);
    }

    #[test]
    fn batch_boundaries_are_left_to_the_adopter() {
        // Each batch ascends, the run does not: the stream hands them back
        // unchanged, and `sparker_core::CandidateSet` rejects the boundary.
        let morsels = [vec![(pair(3, 4), 1.0)], vec![(pair(0, 1), 1.0)]];
        assert_eq!(stream_as_is(&morsels).retained.batches(), morsels);
    }
}
