//! Fused streaming scorer: consume pruned candidate pairs as the pruning
//! stage emits them.
//!
//! [`ThresholdMatcher::score_stream`] is the matcher half of the fused
//! prune→score pipeline: the caller supplies pruning morsels and a
//! `produce` closure that fills a recycled buffer with one morsel's sorted
//! `(pair, weight)` batch (in practice
//! `sparker_metablocking::StreamingMetaBlocking::prune_range_into`), and
//! the matcher's filter–verify cascade scores each batch as soon as it
//! lands in the bounded channel — pruning and matching overlap on the same
//! worker pool via [`sparker_dataflow::pipelined_stage`], whose payload
//! buffers are recycled, so the stage holds at most a channel's worth of
//! batches.
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
//! The retained edges themselves are not kept: once scored, a batch's
//! buffer goes back to the producers. What survives is its
//! [`BatchDigest`] — first and last pair, length and an order-sensitive
//! fingerprint of every `(pair, weight)` — taken by the consumer while it
//! walks the batch, asserting strict order in parallel with the batch in
//! cache. [`RetainedDigest::fold`] checks the batch boundaries and folds
//! the digests into one; a re-derivation of the retained set (the same
//! pass B over the same morsels) must reproduce it exactly.

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
    /// One digest per producer batch, in morsel order, each batch checked
    /// strictly ascending by the consumer that scored it. The batches
    /// themselves were recycled; [`RetainedDigest::fold`] checks the
    /// boundaries between them and yields the retained count.
    pub retained: Vec<BatchDigest>,
    /// Merged cascade statistics across all workers.
    pub stats: FilterStats,
    /// Overlap accounting for the fused stage (produce vs consume busy,
    /// queue wait, backpressure, payload buffers, the largest batch).
    pub report: FusedStageStats,
}

/// Multiplier of the fingerprint's mixing steps (2⁶⁴ / φ, odd).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One order-sensitive mixing step: rotate, xor the word in, multiply.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MIX)
}

/// What a batch of retained edges was, once its buffer is gone: its
/// bounds, its length and a fingerprint of every `(pair, weight bits)` in
/// order. Built only by walking the batch and asserting it strictly
/// ascending ([`BatchDigest::of`], or the [`ThresholdMatcher::score_stream`]
/// consumer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchDigest {
    first: Option<Pair>,
    last: Option<Pair>,
    len: usize,
    fingerprint: u64,
}

impl BatchDigest {
    /// Digest `batch`. Panics if it is not strictly ascending by pair.
    pub fn of(batch: &[(Pair, f64)]) -> Self {
        let mut digest = BatchDigest::default();
        for &(pair, weight) in batch {
            digest.push(pair, weight);
        }
        digest
    }

    /// Number of edges in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the next edge, asserting it follows the previous one.
    #[inline]
    fn push(&mut self, pair: Pair, weight: f64) {
        assert!(
            self.last < Some(pair),
            "candidate edges must be strictly ascending by pair"
        );
        self.first = self.first.or(Some(pair));
        self.last = Some(pair);
        self.len += 1;
        let packed = (u64::from(pair.first.0) << 32) | u64::from(pair.second.0);
        self.fingerprint = mix(
            self.fingerprint,
            packed.wrapping_mul(MIX) ^ weight.to_bits(),
        );
    }
}

/// The batches of one retained-edge run folded in order: their total
/// length and a fingerprint of the whole run. Two runs that fold to the
/// same digest hold the same edges with bit-identical weights in the same
/// order (up to 64-bit fingerprint collisions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetainedDigest {
    len: usize,
    fingerprint: u64,
}

impl RetainedDigest {
    /// Fold batch digests in morsel order, checking that every non-empty
    /// batch starts above the last pair of the one before it. Empty batches
    /// contribute nothing. Panics on an equal or descending pair across a
    /// boundary.
    pub fn fold<'a>(batches: impl IntoIterator<Item = &'a BatchDigest>) -> Self {
        let mut folded = RetainedDigest::default();
        let mut last = None;
        for batch in batches.into_iter().filter(|b| !b.is_empty()) {
            assert!(
                last < batch.first,
                "candidate edges must be strictly ascending by pair"
            );
            last = batch.last;
            folded.len += batch.len;
            folded.fingerprint = mix(folded.fingerprint, batch.fingerprint);
        }
        folded
    }

    /// Number of retained edges.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl ThresholdMatcher {
    /// Score pruned candidates as they stream out of `produce`, overlapped
    /// on the context's worker pool (see the module docs). `prepared` holds
    /// one view per profile (index = profile id) —
    /// [`PreparedProfile::prepare_all`], or
    /// [`PreparedProfile::prepare_from_keys`] over the ids the blocking
    /// stage's token pass already produced. `produce(worker, morsel, out)`
    /// must replace `out`'s contents with the morsel's batch (the buffer is
    /// recycled from an earlier morsel). `capacity`
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
        F: Fn(usize, &M, &mut Vec<(Pair, f64)>) + Send + Sync,
    {
        let matcher = self.clone();
        let locals = Arc::new(WorkerLocal::new(ctx.workers(), || {
            (MatchScratch::default(), FilterStats::default())
        }));
        let consume_locals = Arc::clone(&locals);
        let (scored, mut report) = pipelined_stage(
            ctx,
            "fused_prune_score",
            morsels,
            capacity,
            produce,
            move |worker, batch: &Vec<(Pair, f64)>| {
                consume_locals.with(worker, |(scratch, stats)| {
                    let mut digest = BatchDigest::default();
                    let shard = batch
                        .iter()
                        .filter_map(|&(pair, weight)| {
                            digest.push(pair, weight);
                            matcher
                                .decide(
                                    &prepared[pair.first.index()],
                                    &prepared[pair.second.index()],
                                    scratch,
                                    stats,
                                )
                                .map(|score| (pair, score))
                        })
                        .collect::<Vec<_>>();
                    (shard, digest)
                })
            },
        );
        let (scored_shards, retained): (Vec<_>, Vec<_>) = scored.into_iter().unzip();
        report.max_batch = retained.iter().map(BatchDigest::len).max().unwrap_or(0);
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
            retained,
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
    use std::sync::Mutex;

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

    /// Fill the recycled buffer with the morsel's batch (the morsels are
    /// the batches, so the morsel type is a `Vec`).
    #[allow(clippy::ptr_arg)]
    fn copy_batch(_: usize, m: &Vec<(Pair, f64)>, out: &mut Vec<(Pair, f64)>) {
        out.clear();
        out.extend_from_slice(m);
    }

    #[test]
    fn score_stream_matches_staged_matcher() {
        let coll = collection(40);
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        let morsels = pair_morsels(40, 9);
        let staged = matcher.match_pairs(&coll, morsels.iter().flatten().map(|&(p, _)| p));
        let prepared = PreparedProfile::prepare_all(&coll);
        let indices: Vec<usize> = (0..morsels.len()).collect();
        for workers in [1, 2, 4] {
            for capacity in [1, 2, 1 << 20] {
                let ctx = Context::new(workers);
                // The producer records every batch it hands the channel.
                let produced = Mutex::new(Vec::new());
                let out =
                    matcher.score_stream(&ctx, &prepared, &indices, capacity, |w, &k, out| {
                        copy_batch(w, &morsels[k], out);
                        produced.lock().unwrap().push((k, out.clone()));
                    });
                let tag = format!("workers={workers} capacity={capacity}");
                assert_eq!(out.similarity.edges(), staged.edges(), "{tag}");
                let mut produced = produced.into_inner().unwrap();
                produced.sort_by_key(|&(k, _)| k);
                assert!(
                    produced.into_iter().map(|(_, b)| b).eq(morsels.clone()),
                    "{tag}"
                );
                let digests: Vec<BatchDigest> =
                    morsels.iter().map(|m| BatchDigest::of(m)).collect();
                assert_eq!(out.retained, digests, "{tag}");
                assert_eq!(RetainedDigest::fold(&out.retained).len(), 40 * 39 / 2);
                assert!(out.stats.pairs > 0);
                assert_eq!(out.report.morsels, morsels.len());
                assert!(out.report.payloads <= capacity + 2 * workers, "{tag}");
                let largest = morsels.iter().map(Vec::len).max();
                assert_eq!(Some(out.report.max_batch), largest, "{tag}");
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
        let out = matcher.score_stream(&ctx, &prepared, &morsels, 4, copy_batch);
        assert!(out.similarity.edges().is_empty());
        assert!(out.retained.is_empty());
        assert!(RetainedDigest::fold(&out.retained).is_empty());
    }

    /// Run `score_stream` on two workers over `morsels` as they are.
    fn stream_as_is(morsels: &[Vec<(Pair, f64)>]) -> FusedMatchOutcome {
        let prepared = PreparedProfile::prepare_all(&collection(8));
        let matcher = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.5);
        matcher.score_stream(&Context::new(2), &prepared, morsels, 2, copy_batch)
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
        // Each batch ascends, the run does not: the stream digests them
        // unchanged, and folding the digests rejects the boundary.
        let morsels = [vec![(pair(3, 4), 1.0)], vec![(pair(0, 1), 1.0)]];
        let retained = stream_as_is(&morsels).retained;
        assert_eq!(
            retained,
            [BatchDigest::of(&morsels[0]), BatchDigest::of(&morsels[1])]
        );
        let folded = std::panic::catch_unwind(|| RetainedDigest::fold(&retained));
        let payload = folded.expect_err("an inverted boundary must panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("strictly ascending"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duplicate_across_an_empty_batch_panics_in_the_fold() {
        let retained = stream_as_is(&[
            vec![(pair(0, 1), 1.0), (pair(0, 2), 1.0)],
            vec![],
            vec![(pair(0, 2), 1.0)],
        ])
        .retained;
        RetainedDigest::fold(&retained);
    }

    #[test]
    fn digest_sees_every_pair_and_weight_bit() {
        let base = vec![(pair(0, 1), 0.5), (pair(0, 2), 0.0), (pair(1, 2), 2.0)];
        let digest = |batches: &[Vec<(Pair, f64)>]| {
            RetainedDigest::fold(
                &batches
                    .iter()
                    .map(|b| BatchDigest::of(b))
                    .collect::<Vec<_>>(),
            )
        };
        let whole = digest(std::slice::from_ref(&base));
        assert_eq!(whole.len(), 3);
        // Empty batches fold to nothing.
        let cut = vec![base[..1].to_vec(), vec![], base[1..].to_vec()];
        let uncut = vec![base[..1].to_vec(), base[1..].to_vec()];
        assert_eq!(digest(&cut), digest(&uncut));
        assert_eq!(digest(&cut).len(), 3);
        for changed in [
            vec![(pair(0, 1), 0.5), (pair(0, 2), -0.0), (pair(1, 2), 2.0)],
            vec![(pair(0, 1), 0.5), (pair(0, 3), 0.0), (pair(1, 2), 2.0)],
            vec![
                (pair(0, 1), 0.5),
                (pair(0, 2), 0.0),
                (pair(1, 2), f64::from_bits(2f64.to_bits() + 1)),
            ],
            vec![(pair(0, 1), 0.5), (pair(1, 2), 2.0)],
        ] {
            assert_ne!(digest(std::slice::from_ref(&changed)), whole, "{changed:?}");
        }
    }
}
