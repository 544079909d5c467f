//! Block Purging: remove the largest, least informative blocks.
//!
//! Both purge rules decide from each block's `(comparisons, size)` alone.
//! [`PurgeConfig::cap`] resolves a rule into a [`PurgeCap`] once per block
//! collection — the one implementation the string-keyed functions below,
//! the CSR clean ([`crate::CompactBlocks::clean`]) and the incremental
//! resolver all apply.

use crate::collection::BlockCollection;

/// How oversized blocks are purged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PurgeConfig {
    /// No purging.
    Off,
    /// Drop blocks holding more than `max_fraction` of all profiles (the
    /// paper's definition; its setting is 0.5).
    Oversized {
        /// Retained block size as a fraction of the collection.
        max_fraction: f64,
    },
    /// Automatic comparison-level purging with the given smoothing factor.
    ComparisonLevel {
        /// Marginal comparisons-per-assignment tolerance (≥ 1).
        smoothing: f64,
    },
}

/// A purge rule resolved against one block collection: which blocks, by
/// `(comparisons, size)`, survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgeCap {
    /// Every block survives.
    KeepAll,
    /// Blocks of at most this many profiles survive.
    MaxSize(u64),
    /// Blocks inducing at most this many comparisons survive.
    MaxComparisons(u64),
}

impl PurgeCap {
    /// `true` when a block of `size` profiles inducing `comparisons`
    /// comparisons survives the purge.
    #[inline]
    pub fn keeps(self, comparisons: u64, size: u64) -> bool {
        match self {
            PurgeCap::KeepAll => true,
            PurgeCap::MaxSize(cap) => size <= cap,
            PurgeCap::MaxComparisons(cap) => comparisons <= cap,
        }
    }
}

impl PurgeConfig {
    /// Resolve the rule against a collection of `total_profiles` profiles
    /// whose blocks have the given `(comparisons, size)` statistics. Only
    /// the comparison-level rule reads the statistics: one sort plus prefix
    /// sums, O(B log B).
    pub fn cap(
        &self,
        total_profiles: usize,
        blocks: impl IntoIterator<Item = (u64, u64)>,
    ) -> PurgeCap {
        match *self {
            PurgeConfig::Off => PurgeCap::KeepAll,
            PurgeConfig::Oversized { max_fraction } => {
                PurgeCap::MaxSize(oversized_cap(total_profiles, max_fraction))
            }
            PurgeConfig::ComparisonLevel { smoothing } => {
                let mut stats: Vec<(u64, u64)> = blocks.into_iter().collect();
                comparison_level_cap(&mut stats, smoothing)
                    .map_or(PurgeCap::KeepAll, PurgeCap::MaxComparisons)
            }
        }
    }
}

/// The size cap of [`purge_oversized`]: `max(2, ⌊total_profiles ·
/// max_fraction⌋)`.
fn oversized_cap(total_profiles: usize, max_fraction: f64) -> u64 {
    assert!(
        max_fraction > 0.0,
        "purging fraction must be positive, got {max_fraction}"
    );
    // A block of two profiles is never a stop-word block, whatever the
    // collection size — without this floor, tiny collections (where half
    // the profiles is < 2) would lose every useful block.
    ((total_profiles as f64 * max_fraction).floor() as u64).max(2)
}

/// The comparison cap of [`purge_by_comparison_level`], from every block's
/// `(comparisons, size)` (sorted in place); `None` when there are no
/// blocks.
///
/// One sort groups the blocks by comparison level, and the running sums at
/// the end of each group are the cumulative comparisons and assignments of
/// every block at or below that level — O(B log B), where rescanning the
/// blocks once per distinct level was O(levels × B).
fn comparison_level_cap(blocks: &mut [(u64, u64)], smoothing: f64) -> Option<u64> {
    assert!(
        smoothing >= 1.0,
        "smoothing factor must be ≥ 1, got {smoothing}"
    );
    blocks.sort_unstable();
    // (level, cumulative comparisons, cumulative assignments) of the last
    // admitted level.
    let mut admitted: Option<(u64, u64, u64)> = None;
    let (mut comparisons, mut assignments) = (0u64, 0u64);
    for level in blocks.chunk_by(|a, b| a.0 == b.0) {
        comparisons += level.iter().map(|&(c, _)| c).sum::<u64>();
        assignments += level.iter().map(|&(_, s)| s).sum::<u64>();
        // Stop before the first level whose admitted blocks raise
        // comparisons-per-assignment beyond smoothing × the running ratio.
        if let Some((_, c_prev, a_prev)) = admitted {
            let prev_ratio = c_prev as f64 / a_prev.max(1) as f64;
            let marginal = (comparisons - c_prev) as f64 / (assignments - a_prev).max(1) as f64;
            if marginal > smoothing * prev_ratio.max(1.0) {
                break;
            }
        }
        admitted = Some((level[0].0, comparisons, assignments));
    }
    admitted.map(|(level, _, _)| level)
}

/// Block Purging as described in the paper: "discards all the blocks that
/// contain more than half of the profiles in the collection, corresponding
/// to highly frequent blocking keys (e.g. stop-words)".
///
/// `max_fraction` is the retained-size cap as a fraction of
/// `total_profiles`; the paper's setting is `0.5`. Blocks with
/// `size > max_fraction * total_profiles` are dropped.
pub fn purge_oversized(
    mut blocks: BlockCollection,
    total_profiles: usize,
    max_fraction: f64,
) -> BlockCollection {
    let cap = oversized_cap(total_profiles, max_fraction);
    blocks.retain(|b| b.size() as u64 <= cap);
    blocks
}

/// Comparison-level Block Purging (Papadakis et al., the meta-blocking
/// paper SparkER builds on): choose the comparison cap automatically from
/// the block-size distribution, then drop every block whose individual
/// comparison count exceeds it.
///
/// The cap is the largest per-block comparison count `c` such that keeping
/// only blocks with `comparisons ≤ c` does not decrease the ratio of
/// retained comparisons to retained block assignments more sharply than the
/// smoothing factor permits: scanning candidate caps in increasing order, it
/// keeps the last cap where the marginal comparisons-per-assignment of the
/// newly admitted blocks stays below `smoothing` × the running average.
/// Intuitively, oversized blocks add many comparisons but few new
/// profile–block assignments, so their marginal ratio explodes.
pub fn purge_by_comparison_level(mut blocks: BlockCollection, smoothing: f64) -> BlockCollection {
    let kind = blocks.kind();
    let stats = |b: &crate::Block| (b.comparisons(kind), b.size() as u64);
    let cap = PurgeConfig::ComparisonLevel { smoothing }.cap(0, blocks.blocks().iter().map(stats));
    blocks.retain(|b| {
        let (comparisons, size) = stats(b);
        cap.keeps(comparisons, size)
    });
    blocks
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::block::Block;
    use proptest::prelude::*;
    use sparker_profiles::{ErKind, ProfileId};

    /// The original per-level rule, kept as the oracle of
    /// [`comparison_level_cap`]: for every distinct level, rescan all
    /// blocks for the cumulative comparisons and assignments at or below
    /// it, then walk the levels upward.
    fn per_level_cap(blocks: &[(u64, u64)], smoothing: f64) -> Option<u64> {
        let mut levels: Vec<u64> = blocks.iter().map(|&(c, _)| c).collect();
        levels.sort_unstable();
        levels.dedup();
        let cum: Vec<(u64, u64, u64)> = levels
            .iter()
            .map(|&level| {
                let admitted = blocks.iter().filter(|&&(c, _)| c <= level);
                let comparisons = admitted.clone().map(|&(c, _)| c).sum();
                let assignments = admitted.map(|&(_, s)| s).sum();
                (level, comparisons, assignments)
            })
            .collect();
        let mut cap = cum.first()?.0;
        for w in cum.windows(2) {
            let (_, c_prev, a_prev) = w[0];
            let (level, c_next, a_next) = w[1];
            let prev_ratio = c_prev as f64 / a_prev.max(1) as f64;
            let marginal = (c_next - c_prev) as f64 / (a_next - a_prev).max(1) as f64;
            if marginal > smoothing * prev_ratio.max(1.0) {
                break;
            }
            cap = level;
        }
        Some(cap)
    }

    /// Random `(comparisons, size)` statistics of dirty or clean–clean
    /// blocks: sizes from a heavy-tailed mix so a few blocks explode.
    fn block_stats_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
        let dirty = (2u64..60).prop_map(|n| (n * (n - 1) / 2, n));
        let clean = (1u64..30, 1u64..30).prop_map(|(a, b)| (a * b, a + b));
        let hub = (100u64..2_000).prop_map(|n| (n * (n - 1) / 2, n));
        prop::collection::vec(prop_oneof![dirty, clean, hub], 0..80)
    }
    /// Random dirty collections: `n` profiles, up to 12 blocks of 2..=n
    /// distinct members each.
    fn blocks_strategy() -> impl Strategy<Value = (BlockCollection, usize)> {
        (4usize..40).prop_flat_map(|n| {
            let block = prop::collection::btree_set(0u32..(n as u32), 2..=n)
                .prop_map(|ids| ids.into_iter().map(ProfileId).collect::<Vec<_>>());
            prop::collection::vec(block, 0..12).prop_map(move |members| {
                let blocks = members
                    .into_iter()
                    .enumerate()
                    .map(|(i, ids)| Block::dirty(format!("k{i}"), ids))
                    .collect();
                (BlockCollection::new(ErKind::Dirty, blocks), n)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The paper's rule, verbatim: purging at 0.5 drops *exactly* the
        /// blocks containing more than half of all profiles — no fewer, no
        /// more — and keeps the survivors in order.
        #[test]
        fn drops_exactly_blocks_with_more_than_half((blocks, n) in blocks_strategy()) {
            let cap = ((n as f64 * 0.5).floor() as usize).max(2);
            let expected: Vec<String> = blocks
                .blocks()
                .iter()
                .filter(|b| b.size() <= cap)
                .map(|b| b.key.clone())
                .collect();
            let purged = purge_oversized(blocks, n, 0.5);
            let got: Vec<String> = purged.blocks().iter().map(|b| b.key.clone()).collect();
            prop_assert_eq!(got, expected);
            // Restated directly: no retained block covers more than half.
            prop_assert!(purged.blocks().iter().all(|b| b.size() * 2 <= n));
        }

        /// Boundary: a block holding exactly half of the profiles survives;
        /// one more member and it is purged.
        #[test]
        fn exactly_half_is_retained(half in 2u32..20) {
            let n = (half * 2) as usize;
            let at_cap = Block::dirty("at-cap", (0..half).map(ProfileId).collect());
            let over = Block::dirty("over", (0..=half).map(ProfileId).collect());
            let bc = BlockCollection::new(ErKind::Dirty, vec![at_cap, over]);
            let purged = purge_oversized(bc, n, 0.5);
            let keys: Vec<&str> = purged.blocks().iter().map(|b| b.key.as_str()).collect();
            prop_assert_eq!(keys, vec!["at-cap"]);
        }

        /// Comparison-level purging is a pure filter: it removes whole
        /// blocks, keeps order, and always admits the smallest level.
        #[test]
        fn comparison_level_purging_is_a_filter((blocks, _n) in blocks_strategy()) {
            let kind = blocks.kind();
            let before: Vec<String> = blocks.blocks().iter().map(|b| b.key.clone()).collect();
            let min_level = blocks.blocks().iter().map(|b| b.comparisons(kind)).min();
            let purged = purge_by_comparison_level(blocks, 1.025);
            let after: Vec<String> = purged.blocks().iter().map(|b| b.key.clone()).collect();
            let mut it = before.iter();
            prop_assert!(
                after.iter().all(|k| it.any(|b| b == k)),
                "output must be an ordered subsequence of the input"
            );
            if let Some(min_level) = min_level {
                prop_assert!(
                    purged.blocks().iter().any(|b| b.comparisons(kind) == min_level),
                    "the cheapest blocks always survive"
                );
            }
        }

        /// One sort plus prefix sums resolves exactly the cap the
        /// per-level rescan does, whatever the input order.
        #[test]
        fn comparison_level_cap_matches_per_level_rescan(
            stats in block_stats_strategy(),
            smoothing in 1.0f64..3.0,
        ) {
            let expected = per_level_cap(&stats, smoothing);
            let mut sorted = stats.clone();
            prop_assert_eq!(comparison_level_cap(&mut sorted, smoothing), expected);
            let cap = PurgeConfig::ComparisonLevel { smoothing }.cap(0, stats);
            prop_assert_eq!(cap, expected.map_or(PurgeCap::KeepAll, PurgeCap::MaxComparisons));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use sparker_profiles::ErKind;
    use sparker_profiles::ProfileId;

    fn dirty_block(key: &str, ids: std::ops::Range<u32>) -> Block {
        Block::dirty(key, ids.map(ProfileId).collect())
    }

    #[test]
    fn oversized_blocks_dropped() {
        // 10 profiles total; the "the" block holds 6 (> half) and must go.
        let bc = BlockCollection::new(
            ErKind::Dirty,
            vec![
                dirty_block("the", 0..6),
                dirty_block("sony", 0..2),
                dirty_block("bravia", 2..5),
            ],
        );
        let purged = purge_oversized(bc, 10, 0.5);
        let keys: Vec<&str> = purged.blocks().iter().map(|b| b.key.as_str()).collect();
        assert_eq!(keys, vec!["sony", "bravia"]);
    }

    #[test]
    fn boundary_is_inclusive() {
        // Exactly half the profiles is retained (strictly-more is purged).
        let bc = BlockCollection::new(ErKind::Dirty, vec![dirty_block("k", 0..5)]);
        let purged = purge_oversized(bc, 10, 0.5);
        assert_eq!(purged.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fraction_rejected() {
        let bc = BlockCollection::new(ErKind::Dirty, vec![]);
        purge_oversized(bc, 10, 0.0);
    }

    #[test]
    fn comparison_level_purging_drops_explosive_blocks() {
        // Many small blocks plus one enormous one: the big block's marginal
        // comparisons-per-assignment is far above the small blocks' ratio.
        let mut blocks: Vec<Block> = (0..20)
            .map(|i| dirty_block(&format!("k{i}"), i * 2..i * 2 + 2))
            .collect();
        blocks.push(dirty_block("stopword", 0..40));
        let bc = BlockCollection::new(ErKind::Dirty, blocks);
        let purged = purge_by_comparison_level(bc, 1.025);
        assert_eq!(purged.len(), 20);
        assert!(purged.blocks().iter().all(|b| b.key != "stopword"));
    }

    #[test]
    fn comparison_level_purging_keeps_uniform_blocks() {
        let blocks: Vec<Block> = (0..10)
            .map(|i| dirty_block(&format!("k{i}"), i * 3..i * 3 + 3))
            .collect();
        let bc = BlockCollection::new(ErKind::Dirty, blocks);
        let purged = purge_by_comparison_level(bc, 1.025);
        assert_eq!(purged.len(), 10, "uniform distribution: nothing purged");
    }

    #[test]
    fn comparison_level_purging_empty_input() {
        let bc = BlockCollection::new(ErKind::Dirty, vec![]);
        assert!(purge_by_comparison_level(bc, 1.025).is_empty());
    }
}
