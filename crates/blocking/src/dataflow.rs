//! Dataflow (Spark-style) implementations of the blocking operators.
//!
//! These mirror how SparkER expresses blocking on Spark: profiles are a
//! distributed dataset, token extraction is a `flat_map`, block construction
//! a `group_by_key`. Results are identical to the sequential functions in
//! this crate (asserted by tests), so the pipeline can switch freely — the
//! scalability experiment (DESIGN.md E8) runs these versions.

use crate::block::Block;
use crate::collection::BlockCollection;
use sparker_dataflow::Context;
use sparker_profiles::{ErKind, Profile, ProfileCollection, ProfileId, SourceId};
use std::collections::HashMap;

/// Schema-agnostic Token Blocking on the dataflow engine; equivalent to
/// [`crate::token_blocking`].
pub fn token_blocking(ctx: &Context, collection: &ProfileCollection) -> BlockCollection {
    // Collect raw tokens into a Vec — [`keyed_blocking`] sorts and dedups
    // every profile's keys anyway, so a `BTreeSet` per profile
    // ([`Profile::token_set`]) would pay tree inserts for nothing.
    keyed_blocking(ctx, collection, |p| {
        p.attributes
            .iter()
            .flat_map(|a| sparker_profiles::tokenize(&a.value))
            .collect()
    })
}

/// Keyed blocking on the dataflow engine; equivalent to
/// [`crate::keyed_blocking`].
///
/// Keys are interned into a sorted driver-side table before the shuffle, so
/// the `flat_map`/`group_by_key` exchange moves dense `u32` ids instead of
/// cloned `String`s; key strings are resolved back only once per final
/// block.
pub fn keyed_blocking(
    ctx: &Context,
    collection: &ProfileCollection,
    key_fn: impl Fn(&Profile) -> Vec<String> + Send + Sync,
) -> BlockCollection {
    let kind = collection.kind();
    let profiles = collection.profiles();

    // Key extraction is an engine `map` over the profile indices (the
    // closure borrows the collection), so tokenization runs on the workers
    // and is attributed to the stage's busy time — not a serial driver
    // loop.
    let indices = ctx.parallelize_default((0..profiles.len() as u32).collect());
    let rows: Vec<(ProfileId, SourceId, Vec<String>)> = indices
        .map(|&i| {
            let p = &profiles[i as usize];
            let mut keys = key_fn(p);
            keys.sort_unstable();
            keys.dedup();
            (p.id, p.source, keys)
        })
        .collect();

    // Intern the distinct keys: sorted table, index == dense id, ascending
    // id == lexicographic key order. Distinct-first (hash set, then sort
    // the ~distinct keys) beats sorting every occurrence; the hash map
    // then resolves key → id on the workers — per-key binary search over
    // string compares was the dominant driver-serial cost of this
    // operator.
    let distinct: std::collections::HashSet<&str> = rows
        .iter()
        .flat_map(|(_, _, keys)| keys.iter().map(String::as_str))
        .collect();
    let mut table: Vec<&str> = distinct.into_iter().collect();
    table.sort_unstable();
    let lookup: HashMap<&str, u32> = table
        .iter()
        .enumerate()
        .map(|(i, s)| (*s, i as u32))
        .collect();

    // flatMap: (key id, (source, id)); groupByKey: key id -> members. The
    // shuffle accounts its buffers against the context's memory budget (and
    // spills them when it's exceeded) — byte-identical either way.
    let grouped = indices
        .flat_map(|&i| {
            let (id, source, keys) = &rows[i as usize];
            keys.iter()
                .map(|k| (lookup[k.as_str()], (*source, *id)))
                .collect::<Vec<_>>()
        })
        .group_by_key();

    let mut keyed_blocks: Vec<(u32, Block)> = grouped
        .map(|(key, members)| {
            let mut s0: Vec<ProfileId> = Vec::new();
            let mut s1: Vec<ProfileId> = Vec::new();
            for (source, id) in members {
                if source.0 == 0 {
                    s0.push(*id);
                } else {
                    s1.push(*id);
                }
            }
            let key_str = table[*key as usize].to_string();
            let block = match kind {
                ErKind::Dirty => Block::dirty(key_str, s0),
                ErKind::CleanClean => Block::clean_clean(key_str, s0, s1),
            };
            (*key, block)
        })
        .collect();

    // Shuffle output order depends on the hash partitioner; sort by key id
    // (== key string order) so the result matches the sequential
    // implementation exactly.
    keyed_blocks.sort_by_key(|(key, _)| *key);
    BlockCollection::new(kind, keyed_blocks.into_iter().map(|(_, b)| b).collect())
}

/// Block Filtering on the dataflow engine; equivalent to
/// [`crate::block_filtering`].
///
/// Expressed as SparkER does: explode blocks to `(profile, (block, size))`
/// pairs, group by profile, keep each profile's smallest `ratio` fraction,
/// then regroup by block.
#[allow(clippy::type_complexity)]
pub fn block_filtering(ctx: &Context, blocks: BlockCollection, ratio: f64) -> BlockCollection {
    assert!(
        (0.0..=1.0).contains(&ratio) && ratio > 0.0,
        "filter ratio must be in (0, 1], got {ratio}"
    );
    let kind = blocks.kind();
    let rows: Vec<(u32, String, u64, Vec<(u8, ProfileId)>)> = blocks
        .blocks()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut members: Vec<(u8, ProfileId)> =
                b.members[0].iter().map(|&p| (0u8, p)).collect();
            members.extend(b.members[1].iter().map(|&p| (1u8, p)));
            (i as u32, b.key.clone(), b.comparisons(kind), members)
        })
        .collect();
    let keys: Vec<String> = rows.iter().map(|(_, k, _, _)| k.clone()).collect();

    let ds = ctx.parallelize_default(rows);
    // (profile, (block id, block comparisons, source)).
    let by_profile = ds
        .flat_map(|(bid, _, cmps, members)| {
            let bid = *bid;
            let cmps = *cmps;
            members
                .iter()
                .map(|&(src, p)| (p, (bid, cmps, src)))
                .collect::<Vec<_>>()
        })
        .group_by_key();

    // Per profile: retain the smallest `quota` blocks, emit (block, (src, profile)).
    let retained = by_profile.flat_map(move |(p, blocks_of_p)| {
        let mut ordered = blocks_of_p.clone();
        ordered.sort_by_key(|&(bid, cmps, _)| (cmps, bid));
        let quota = ((ordered.len() as f64 * ratio).ceil() as usize).max(1);
        ordered
            .into_iter()
            .take(quota)
            .map(|(bid, _, src)| (bid, (src, *p)))
            .collect::<Vec<_>>()
    });

    let regrouped = retained.group_by_key();
    let mut rebuilt: Vec<(u32, Block)> = regrouped
        .map(move |(bid, members)| {
            let mut s0: Vec<ProfileId> = Vec::new();
            let mut s1: Vec<ProfileId> = Vec::new();
            for (src, p) in members {
                if *src == 0 {
                    s0.push(*p);
                } else {
                    s1.push(*p);
                }
            }
            let key = keys[*bid as usize].clone();
            let block = match kind {
                ErKind::Dirty => Block::dirty(key, s0),
                ErKind::CleanClean => Block::clean_clean(key, s0, s1),
            };
            (*bid, block)
        })
        .collect();
    rebuilt.sort_by_key(|(bid, _)| *bid);
    BlockCollection::new(kind, rebuilt.into_iter().map(|(_, b)| b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::Profile;

    fn collection() -> ProfileCollection {
        let names = [
            "sony bravia tv",
            "samsung galaxy phone",
            "sony walkman player",
            "apple iphone phone",
            "sony bravia television hd",
            "galaxy samsung smartphone",
        ];
        ProfileCollection::dirty(
            names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("name", *n)
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn dataflow_token_blocking_matches_sequential() {
        let coll = collection();
        let ctx = Context::new(4);
        let par = token_blocking(&ctx, &coll);
        let seq = crate::token_blocking(&coll);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.blocks().iter().zip(seq.blocks()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dataflow_blocking_clean_clean() {
        let coll = ProfileCollection::clean_clean(
            vec![Profile::builder(SourceId(0), "a")
                .attr("n", "x common")
                .build()],
            vec![Profile::builder(SourceId(1), "b")
                .attr("m", "common y")
                .build()],
        );
        let ctx = Context::new(2);
        let bc = token_blocking(&ctx, &coll);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.blocks()[0].key, "common");
        assert_eq!(bc.blocks()[0].members[0].len(), 1);
        assert_eq!(bc.blocks()[0].members[1].len(), 1);
    }

    #[test]
    fn dataflow_filtering_matches_sequential() {
        let coll = collection();
        let ctx = Context::new(4);
        let blocks = crate::token_blocking(&coll);
        let par = block_filtering(&ctx, blocks.clone(), 0.8);
        let seq = crate::block_filtering(blocks, 0.8);
        assert_eq!(par.candidate_pairs(), seq.candidate_pairs());
        assert_eq!(par.total_comparisons(), seq.total_comparisons());
    }

    #[test]
    fn worker_count_does_not_change_result() {
        let coll = collection();
        let base = token_blocking(&Context::new(1), &coll);
        for w in [2, 4, 8] {
            let bc = token_blocking(&Context::new(w), &coll);
            assert_eq!(bc.candidate_pairs(), base.candidate_pairs());
        }
    }

    #[test]
    fn budgeted_blocking_spills_and_matches_sequential() {
        use sparker_dataflow::MemBudget;
        let coll = collection();
        // A budget of a few bytes: every shuffle partition must spill.
        let budget = MemBudget::limited(16);
        let ctx = Context::new(4).with_budget(budget.clone());
        let blocks = token_blocking(&ctx, &coll);
        let filtered = block_filtering(&ctx, blocks.clone(), 0.8);
        assert!(budget.spill_batches() > 0, "tiny budget forces spilling");
        let seq_blocks = crate::token_blocking(&coll);
        assert_eq!(blocks.blocks(), seq_blocks.blocks());
        let seq_filtered = crate::block_filtering(seq_blocks, 0.8);
        assert_eq!(filtered.candidate_pairs(), seq_filtered.candidate_pairs());
    }

    #[test]
    fn engine_metrics_show_shuffles() {
        let coll = collection();
        let ctx = Context::new(2);
        token_blocking(&ctx, &coll);
        let snap = ctx.metrics();
        assert!(snap.stages.iter().any(|s| s.name == "group_by_key"));
        assert!(snap.total_shuffle_records() > 0);
    }
}
