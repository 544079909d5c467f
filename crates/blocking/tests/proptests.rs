//! Property-based tests of blocking invariants: purging and filtering only
//! remove comparisons, candidate pairs are always comparable, dataflow
//! equals sequential, interned blocking equals the string-keyed reference,
//! the parallel token pass does not depend on the worker count, and the CSR
//! clean equals purging and filtering the materialized blocks.

use proptest::prelude::*;
use sparker_blocking::{
    block_filtering, purge_by_comparison_level, purge_oversized, token_blocking,
    token_blocking_pass, token_blocking_string, token_blocking_with_dict, BlockCollection,
    BlockSizes, CompactBlocks, PurgeConfig, TokenBlocks,
};
use sparker_dataflow::{Context, MemBudget};
use sparker_profiles::{Profile, ProfileCollection, SourceId, TokenDict};
use std::sync::OnceLock;

/// Random small collections: values drawn from a small token vocabulary so
/// blocks actually form.
fn collection_strategy(dirty: bool) -> impl Strategy<Value = ProfileCollection> {
    let profile = prop::collection::vec(0usize..12, 1..6).prop_map(|words| {
        words
            .into_iter()
            .map(|w| format!("tok{w}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    prop::collection::vec(profile, 2..25).prop_map(move |values| {
        let build = |src: u8, vals: &[String], off: usize| {
            vals.iter()
                .enumerate()
                .map(|(i, v)| {
                    Profile::builder(SourceId(src), format!("r{}", off + i))
                        .attr("text", v.clone())
                        .build()
                })
                .collect::<Vec<_>>()
        };
        if dirty {
            ProfileCollection::dirty(build(0, &values, 0))
        } else {
            let mid = values.len() / 2;
            ProfileCollection::clean_clean(
                build(0, &values[..mid], 0),
                build(1, &values[mid..], mid),
            )
        }
    })
}

/// Like [`collection_strategy`] but drawing from a vocabulary that mixes
/// case, digits and non-ASCII words, so tokenization's slow paths are
/// exercised by the interned-vs-string equality test.
fn noisy_collection_strategy(dirty: bool) -> impl Strategy<Value = ProfileCollection> {
    const VOCAB: [&str; 12] = [
        "tok0", "Tok1", "TOK2", "café", "Modène", "ǅungla", "42", "x9y", "MiXeD3", "été",
        "tok0tok0", "ß1",
    ];
    let profile = prop::collection::vec(0usize..VOCAB.len(), 1..6).prop_map(|words| {
        words
            .into_iter()
            .map(|w| VOCAB[w])
            .collect::<Vec<_>>()
            .join(" ")
    });
    prop::collection::vec(profile, 2..25).prop_map(move |values| {
        let build = |src: u8, vals: &[String], off: usize| {
            vals.iter()
                .enumerate()
                .map(|(i, v)| {
                    Profile::builder(SourceId(src), format!("r{}", off + i))
                        .attr("text", v.clone())
                        .build()
                })
                .collect::<Vec<_>>()
        };
        if dirty {
            ProfileCollection::dirty(build(0, &values, 0))
        } else {
            let mid = values.len() / 2;
            ProfileCollection::clean_clean(
                build(0, &values[..mid], 0),
                build(1, &values[mid..], mid),
            )
        }
    })
}

/// Collections for the token pass: noisy words, empty profiles, and as few
/// as zero profiles, so the pass sees more workers than profiles.
fn token_pass_strategy() -> impl Strategy<Value = ProfileCollection> {
    const VOCAB: [&str; 10] = [
        "tok0", "Tok1", "café", "Modène", "42", "x9y", "été", "tok0tok0", "ß1", "zeta",
    ];
    let profile = prop::collection::vec(0usize..VOCAB.len(), 0..5).prop_map(|words| {
        words
            .iter()
            .map(|&w| VOCAB[w])
            .collect::<Vec<_>>()
            .join(" ")
    });
    (prop::collection::vec(profile, 0..12), any::<bool>()).prop_map(|(values, dirty)| {
        let build = |src: u8, vals: &[String], off: usize| {
            vals.iter()
                .enumerate()
                .map(|(i, v)| {
                    Profile::builder(SourceId(src), format!("r{}", off + i))
                        .attr("text", v.clone())
                        .build()
                })
                .collect::<Vec<_>>()
        };
        let mid = values.len() / 2;
        if dirty {
            ProfileCollection::dirty(build(0, &values, 0))
        } else {
            ProfileCollection::clean_clean(
                build(0, &values[..mid], 0),
                build(1, &values[mid..], mid),
            )
        }
    })
}

/// Engine contexts at the worker counts the token pass is pinned at.
fn contexts() -> &'static [Context] {
    static CONTEXTS: OnceLock<Vec<Context>> = OnceLock::new();
    CONTEXTS.get_or_init(|| [1, 2, 3, 8].into_iter().map(Context::new).collect())
}

fn purge_strategy() -> impl Strategy<Value = PurgeConfig> {
    prop_oneof![
        Just(PurgeConfig::Off),
        (0.05f64..1.0).prop_map(|max_fraction| PurgeConfig::Oversized { max_fraction }),
        (1.0f64..2.0).prop_map(|smoothing| PurgeConfig::ComparisonLevel { smoothing }),
    ]
}

/// The string-keyed oracle of the CSR clean: purge, then filter, on a
/// materialized block collection.
fn purge_then_filter(
    blocks: BlockCollection,
    purge: &PurgeConfig,
    total_profiles: usize,
    ratio: Option<f64>,
) -> BlockCollection {
    let purged = match *purge {
        PurgeConfig::Off => blocks,
        PurgeConfig::Oversized { max_fraction } => {
            purge_oversized(blocks, total_profiles, max_fraction)
        }
        PurgeConfig::ComparisonLevel { smoothing } => purge_by_comparison_level(blocks, smoothing),
    };
    match ratio {
        Some(ratio) => block_filtering(purged, ratio),
        None => purged,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Purging and filtering on the CSR equal purging and filtering the
    /// materialized collection — same keys, members, split and order — on
    /// both task kinds, for every purge rule and ratio, at every worker
    /// count and budget, including empty collections and profiles left in
    /// no block. The staged route (a collection packed back into CSR)
    /// filters identically, and so does the fused driver's route, which
    /// knows the blocks only by their sizes until it cleans them
    /// (`BlockSizes`).
    #[test]
    fn csr_clean_equals_purge_then_block_filtering(
        coll in prop_oneof![
            collection_strategy(true),
            collection_strategy(false),
            token_pass_strategy(),
        ],
        purge in purge_strategy(),
        ratio in prop::option::of(0.05f64..=1.0),
    ) {
        let TokenBlocks { dict, keys, blocks } =
            token_blocking_pass(None, &coll, &MemBudget::unlimited());
        let purged = purge_then_filter(blocks.materialize(&dict), &purge, coll.len(), None);
        let oracle = purge_then_filter(purged.clone(), &PurgeConfig::Off, coll.len(), ratio);
        let serial =
            blocks.clone().clean(None, &keys, &purge, coll.len(), ratio, &MemBudget::unlimited());
        let materialized = serial.materialize(&dict);
        prop_assert_eq!(materialized.blocks(), oracle.blocks());
        prop_assert_eq!(serial.num_profiles(), oracle.profile_index().len());
        prop_assert_eq!(serial.total_comparisons(), oracle.total_comparisons());
        let (packed, lists) = CompactBlocks::from_collection(&purged);
        let sizes = BlockSizes::from_profile_keys(coll.kind(), coll.separator(), dict.len(), &keys);
        prop_assert_eq!(sizes.len(), blocks.len());
        prop_assert_eq!(sizes.total_comparisons(), blocks.total_comparisons());
        for ctx in contexts() {
            for budget in [MemBudget::unlimited(), MemBudget::limited(1)] {
                let cleaned =
                    blocks.clone().clean(Some(ctx), &keys, &purge, coll.len(), ratio, &budget);
                prop_assert_eq!(&cleaned, &serial, "{} workers", ctx.workers());
                let from_sizes =
                    sizes.clone().clean(Some(ctx), &keys, &purge, coll.len(), ratio, &budget);
                prop_assert_eq!(&from_sizes, &serial, "sizes, {} workers", ctx.workers());
                let staged = packed
                    .clone()
                    .clean(Some(ctx), &lists, &PurgeConfig::Off, 0, ratio, &budget)
                    .materialize_with(|k| purged.blocks()[k.index()].key.clone());
                prop_assert_eq!(staged.blocks(), oracle.blocks(), "{} workers", ctx.workers());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole equality guarantee: the interned counting-sort blocker
    /// produces a block collection *identical* to the string-keyed seed
    /// implementation — same keys, same members, same order — on both task
    /// kinds, including mixed-case and non-ASCII vocabularies.
    #[test]
    fn interned_equals_string_keyed_dirty(coll in noisy_collection_strategy(true)) {
        let interned = token_blocking(&coll);
        let reference = token_blocking_string(&coll);
        prop_assert_eq!(interned.kind(), reference.kind());
        prop_assert_eq!(interned.blocks(), reference.blocks());
    }

    #[test]
    fn interned_equals_string_keyed_clean_clean(coll in noisy_collection_strategy(false)) {
        let interned = token_blocking(&coll);
        let reference = token_blocking_string(&coll);
        prop_assert_eq!(interned.kind(), reference.kind());
        prop_assert_eq!(interned.blocks(), reference.blocks());
    }

    #[test]
    fn candidate_pairs_are_comparable(coll in collection_strategy(false)) {
        let blocks = token_blocking(&coll);
        for pair in blocks.candidate_pairs() {
            prop_assert!(coll.is_comparable(pair.first, pair.second));
        }
    }

    #[test]
    fn purging_only_removes_pairs(coll in collection_strategy(true), frac in 0.1f64..1.0) {
        let blocks = token_blocking(&coll);
        let before = blocks.candidate_pairs();
        let after = purge_oversized(blocks, coll.len(), frac).candidate_pairs();
        prop_assert!(after.is_subset(&before));
    }

    #[test]
    fn comparison_purging_only_removes_pairs(coll in collection_strategy(true), s in 1.0f64..2.0) {
        let blocks = token_blocking(&coll);
        let before = blocks.candidate_pairs();
        let after = purge_by_comparison_level(blocks, s).candidate_pairs();
        prop_assert!(after.is_subset(&before));
    }

    #[test]
    fn filtering_only_removes_pairs_and_keeps_some(
        coll in collection_strategy(true),
        ratio in 0.2f64..1.0,
    ) {
        let blocks = token_blocking(&coll);
        let before = blocks.candidate_pairs();
        let filtered = block_filtering(blocks, ratio);
        let after = filtered.candidate_pairs();
        prop_assert!(after.is_subset(&before));
        // Every profile keeps ≥1 block, so nobody is orphaned *by filtering*
        // (pairs can still disappear, but block membership survives).
        if !before.is_empty() && ratio >= 0.99 {
            prop_assert_eq!(&after, &before, "ratio 1.0 is the identity on pairs");
        }
    }

    #[test]
    fn filtering_monotone_in_ratio(coll in collection_strategy(true)) {
        let blocks = token_blocking(&coll);
        let strict = block_filtering(blocks.clone(), 0.4).candidate_pairs();
        let loose = block_filtering(blocks, 0.8).candidate_pairs();
        prop_assert!(strict.len() <= loose.len());
    }

    #[test]
    fn dataflow_blocking_equals_sequential(
        coll in collection_strategy(false),
        workers in 1usize..6,
    ) {
        let ctx = Context::new(workers);
        let seq = token_blocking(&coll);
        let par = sparker_blocking::dataflow::token_blocking(&ctx, &coll);
        prop_assert_eq!(seq.candidate_pairs(), par.candidate_pairs());
        prop_assert_eq!(seq.len(), par.len());
    }

    #[test]
    fn dataflow_filtering_equals_sequential(
        coll in collection_strategy(true),
        ratio in 0.3f64..1.0,
        workers in 1usize..6,
    ) {
        let blocks = token_blocking(&coll);
        let ctx = Context::new(workers);
        let seq = block_filtering(blocks.clone(), ratio);
        let par = sparker_blocking::dataflow::block_filtering(&ctx, blocks, ratio);
        prop_assert_eq!(seq.candidate_pairs(), par.candidate_pairs());
    }

    #[test]
    fn block_sizes_and_comparisons_consistent(coll in collection_strategy(false)) {
        let blocks = token_blocking(&coll);
        let kind = blocks.kind();
        for b in blocks.blocks() {
            prop_assert!(b.is_useful(kind));
            prop_assert_eq!(b.pairs(kind).len() as u64, b.comparisons(kind));
        }
        prop_assert!(blocks.candidate_pairs().len() as u64 <= blocks.total_comparisons());
    }

    #[test]
    fn token_pass_is_worker_count_invariant(coll in token_pass_strategy()) {
        // The one-range pass is the reference: the dictionary and CSR blocks
        // of every worker count must equal it, the blocks must materialize
        // to the string-keyed oracle's, and each profile's ids must be its
        // token set, sorted.
        let (dict, compact) = token_blocking_with_dict(&coll);
        prop_assert_eq!(&dict, &TokenDict::build(&coll));
        let oracle = token_blocking_string(&coll);
        for ctx in contexts() {
            for budget in [MemBudget::unlimited(), MemBudget::limited(1)] {
                let pass = token_blocking_pass(Some(ctx), &coll, &budget);
                prop_assert_eq!(&pass.dict, &dict, "{} workers", ctx.workers());
                prop_assert_eq!(&pass.blocks, &compact, "{} workers", ctx.workers());
                let materialized = pass.blocks.materialize(&pass.dict);
                prop_assert_eq!(materialized.blocks(), oracle.blocks());
                prop_assert_eq!(pass.keys.len(), coll.len());
                for p in coll.profiles() {
                    let ids = pass.keys.keys_of(p.id.index());
                    prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                    let tokens: Vec<&str> = ids
                        .iter()
                        .map(|&t| pass.dict.resolve(sparker_profiles::TokenId(t)))
                        .collect();
                    let expected: Vec<String> = p.token_set().into_iter().collect();
                    prop_assert_eq!(tokens, expected.iter().map(String::as_str).collect::<Vec<_>>());
                }
            }
        }
    }
}

#[test]
fn token_pass_with_more_workers_than_profiles() {
    let empty = ProfileCollection::dirty(vec![]);
    let one = ProfileCollection::dirty(vec![Profile::builder(SourceId(0), "a")
        .attr("n", "alpha beta")
        .build()]);
    for coll in [empty, one] {
        let (dict, compact) = token_blocking_with_dict(&coll);
        let pass = token_blocking_pass(Some(&contexts()[3]), &coll, &MemBudget::unlimited());
        assert_eq!((pass.dict, pass.blocks), (dict, compact));
        assert_eq!(pass.keys.len(), coll.len());
    }
}
