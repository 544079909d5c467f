//! Property-based tests of the dataflow engine against sequential models.

use proptest::prelude::*;
use sparker_dataflow::{Context, MemBudget};
use std::collections::BTreeMap;

fn ctx_strategy() -> impl Strategy<Value = (usize, usize)> {
    // (workers, partitions)
    (1usize..=8, 1usize..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_collect_is_identity_plus_fn(
        data in prop::collection::vec(any::<i32>(), 0..300),
        (workers, parts) in ctx_strategy(),
    ) {
        let ctx = Context::with_partitions(workers, parts);
        let ds = ctx.parallelize(data.clone(), parts);
        let out = ds.map(|x| x.wrapping_mul(3)).collect();
        let expected: Vec<i32> = data.iter().map(|x| x.wrapping_mul(3)).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn group_by_key_matches_btreemap_model(
        data in prop::collection::vec((0u8..20, any::<i16>()), 0..300),
        (workers, parts) in ctx_strategy(),
    ) {
        let ctx = Context::with_partitions(workers, parts);
        let ds = ctx.parallelize(data.clone(), parts);
        let mut grouped: BTreeMap<u8, Vec<i16>> = BTreeMap::new();
        for (k, v) in ds.group_by_key().collect() {
            prop_assert!(grouped.insert(k, v).is_none(), "duplicate key in output");
        }
        let mut model: BTreeMap<u8, Vec<i16>> = BTreeMap::new();
        for (k, v) in data {
            model.entry(k).or_default().push(v);
        }
        prop_assert_eq!(grouped, model);
    }

    #[test]
    fn spillable_group_by_key_is_identical_at_any_budget(
        data in prop::collection::vec((0u32..40, any::<u32>()), 0..300),
        (workers, parts) in ctx_strategy(),
        budget_bytes in 1u64..4096,
    ) {
        // Tiny byte budgets force most map tasks to spill; the output must
        // equal the unlimited (all-resident) run element-wise, in order,
        // and group exactly like the model.
        let run = |budget: &MemBudget| {
            Context::with_partitions(workers, parts)
                .with_budget(budget.clone())
                .parallelize(data.clone(), parts)
                .group_by_key()
                .collect()
        };
        let tiny = MemBudget::limited(budget_bytes);
        let unlimited = MemBudget::unlimited();
        let spilled = run(&tiny);
        prop_assert_eq!(&spilled, &run(&unlimited));
        prop_assert_eq!(unlimited.spill_batches(), 0);
        prop_assert_eq!(tiny.tracked_bytes(), 0, "all reservations released");
        let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (k, v) in data.iter().copied() {
            model.entry(k).or_default().push(v);
        }
        prop_assert_eq!(spilled.into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold(
        data in prop::collection::vec((0u8..10, -100i64..100), 0..200),
        (workers, parts) in ctx_strategy(),
    ) {
        let ctx = Context::with_partitions(workers, parts);
        let ds = ctx.parallelize(data.clone(), parts);
        let mut reduced: BTreeMap<u8, i64> = BTreeMap::new();
        for (k, v) in ds.reduce_by_key(|a, b| a + *b).collect() {
            prop_assert!(reduced.insert(k, v).is_none(), "duplicate key in output");
        }
        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        for (k, v) in data {
            *model.entry(k).or_default() += v;
        }
        prop_assert_eq!(reduced, model);
    }

    #[test]
    fn join_matches_nested_loop_model(
        left in prop::collection::vec((0u8..8, any::<u8>()), 0..60),
        right in prop::collection::vec((0u8..8, any::<u8>()), 0..60),
        (workers, parts) in ctx_strategy(),
    ) {
        let ctx = Context::with_partitions(workers, parts);
        let l = ctx.parallelize(left.clone(), parts);
        let r = ctx.parallelize(right.clone(), parts);
        let mut out = l.join(&r).collect();
        out.sort_unstable();
        let mut model: Vec<(u8, (u8, u8))> = Vec::new();
        for &(kl, vl) in &left {
            for &(kr, vr) in &right {
                if kl == kr {
                    model.push((kl, (vl, vr)));
                }
            }
        }
        model.sort_unstable();
        prop_assert_eq!(out, model);
    }

    #[test]
    fn results_invariant_to_worker_count(
        data in prop::collection::vec((0u8..15, any::<i8>()), 0..200),
        parts in 1usize..10,
    ) {
        let run = |workers: usize| {
            let ctx = Context::with_partitions(workers, parts);
            ctx.parallelize(data.clone(), parts)
                .group_by_key()
                .map(|(k, v)| (*k, v.len()))
                .collect()
        };
        let base = run(1);
        prop_assert_eq!(run(4), base.clone());
        prop_assert_eq!(run(7), base);
    }
}
