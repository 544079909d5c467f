//! Property-based tests of meta-blocking: pruning soundness (retained ⊆
//! implicit edges), parallel/sequential parity, weight invariants.

use proptest::prelude::*;
use sparker_blocking::{token_blocking, Block, BlockCollection};
use sparker_dataflow::Context;
use sparker_metablocking::{
    meta_blocking_graph, parallel, BlockEntropies, BlockGraph, EdgeAccumulator, EdgeScorer,
    LinearModel, MetaBlockingConfig, PruningStrategy, ScoringContext, WeightScheme, NUM_FEATURES,
};
use sparker_profiles::{ErKind, Pair, Profile, ProfileCollection, ProfileId, SourceId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn collection_strategy() -> impl Strategy<Value = ProfileCollection> {
    let profile = prop::collection::vec(0usize..10, 1..5).prop_map(|words| {
        words
            .into_iter()
            .map(|w| format!("tok{w}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    prop::collection::vec(profile, 2..20).prop_map(|values| {
        ProfileCollection::dirty(
            values
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("text", v)
                        .build()
                })
                .collect(),
        )
    })
}

/// Collections with a contiguous Zipfian hub prefix: the first profiles
/// all share `hub0` (plus a rank-biased second hub token), so low ids form
/// a dense hub region — the skew shape the cost-morsel scheduler targets.
fn skewed_collection_strategy() -> impl Strategy<Value = ProfileCollection> {
    let hub = (0usize..4, 0usize..10).prop_map(|(r, w)| format!("hub0 hub{r} tok{w}"));
    let cold = prop::collection::vec(0usize..10, 1..4).prop_map(|ws| {
        ws.into_iter()
            .map(|w| format!("tok{w}"))
            .collect::<Vec<_>>()
            .join(" ")
    });
    (
        prop::collection::vec(hub, 2..12),
        prop::collection::vec(cold, 4..30),
    )
        .prop_map(|(hubs, colds)| {
            ProfileCollection::dirty(
                hubs.into_iter()
                    .chain(colds)
                    .enumerate()
                    .map(|(i, v)| {
                        Profile::builder(SourceId(0), i.to_string())
                            .attr("text", v)
                            .build()
                    })
                    .collect(),
            )
        })
}

/// Random blocks over an id space of up to 200 slots (several words of the
/// neighborhood bitmap, the last one partial), dirty or clean–clean, with
/// per-block entropies.
fn raw_blocks_strategy() -> impl Strategy<Value = (BlockCollection, BlockEntropies)> {
    (1u32..200, proptest::bool::ANY).prop_flat_map(|(n, clean_clean)| {
        let blocks = prop::collection::vec(prop::collection::vec(0..n, 1..12), 0..24);
        (blocks, 0..n).prop_map(move |(raw, separator)| {
            let blocks = raw.into_iter().enumerate().map(|(i, members)| {
                let members = members.into_iter().map(ProfileId);
                if clean_clean {
                    let (s0, s1) = members.partition(|p| p.0 < separator);
                    Block::clean_clean(format!("b{i}"), s0, s1)
                } else {
                    Block::dirty(format!("b{i}"), members.collect())
                }
            });
            let kind = if clean_clean {
                ErKind::CleanClean
            } else {
                ErKind::Dirty
            };
            let blocks = BlockCollection::new(kind, blocks.collect());
            let entropies = entropies_of(&blocks);
            (blocks, entropies)
        })
    })
}

/// Per-block entropies for `blocks` — aligned to the blocks `new` kept,
/// since it drops blocks without comparisons.
fn entropies_of(blocks: &BlockCollection) -> BlockEntropies {
    let entropies = (0..blocks.len()).map(|b| 0.1 + (b % 5) as f64 * 0.3);
    BlockEntropies::new(entropies.collect())
}

/// Graphs on both sides of the node walk's density crossover: a hub block
/// over most profiles (every fourth at least, so its members' walks are
/// dense enough to sweep), a block of four profiles spread over the id
/// space and in no other block (node 0's walk is too sparse for the
/// sweep) and a few random small blocks; dirty or clean–clean (sides
/// split at `n / 2`).
fn crossover_blocks_strategy() -> impl Strategy<Value = BlockCollection> {
    (80u32..300, proptest::bool::ANY).prop_flat_map(|(n, clean_clean)| {
        let in_hub = prop::collection::vec(0u8..10, n as usize);
        let small = prop::collection::vec(prop::collection::vec(0..n, 2..5), 0..12);
        (in_hub, small).prop_map(move |(in_hub, small)| {
            let separator = n / 2;
            let spread = [0, 1, separator, n - 1];
            let hub =
                (0..n).filter(|i| (in_hub[*i as usize] < 8 || i % 4 == 0) && !spread.contains(i));
            let small = small
                .into_iter()
                .map(|b| b.into_iter().filter(|i| !spread.contains(i)).collect());
            let raw = std::iter::once(hub.collect::<Vec<_>>())
                .chain(std::iter::once(spread.to_vec()))
                .chain(small);
            let blocks = raw.enumerate().map(|(i, members)| {
                let members = members.into_iter().map(ProfileId);
                if clean_clean {
                    let (s0, s1) = members.partition(|p| p.0 < separator);
                    Block::clean_clean(format!("b{i}"), s0, s1)
                } else {
                    Block::dirty(format!("b{i}"), members.collect())
                }
            });
            let kind = if clean_clean {
                ErKind::CleanClean
            } else {
                ErKind::Dirty
            };
            BlockCollection::new(kind, blocks.collect())
        })
    })
}

/// Every neighbour of `node` in `blocks` with its accumulators, from an
/// ordered map filled block by block in ascending block order.
fn btreemap_reference(
    blocks: &BlockCollection,
    entropies: &BlockEntropies,
    node: ProfileId,
) -> Vec<(ProfileId, EdgeAccumulator)> {
    let kind = blocks.kind();
    let mut reference = BTreeMap::new();
    for (b, block) in blocks.blocks().iter().enumerate() {
        let side = block
            .members
            .iter()
            .position(|m| m.binary_search(&node).is_ok());
        let Some(side) = side else { continue };
        let others = match kind {
            ErKind::Dirty => &block.members[0],
            ErKind::CleanClean => &block.members[1 - side],
        };
        for &other in others.iter().filter(|&&o| o != node) {
            let acc = reference
                .entry(other)
                .or_insert_with(EdgeAccumulator::default);
            acc.shared_blocks += 1;
            acc.arcs += 1.0 / block.comparisons(kind).max(1) as f64;
            acc.entropy_sum += entropies.as_slice()[b];
        }
    }
    reference.into_iter().collect()
}

/// Checks, for every node, the naive `neighborhood` against the ordered-map
/// reference, and the production walk — full and forward (the `j > node`
/// suffix), count-only and with sums — against `neighborhood`: the same
/// neighbours ascending, the same accumulators bit for bit (all three add
/// blocks in ascending block order), one scratch of each kind reused
/// across all nodes. Returns both scratches' `(bitmap, sweep)` emission
/// counts.
fn walks_equal_reference(
    blocks: &BlockCollection,
    entropies: &BlockEntropies,
) -> Result<[(u64, u64); 2], TestCaseError> {
    let graph = BlockGraph::new(blocks, Some(entropies));
    let mut counts = graph.node_scratch(false);
    let mut sums = graph.node_scratch(true);
    prop_assert!(!counts.has_sums());
    for i in 0..graph.num_profiles() as u32 {
        let node = ProfileId(i);
        let full = graph.neighborhood(node);
        prop_assert_eq!(&full, &btreemap_reference(blocks, entropies, node));
        let from = full.partition_point(|(j, _)| *j <= node);
        for (forward, expected) in [(false, &full[..]), (true, &full[from..])] {
            let got: Vec<_> = graph.walk(node, &mut sums, forward).iter().collect();
            prop_assert_eq!(&got[..], expected);
            let shared: Vec<_> = expected
                .iter()
                .map(|(j, a)| (*j, a.shared_blocks))
                .collect();
            prop_assert_eq!(graph.walk(node, &mut counts, forward).counts(), &shared[..]);
        }
    }
    Ok([counts.emission_modes(), sums.emission_modes()])
}

fn config_strategy() -> impl Strategy<Value = MetaBlockingConfig> {
    let scheme = prop::sample::select(WeightScheme::ALL.to_vec());
    let pruning = prop_oneof![
        (0.3f64..1.6).prop_map(|factor| PruningStrategy::Wep { factor }),
        prop::option::of(1u64..40).prop_map(|retain| PruningStrategy::Cep { retain }),
        (0.3f64..1.6, proptest::bool::ANY)
            .prop_map(|(factor, reciprocal)| PruningStrategy::Wnp { factor, reciprocal }),
        (prop::option::of(1usize..5), proptest::bool::ANY)
            .prop_map(|(k, reciprocal)| PruningStrategy::Cnp { k, reciprocal }),
        (0.05f64..1.0).prop_map(|ratio| PruningStrategy::Blast { ratio }),
    ];
    (scheme, pruning).prop_map(|(scheme, pruning)| MetaBlockingConfig {
        scorer: EdgeScorer::Classic(scheme),
        pruning,
        use_entropy: false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn retained_edges_are_a_subset_of_block_pairs(
        coll in collection_strategy(),
        config in config_strategy(),
    ) {
        let blocks = token_blocking(&coll);
        let all_pairs: HashSet<Pair> = blocks.candidate_pairs();
        let graph = BlockGraph::new(&blocks, None);
        let retained = meta_blocking_graph(&graph, &config);
        for (pair, weight) in &retained {
            prop_assert!(all_pairs.contains(pair), "invented edge {pair}");
            prop_assert!(weight.is_finite() && *weight >= 0.0);
        }
        // Output sorted and duplicate-free.
        for w in retained.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn parallel_equals_sequential(
        coll in prop_oneof![collection_strategy(), skewed_collection_strategy()],
        config in config_strategy(),
        workers in prop::sample::select(vec![1usize, 2, 3, 4, 8]),
    ) {
        // The parallel driver — degree-cost ranges claimed dynamically —
        // must reproduce the sequential one byte for byte, on hub-heavy
        // graphs as well as uniform ones.
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let seq = meta_blocking_graph(&graph, &config);
        let ctx = Context::new(workers);
        let par = parallel::meta_blocking(&ctx, &graph, &config);
        prop_assert_eq!(&seq, &par, "diverged at {} workers", workers);
    }

    #[test]
    fn wep_threshold_monotone(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let count = |factor: f64| {
            meta_blocking_graph(&graph, &MetaBlockingConfig {
                pruning: PruningStrategy::Wep { factor },
                ..MetaBlockingConfig::default()
            }).len()
        };
        prop_assert!(count(0.5) >= count(1.0));
        prop_assert!(count(1.0) >= count(1.5));
    }

    #[test]
    fn uniform_entropies_do_not_change_cbs_ordering(coll in collection_strategy()) {
        // With identical per-block entropies e, CBS-with-entropy weights are
        // exactly e × CBS weights, so WEP-at-mean retains identical pairs.
        // Use a power of two so the scaling is exact in floating point
        // (ties at the mean must not flip).
        let blocks = token_blocking(&coll);
        let graph_plain = BlockGraph::new(&blocks, None);
        let entropies = BlockEntropies::new(vec![0.5; blocks.len()]);
        let graph_e = BlockGraph::new(&blocks, Some(&entropies));
        let base = MetaBlockingConfig::default();
        let with_e = MetaBlockingConfig { use_entropy: true, ..base };
        let plain: Vec<Pair> = meta_blocking_graph(&graph_plain, &base).into_iter().map(|(p, _)| p).collect();
        let weighted: Vec<Pair> = meta_blocking_graph(&graph_e, &with_e).into_iter().map(|(p, _)| p).collect();
        prop_assert_eq!(plain, weighted);
    }

    #[test]
    fn neighborhoods_symmetric_and_positive(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            for (j, acc) in graph.neighborhood(node) {
                prop_assert!(acc.shared_blocks >= 1);
                prop_assert!(acc.arcs > 0.0);
                let back = graph.neighborhood(j);
                let reverse = back.iter().find(|(p, _)| *p == node);
                prop_assert!(reverse.is_some(), "asymmetric edge {node}-{j}");
                prop_assert_eq!(reverse.unwrap().1, acc);
            }
        }
    }

    #[test]
    fn neighborhood_equals_naive_btreemap_reference(input in raw_blocks_strategy()) {
        let (blocks, entropies) = input;
        walks_equal_reference(&blocks, &entropies)?;
    }

    #[test]
    fn count_walk_equals_btreemap_reference_across_the_crossover(
        blocks in crossover_blocks_strategy(),
    ) {
        // As above, and on these graphs the walk, count-only and with
        // sums, must have emitted nodes both ways.
        let entropies = entropies_of(&blocks);
        for (bitmap, sweep) in walks_equal_reference(&blocks, &entropies)? {
            prop_assert!(bitmap > 0 && sweep > 0, "bitmap {} / sweep {} nodes", bitmap, sweep);
        }
    }

    #[test]
    fn edge_features_finite_and_in_range(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        // A supervised scorer requests degrees, exercising every feature.
        let scoring =
            ScoringContext::new(&graph, EdgeScorer::Supervised(LinearModel::zero()), false);
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            let blocks_node = graph.blocks_of(node).len();
            for (j, acc) in graph.neighborhood(node) {
                if node >= j {
                    continue;
                }
                let f = scoring.features(node, j, &acc, blocks_node, graph.blocks_of(j).len());
                let vals = f.as_array();
                prop_assert_eq!(vals.len(), NUM_FEATURES);
                for (k, v) in vals.iter().enumerate() {
                    prop_assert!(v.is_finite() && *v >= 0.0, "feature {} = {}", k, v);
                }
                // The ratio features (jaccard/dice/cosine, normalized block
                // counts) are bounded by 1; the min/max pairs are ordered.
                for k in [3usize, 4, 5, 8, 9] {
                    prop_assert!(vals[k] <= 1.0 + 1e-12, "ratio feature {} = {}", k, vals[k]);
                }
                prop_assert!(vals[6] <= vals[7], "block-count min > max");
                prop_assert!(vals[10] <= vals[11], "degree min > max");
            }
        }
    }

    #[test]
    fn one_hot_cbs_model_ranks_edges_like_cbs(coll in collection_strategy()) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let cbs = ScoringContext::new(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        let one_hot =
            ScoringContext::new(&graph, EdgeScorer::Supervised(LinearModel::one_hot(0)), false);
        let mut scores = Vec::new();
        for i in 0..graph.num_profiles() as u32 {
            let node = sparker_profiles::ProfileId(i);
            let bn = graph.blocks_of(node).len();
            for (j, acc) in graph.neighborhood(node) {
                if node >= j {
                    continue;
                }
                let bj = graph.blocks_of(j).len();
                scores.push((
                    cbs.weigh(node, j, &acc, bn, bj),
                    one_hot.weigh(node, j, &acc, bn, bj),
                ));
            }
        }
        // The sigmoid is strictly monotone, so the pairwise ordering of the
        // one-hot CBS model must agree with raw CBS everywhere.
        for a in &scores {
            for b in &scores {
                prop_assert_eq!(
                    a.0.partial_cmp(&b.0),
                    a.1.partial_cmp(&b.1),
                    "order flip: CBS ({}, {}) vs model ({}, {})",
                    a.0, b.0, a.1, b.1
                );
            }
        }
    }

    #[test]
    fn cep_budget_respected_up_to_ties(coll in collection_strategy(), budget in 1u64..30) {
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let retained = meta_blocking_graph(&graph, &MetaBlockingConfig {
            pruning: PruningStrategy::Cep { retain: Some(budget) },
            ..MetaBlockingConfig::default()
        });
        // Ties at the threshold may exceed the budget, but the (budget+1)-th
        // distinct weight must not appear.
        if retained.len() as u64 > budget {
            let min = retained.iter().map(|(_, w)| *w).fold(f64::INFINITY, f64::min);
            let at_min = retained.iter().filter(|(_, w)| *w == min).count() as u64;
            prop_assert!(retained.len() as u64 - at_min < budget, "non-tie overflow");
        }
    }
}

/// Deterministic exhaustive companion to `parallel_equals_sequential`:
/// every `WeightScheme × PruningStrategy` at 1/2/8 workers, on one fixed
/// hub-skewed and one fixed uniform collection.
#[test]
fn full_matrix_parallel_parity_at_1_2_8_workers() {
    let make = |skewed: bool| -> Arc<BlockGraph> {
        let profiles = (0..60)
            .map(|i| {
                let mut text = format!("tok{} tok{}", i % 9, (i * 7 + 3) % 9);
                if skewed && i < 8 {
                    text.push_str(" hub0 hub1");
                }
                Profile::builder(SourceId(0), i.to_string())
                    .attr("text", text)
                    .build()
            })
            .collect();
        let coll = ProfileCollection::dirty(profiles);
        Arc::new(BlockGraph::new(&token_blocking(&coll), None))
    };
    let prunings = [
        PruningStrategy::Wep { factor: 1.0 },
        PruningStrategy::Cep { retain: Some(25) },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: true,
        },
        PruningStrategy::Cnp {
            k: Some(3),
            reciprocal: false,
        },
        PruningStrategy::Blast { ratio: 0.35 },
    ];
    for graph in [make(true), make(false)] {
        for scheme in WeightScheme::ALL {
            for pruning in prunings {
                let config = MetaBlockingConfig {
                    scorer: EdgeScorer::Classic(scheme),
                    pruning,
                    use_entropy: false,
                };
                let seq = meta_blocking_graph(&graph, &config);
                for workers in [1usize, 2, 8] {
                    let ctx = Context::new(workers);
                    assert_eq!(
                        seq,
                        parallel::meta_blocking(&ctx, &graph, &config),
                        "{}/{} diverged at {} workers",
                        scheme.name(),
                        pruning.name(),
                        workers
                    );
                }
            }
        }
    }
}
