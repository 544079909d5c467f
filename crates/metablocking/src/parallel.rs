//! Parallel meta-blocking: the paper's broadcast-join formulation.
//!
//! "The parallel meta-blocking, implemented on Apache Spark, is inspired by
//! the broadcast join: it partitions the nodes of the blocking graph and
//! sends in broadcast (i.e., to each partition) all the information needed
//! to materialize the neighborhood of each node one at a time. Once the
//! neighborhood of a node is materialized, the pruning function is
//! applied."
//!
//! There is one parallel node pass, the [`StreamingMetaBlocking`] plan:
//! `prepare` runs pass A (per-node statistics, rule resolution) as a morsel
//! stage, and `prune_range` re-materializes the neighborhoods of any
//! contiguous node range and applies the retention rule. The fused pipeline
//! streams those ranges into the matcher; [`meta_blocking`] is the staged
//! consumer, which runs them on the pool and concatenates the results.
//! Real blocking graphs are power-law skewed, so the ranges are cut by
//! *degree* cost and claimed dynamically off the pool's task counter.
//! Results are identical to the naive sequential oracle
//! [`crate::meta_blocking_graph`] (asserted by tests and proptests).

use crate::graph::BlockGraph;
use crate::pruning::MetaBlockingConfig;
use crate::streaming::StreamingMetaBlocking;
use sparker_dataflow::{Broadcast, Context, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::sync::Arc;

/// Morsel grain for the per-node passes: roughly `32 × workers` claimable
/// tasks overall, so dynamic claiming can rebalance degree skew without
/// drowning in task bookkeeping.
pub(crate) fn morsel_grain(num_nodes: usize, ctx: &Context) -> usize {
    (num_nodes / (ctx.workers() * 32)).max(1)
}

/// Node-parallel [`BlockGraph::degrees`]: each worker counts the distinct
/// neighbors of its claimed nodes with a per-slot epoch-marked seen array
/// ([`BlockGraph::degree_of`]). Only scorers that read node degrees (EJS,
/// supervised) need this pass, ahead of pass A.
///
/// The counting walk touches every block of every node — the same
/// traversal shape as a full materialization pass — so it must not run
/// serially on the driver. Counts are emitted in node order (morsel outputs
/// concatenate in input order), and each count is a pure function of its
/// node, so the result is byte-identical to the serial pass at any worker
/// count.
pub fn degrees_parallel(ctx: &Context, graph: &Arc<BlockGraph>) -> (Vec<u32>, u64) {
    let num_nodes = graph.num_profiles();
    if num_nodes == 0 {
        return (Vec::new(), 0);
    }
    let b_graph: Broadcast<BlockGraph> = ctx.broadcast(Arc::clone(graph));
    let seen = Arc::new(WorkerLocal::new(ctx.workers(), || {
        vec![u32::MAX; num_nodes]
    }));
    let grain = morsel_grain(num_nodes, ctx);
    let ids: Vec<u32> = (0..num_nodes as u32).collect();
    let degrees: Vec<u32> = ctx
        .parallelize_default(ids)
        .map_morsels_named("degree_count", grain, move |worker, nodes| {
            seen.with(worker, |seen| {
                nodes
                    .iter()
                    .map(|&i| b_graph.degree_of(ProfileId(i), seen))
                    .collect()
            })
        })
        .collect();
    let edges: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
    (degrees, edges / 2)
}

/// Parallel meta-blocking over a prebuilt [`BlockGraph`]; equivalent to
/// [`crate::meta_blocking_graph`].
///
/// The graph is taken as an `Arc` so the broadcast adopts the driver's
/// shared handle instead of deep-cloning the whole structure — exactly the
/// "ship one copy per executor" semantics of Spark's broadcast join.
pub fn meta_blocking(
    ctx: &Context,
    graph: &Arc<BlockGraph>,
    config: &MetaBlockingConfig,
) -> Vec<(Pair, f64)> {
    let plan = StreamingMetaBlocking::prepare(ctx, graph, config);
    let ranges = plan.cost_morsels(ctx.workers() * 32);
    let scratches = WorkerLocal::new(ctx.workers(), || plan.make_scratch());
    // One partition, one range per morsel: ranges ascend and each emits its
    // pairs sorted, so the concatenation is sorted by pair — and the single
    // output partition is moved out, not copied.
    ctx.parallelize(ranges, 1)
        .map_morsels_named("prune_pass_b", 1, |worker, ranges| {
            scratches.with(worker, |scratch| {
                ranges
                    .iter()
                    .flat_map(|range| plan.prune_range(range.clone(), scratch))
                    .collect()
            })
        })
        .into_partitions()
        .pop()
        .expect("one input partition yields one output partition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruning::{meta_blocking_graph, PruningStrategy};
    use crate::scorer::EdgeScorer;
    use crate::weights::WeightScheme;
    use sparker_blocking::token_blocking;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

    fn noisy_collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr(
                            "name",
                            format!(
                                "prod{} brand{} shared tok{} tok{}",
                                i % 10,
                                i % 4,
                                i % 7,
                                (i + 3) % 7,
                            ),
                        )
                        .build()
                })
                .collect(),
        )
    }

    /// A dirty collection with a contiguous hub region: the first tenth of
    /// the profiles share a dedicated hot token, so low ids are far more
    /// connected than the tail — the shape cost hints exist for.
    fn skewed_collection(n: usize) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..n)
                .map(|i| {
                    let mut b = Profile::builder(SourceId(0), i.to_string());
                    if i < n / 10 {
                        b = b.attr("hot", "hub0 hub1 hub2");
                    }
                    b.attr("name", format!("tok{} tok{}", i % 9, (i + 4) % 9))
                        .build()
                })
                .collect(),
        )
    }

    const ALL_PRUNINGS: [PruningStrategy; 5] = [
        PruningStrategy::Wep { factor: 1.0 },
        PruningStrategy::Cep { retain: None },
        PruningStrategy::Wnp {
            factor: 1.0,
            reciprocal: false,
        },
        PruningStrategy::Cnp {
            k: None,
            reciprocal: false,
        },
        PruningStrategy::Blast { ratio: 0.35 },
    ];

    #[test]
    fn parallel_matches_sequential_for_all_configs() {
        // Uniform and hub-skewed graphs (on the latter the degree-cost
        // range cuts genuinely differ from equal-count ones), every
        // scheme × pruning, at 1/2/4 workers.
        let contexts = [Context::new(1), Context::new(2), Context::new(4)];
        for coll in [noisy_collection(60), skewed_collection(80)] {
            let blocks = token_blocking(&coll);
            let graph = Arc::new(BlockGraph::new(&blocks, None));
            for scheme in WeightScheme::ALL {
                for pruning in ALL_PRUNINGS {
                    let config = MetaBlockingConfig {
                        scorer: EdgeScorer::Classic(scheme),
                        pruning,
                        use_entropy: false,
                    };
                    let seq = meta_blocking_graph(&graph, &config);
                    for ctx in &contexts {
                        assert_eq!(
                            meta_blocking(ctx, &graph, &config),
                            seq,
                            "{}+{} diverged at {} workers",
                            scheme.name(),
                            pruning.name(),
                            ctx.workers(),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_with_entropy() {
        let coll = skewed_collection(60);
        let blocks = token_blocking(&coll);
        let entropies = crate::BlockEntropies::new(
            (0..blocks.len())
                .map(|b| 0.1 + (b % 5) as f64 * 0.3)
                .collect(),
        );
        let graph = Arc::new(BlockGraph::new(&blocks, Some(&entropies)));
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                pruning,
                ..MetaBlockingConfig::blast()
            };
            let seq = meta_blocking_graph(&graph, &config);
            assert!(!seq.is_empty(), "{}: nothing retained", pruning.name());
            for w in [1, 2, 4] {
                assert_eq!(
                    meta_blocking(&Context::new(w), &graph, &config),
                    seq,
                    "entropy {} diverged at {w} workers",
                    pruning.name()
                );
            }
        }
    }

    #[test]
    fn worker_count_invariant() {
        let coll = noisy_collection(40);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let config = MetaBlockingConfig::default();
        let base = meta_blocking(&Context::new(1), &graph, &config);
        for w in [2, 4, 8] {
            assert_eq!(
                meta_blocking(&Context::new(w), &graph, &config),
                base,
                "diverged at {w} workers"
            );
        }
    }

    #[test]
    fn supervised_scorer_parallel_matches_sequential() {
        // A supervised model (which pulls degrees into the feature vector)
        // must agree with the sequential driver under every pruning and
        // worker count, like the classic schemes do.
        let coll = skewed_collection(80);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let mut model = crate::LinearModel::zero();
        model.weights[0] = 0.4; // shared blocks
        model.weights[3] = 2.5; // jaccard
        model.weights[11] = -0.01; // max degree
        model.bias = -1.0;
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Supervised(model),
                pruning,
                use_entropy: false,
            };
            let seq = meta_blocking_graph(&graph, &config);
            assert!(!seq.is_empty(), "{}: nothing retained", pruning.name());
            for w in [1, 2, 4] {
                assert_eq!(
                    meta_blocking(&Context::new(w), &graph, &config),
                    seq,
                    "supervised {} diverged at {w} workers",
                    pruning.name(),
                );
            }
        }
    }

    #[test]
    fn parallel_degrees_match_serial() {
        // The parallel degree pass is the serial one distributed: same
        // counts in the same node order, same edge total, at any worker
        // count — on both a uniform and a hub-skewed graph.
        for coll in [noisy_collection(120), skewed_collection(120)] {
            let blocks = token_blocking(&coll);
            let graph = Arc::new(BlockGraph::new(&blocks, None));
            let (serial, serial_edges) = graph.degrees();
            for w in [1, 2, 4, 8] {
                let (par, par_edges) = degrees_parallel(&Context::new(w), &graph);
                assert_eq!(par, serial, "degrees diverged at {w} workers");
                assert_eq!(
                    par_edges, serial_edges,
                    "edge count diverged at {w} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_degrees_empty_graph() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, Vec::new());
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let (degrees, edges) = degrees_parallel(&Context::new(2), &graph);
        assert!(degrees.is_empty());
        assert_eq!(edges, 0);
    }

    #[test]
    fn broadcasts_are_recorded() {
        let coll = noisy_collection(20);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        meta_blocking(&ctx, &graph, &MetaBlockingConfig::default());
        let snap = ctx.metrics();
        assert!(snap.broadcasts >= 2, "graph + scoring context broadcast");
        // Both node-parallel passes run as morsel stages with per-worker
        // time accounting.
        for name in ["prune_pass_a", "prune_pass_b"] {
            let pass = snap
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} is an engine stage"));
            assert!(pass.tasks > 0);
            assert!(!pass.per_worker_busy.is_empty());
        }
        assert!(snap.total_busy_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn empty_graph_parallel() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, vec![]);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        assert!(meta_blocking(&ctx, &graph, &MetaBlockingConfig::default()).is_empty());
    }
}
