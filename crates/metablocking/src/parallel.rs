//! Parallel meta-blocking: the paper's broadcast-join formulation.
//!
//! "The parallel meta-blocking, implemented on Apache Spark, is inspired by
//! the broadcast join: it partitions the nodes of the blocking graph and
//! sends in broadcast (i.e., to each partition) all the information needed
//! to materialize the neighborhood of each node one at a time. Once the
//! neighborhood of a node is materialized, the pruning function is
//! applied."
//!
//! Concretely: the compact [`BlockGraph`] is broadcast, node ids are
//! partitioned, and two node-parallel stages run — pass A computes per-node
//! statistics (means / maxima / k-th weights, plus the forward weight sums
//! or pool the edge-centric strategies need), pass B re-materializes each
//! neighborhood and applies the retention rule. Results are identical to
//! the sequential driver (asserted by tests and proptests).
//!
//! ## Skew-aware scheduling
//!
//! Real blocking graphs are power-law skewed: a few hub nodes own most of
//! the edges, so equal-*count* node partitions stall each stage on the
//! hub-heavy slice. The default [`Scheduling::CostMorsel`] counters this
//! twice over:
//!
//! 1. **Cost-hinted partitioning** — node degrees (computed by a cheap
//!    counting-only pass, no edge materialization) are fed to
//!    `Context::parallelize_by_cost`, cutting contiguous node ranges whose
//!    total *degree* — i.e. work — is balanced.
//! 2. **Morsel execution** — each partition is further split into many
//!    small contiguous morsels claimed dynamically off the pool's atomic
//!    task counter, with one reusable `(NeighborhoodScratch, weights)`
//!    buffer per worker slot ([`WorkerLocal`]), so the per-node hot loop
//!    stays allocation-free across morsel boundaries.
//!
//! Both mechanisms are schedule-only: node order, weight-accumulation
//! order and output order are unchanged, so [`Scheduling::EqualCount`] and
//! [`Scheduling::CostMorsel`] produce byte-identical results.

use crate::graph::BlockGraph;
use crate::pruning::{
    cnp_budget, node_pass_single, resolve_rule, ForwardWeights, MetaBlockingConfig, NodeStats,
};
use crate::scorer::ScoringContext;
use sparker_dataflow::{Broadcast, Context, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::sync::Arc;

/// How node work is mapped onto pool tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Equal-count contiguous node partitions, one task per partition —
    /// Spark's default `parallelize` behaviour. Stalls on hub-heavy slices
    /// of skewed graphs; kept as the measurable baseline.
    EqualCount,
    /// Degree-cost-balanced partitions executed as dynamically claimed
    /// morsels with per-worker scratch reuse (see the module docs).
    #[default]
    CostMorsel,
}

impl Scheduling {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduling::EqualCount => "equal-count",
            Scheduling::CostMorsel => "cost-morsel",
        }
    }
}

/// Morsel grain: split each partition into roughly `32 × workers` claimable
/// tasks overall so dynamic claiming can rebalance what the cost hints
/// missed, without drowning in task bookkeeping.
fn morsel_grain(num_nodes: usize, ctx: &Context) -> usize {
    (num_nodes / (ctx.workers() * 32)).max(1)
}

/// Node-parallel [`BlockGraph::degrees`]: each worker counts the distinct
/// neighbors of its claimed nodes with a per-slot epoch-marked seen array
/// ([`BlockGraph::degree_of`]).
///
/// This pass used to run serially on the driver before the cost-balanced
/// node partitioning could start, which capped the scaling of the whole
/// candidates stage — the counting walk touches every block of every node,
/// the same traversal shape as a full materialization pass. Counts are
/// emitted in node order (morsel outputs concatenate in input order), and
/// each count is a pure function of its node, so the result is
/// byte-identical to the serial pass at any worker count.
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
/// [`crate::meta_blocking_graph`]. Uses the default skew-aware
/// [`Scheduling::CostMorsel`]; see [`meta_blocking_scheduled`] to pick.
///
/// The graph is taken as an `Arc` so the broadcast adopts the driver's
/// shared handle instead of deep-cloning the whole structure — exactly the
/// "ship one copy per executor" semantics of Spark's broadcast join.
pub fn meta_blocking(
    ctx: &Context,
    graph: &Arc<BlockGraph>,
    config: &MetaBlockingConfig,
) -> Vec<(Pair, f64)> {
    meta_blocking_scheduled(ctx, graph, config, Scheduling::default())
}

/// [`meta_blocking`] with an explicit [`Scheduling`] policy. Both policies
/// return byte-identical results; they differ only in how node work lands
/// on workers (and therefore in stage critical path under skew).
pub fn meta_blocking_scheduled(
    ctx: &Context,
    graph: &Arc<BlockGraph>,
    config: &MetaBlockingConfig,
    scheduling: Scheduling,
) -> Vec<(Pair, f64)> {
    // A single-worker pool gains nothing from cost hints: the extra degree
    // pass only delays the one worker that must do all the work anyway
    // (measured ~9% on the 10k preset). Collapse to the equal-count
    // schedule — byte-identical by `scheduling_policies_are_byte_identical`.
    let scheduling = if ctx.workers() <= 1 {
        Scheduling::EqualCount
    } else {
        scheduling
    };
    let num_nodes = graph.num_profiles();

    // Cost hints: node degree + 1 (the +1 keeps isolated nodes advancing
    // the prefix). The counting-only degree pass is cheap relative to one
    // weighted materialization pass, and when the scorer reads degrees
    // (EJS, supervised) the same pass doubles as its global statistics —
    // computed once, used twice.
    let (scoring, costs) = match scheduling {
        Scheduling::CostMorsel => {
            let (degrees, num_edges) = degrees_parallel(ctx, graph);
            let costs: Vec<u64> = degrees.iter().map(|&d| u64::from(d) + 1).collect();
            (
                ScoringContext::with_degrees(
                    graph,
                    config.scorer,
                    config.use_entropy,
                    degrees,
                    num_edges,
                ),
                Some(costs),
            )
        }
        Scheduling::EqualCount => (config.scoring_context(graph), None),
    };
    let cnp_k = cnp_budget(config.pruning, graph);
    let pruning = config.pruning;

    // Broadcast the graph (no payload clone: the Arc is adopted) and the
    // scoring context to every task.
    let b_graph: Broadcast<BlockGraph> = ctx.broadcast(Arc::clone(graph));
    let b_scoring = ctx.broadcast(scoring);

    // Node datasets for the two passes: contiguous id ranges either way,
    // so concatenation order is node order under both policies.
    let make_nodes = || {
        let ids: Vec<u32> = (0..num_nodes as u32).collect();
        match &costs {
            Some(c) => ctx.parallelize_by_cost_default(ids, c),
            None => ctx.parallelize_default(ids),
        }
    };
    let grain = morsel_grain(num_nodes, ctx);

    // One reusable (neighborhood scratch, weights buffer) per worker slot,
    // shared by both passes: after warm-up the per-node loop allocates
    // nothing.
    let scratches = Arc::new(WorkerLocal::new(ctx.workers(), || {
        (graph.scratch(), Vec::<f64>::new())
    }));

    // Pass A: per-node statistics (+ forward edge weights for WEP/CEP).
    // Each task emits (stats, forward-weights) for its contiguous node run;
    // the driver concatenates in task order = node order, so the forward
    // record is ordered exactly as the sequential driver builds it.
    type PassA = (Vec<NodeStats>, ForwardWeights);
    let run_pass_a = |nodes: &[u32],
                      scratch: &mut crate::graph::NeighborhoodScratch,
                      weights: &mut Vec<f64>,
                      b_graph: &BlockGraph,
                      b_scoring: &ScoringContext|
     -> PassA {
        let mut stats_out = Vec::with_capacity(nodes.len());
        let mut forward = ForwardWeights::for_pruning(pruning);
        for &i in nodes {
            stats_out.push(node_pass_single(
                b_graph,
                ProfileId(i),
                b_scoring,
                cnp_k,
                &mut forward,
                scratch,
                weights,
            ));
        }
        (stats_out, forward)
    };
    let pass_a: Vec<PassA> = {
        let b_graph = b_graph.clone();
        let b_scoring = b_scoring.clone();
        let ds = make_nodes();
        match scheduling {
            Scheduling::CostMorsel => {
                let scratches = Arc::clone(&scratches);
                ds.map_morsels(grain, move |worker, nodes| {
                    scratches.with(worker, |(scratch, weights)| {
                        vec![run_pass_a(nodes, scratch, weights, &b_graph, &b_scoring)]
                    })
                })
            }
            Scheduling::EqualCount => ds.map_partitions(move |_, nodes| {
                let mut scratch = b_graph.scratch();
                let mut weights = Vec::new();
                vec![run_pass_a(
                    nodes,
                    &mut scratch,
                    &mut weights,
                    &b_graph,
                    &b_scoring,
                )]
            }),
        }
        .collect()
    };
    let mut node_stats = Vec::with_capacity(num_nodes);
    let mut forward = ForwardWeights::for_pruning(pruning);
    for (s, fw) in pass_a {
        node_stats.extend(s);
        forward.append(fw);
    }
    let rule = resolve_rule(pruning, graph, forward);

    // Pass B: re-materialize neighborhoods and retain edges.
    let b_node_stats = ctx.broadcast(node_stats);
    let b_rule = ctx.broadcast(rule);
    let retained_ds = {
        let b_graph_scratch = b_graph.clone();
        let b_graph = b_graph.clone();
        let b_scoring = b_scoring.clone();
        let b_node_stats = b_node_stats.clone();
        let b_rule = b_rule.clone();
        let run_pass_b = move |nodes: &[u32],
                               scratch: &mut crate::graph::NeighborhoodScratch|
              -> Vec<(Pair, f64)> {
            let mut out = Vec::new();
            for &i in nodes {
                let node = ProfileId(i);
                let blocks_node = b_graph.blocks_of(node).len();
                for &(j, ref acc) in b_graph.neighborhood_buffered(node, scratch) {
                    if node >= j {
                        continue;
                    }
                    let w = b_scoring.weigh(node, j, acc, blocks_node, b_graph.blocks_of(j).len());
                    if b_rule.keeps(w, &b_node_stats[i as usize], &b_node_stats[j.index()]) {
                        out.push((Pair::new(node, j), w));
                    }
                }
            }
            out
        };
        let ds = make_nodes();
        match scheduling {
            Scheduling::CostMorsel => {
                let scratches = Arc::clone(&scratches);
                ds.map_morsels(grain, move |worker, nodes| {
                    scratches.with(worker, |(scratch, _)| run_pass_b(nodes, scratch))
                })
            }
            Scheduling::EqualCount => ds.map_partitions(move |_, nodes| {
                let mut scratch = b_graph_scratch.scratch();
                run_pass_b(nodes, &mut scratch)
            }),
        }
    };
    // Nodes are range-partitioned in id order and each node emits only its
    // `node < j` edges sorted by j, so the concatenation is already sorted
    // by pair; the sort below is a cheap (pre-sorted) determinism guard.
    let mut retained = retained_ds.collect();
    retained.sort_by_key(|(a, _)| *a);
    retained
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
        let coll = noisy_collection(60);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(4);
        for scheme in WeightScheme::ALL {
            for pruning in ALL_PRUNINGS {
                let config = MetaBlockingConfig {
                    scorer: EdgeScorer::Classic(scheme),
                    pruning,
                    use_entropy: false,
                };
                let seq = meta_blocking_graph(&graph, &config);
                let par = meta_blocking(&ctx, &graph, &config);
                assert_eq!(seq, par, "{}+{} diverged", scheme.name(), pruning.name());
            }
        }
    }

    #[test]
    fn scheduling_policies_are_byte_identical() {
        // Cost-morsel scheduling must be a pure schedule change — on a
        // hub-skewed graph (where the partitionings genuinely differ) every
        // scheme × pruning gives the same bits under both policies.
        let coll = skewed_collection(80);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(4);
        for scheme in WeightScheme::ALL {
            for pruning in ALL_PRUNINGS {
                let config = MetaBlockingConfig {
                    scorer: EdgeScorer::Classic(scheme),
                    pruning,
                    use_entropy: false,
                };
                let eq = meta_blocking_scheduled(&ctx, &graph, &config, Scheduling::EqualCount);
                let cm = meta_blocking_scheduled(&ctx, &graph, &config, Scheduling::CostMorsel);
                assert_eq!(eq, cm, "{}+{} diverged", scheme.name(), pruning.name());
                assert_eq!(cm, meta_blocking_graph(&graph, &config));
            }
        }
    }

    #[test]
    fn worker_count_invariant() {
        let coll = noisy_collection(40);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let config = MetaBlockingConfig::default();
        for scheduling in [Scheduling::EqualCount, Scheduling::CostMorsel] {
            let base = meta_blocking_scheduled(&Context::new(1), &graph, &config, scheduling);
            for w in [2, 4, 8] {
                assert_eq!(
                    meta_blocking_scheduled(&Context::new(w), &graph, &config, scheduling),
                    base,
                    "{} diverged at {w} workers",
                    scheduling.name(),
                );
            }
        }
    }

    #[test]
    fn supervised_scorer_parallel_matches_sequential() {
        // A supervised model (which pulls degrees into the feature vector)
        // must agree with the sequential driver under every pruning,
        // scheduling and worker count, like the classic schemes do.
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
            for scheduling in [Scheduling::EqualCount, Scheduling::CostMorsel] {
                for w in [1, 2, 4] {
                    let par =
                        meta_blocking_scheduled(&Context::new(w), &graph, &config, scheduling);
                    assert_eq!(
                        par,
                        seq,
                        "supervised {}+{} diverged at {w} workers",
                        pruning.name(),
                        scheduling.name(),
                    );
                }
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
        assert!(snap.broadcasts >= 2, "graph + stats broadcast");
        // Both node-parallel passes run as morsel stages with per-worker
        // time accounting under the default scheduling.
        let passes: Vec<_> = snap
            .stages
            .iter()
            .filter(|s| s.name == "map_morsels")
            .collect();
        assert!(passes.len() >= 2, "pass A + pass B are engine stages");
        assert!(passes.iter().all(|s| s.tasks > 0));
        assert!(passes.iter().all(|s| !s.per_worker_busy.is_empty()));
        assert!(snap.total_busy_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn cost_morsel_runs_more_tasks_than_partitions() {
        // Morsel execution splits each cost-balanced partition into many
        // claimable tasks: on a graph larger than workers × 32 the pass
        // stages must record strictly more tasks than the partition count.
        let coll = noisy_collection(200);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        meta_blocking(&ctx, &graph, &MetaBlockingConfig::default());
        let snap = ctx.metrics();
        let morsel_tasks: usize = snap
            .stages
            .iter()
            .filter(|s| s.name == "map_morsels")
            .map(|s| s.tasks)
            .max()
            .unwrap_or(0);
        assert!(
            morsel_tasks > ctx.default_partitions(),
            "expected > {} tasks, got {morsel_tasks}",
            ctx.default_partitions(),
        );
    }

    #[test]
    fn empty_graph_parallel() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, vec![]);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        for scheduling in [Scheduling::EqualCount, Scheduling::CostMorsel] {
            assert!(meta_blocking_scheduled(
                &ctx,
                &graph,
                &MetaBlockingConfig::default(),
                scheduling
            )
            .is_empty());
        }
    }
}
