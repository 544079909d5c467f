//! The parallel node pass: a pruning plan that emits pairs range by range.
//!
//! The fused pipeline wants pruned pairs *as they are produced*, one
//! contiguous node range at a time, so the matcher can score range `k`
//! while range `k+1` is still pruning. [`StreamingMetaBlocking`] is that
//! seam: `prepare` runs everything global (pass A statistics, rule
//! resolution) on the worker pool, and
//! [`StreamingMetaBlocking::prune_range`] then emits the retained pairs of
//! any node range independently — a pure function of the range, safe to
//! call concurrently from pool workers in any order. The staged
//! [`crate::parallel::meta_blocking`] is the same plan with the ranges
//! concatenated instead of streamed.
//!
//! ## Parity with the sequential oracle
//!
//! `prepare` reuses the building blocks of [`crate::meta_blocking_graph`] —
//! `node_stats_of` for the node-centric rules, the same per-node forward
//! weight record (same order, same f64 summation sequence) for the global
//! rules, the same `resolve_rule` — so concatenating `prune_range` over a
//! disjoint ascending cover of `0..num_profiles` is byte-identical to its
//! output (pinned by tests here and in the core parity matrix).
//!
//! The oracle walks with the naive [`BlockGraph::neighborhood`] (every
//! `(neighbour, block)` hit listed, sorted and folded); this plan walks
//! with [`BlockGraph::walk`] — `u32` shared-block counts, the ARCS /
//! entropy sums only for scorers that read them, and a dense sweep or the
//! bitmap per node by density — whose counts and sums are bit-identical to
//! the naive walk's. Only the node-centric pass A walks full
//! neighborhoods; the global rules' pass A and every pass B walk forward
//! (each edge from its lower endpoint only), so weights, the WEP/CEP
//! threshold and the retained pairs do not move. Each
//! range's emissions are already sorted by pair: nodes ascend and forward
//! neighbors come out in ascending id order, so the emissions of
//! consecutive nodes concatenate sorted — which is what lets the fused
//! matcher feed its shards straight into
//! `SimilarityGraph::from_sorted_shards` without a global re-sort.

use crate::graph::{BlockGraph, EdgeAccumulator, Neighbors, NodePassScratch};
use crate::parallel::{degrees_parallel, morsel_grain};
use crate::pruning::{
    cnp_budget, node_stats_of, resolve_rule, ForwardWeights, MetaBlockingConfig, NodeStats,
    RetentionRule,
};
use crate::scorer::{ScoringContext, WeighVisitor};
use sparker_dataflow::{Broadcast, Context, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::ops::Range;
use std::sync::Arc;

/// A prepared, immutable pruning plan: everything meta-blocking computes
/// *before* the per-edge retention decisions, packaged so pruned pairs
/// can be emitted range by range (see the module docs).
pub struct StreamingMetaBlocking {
    graph: Arc<BlockGraph>,
    scoring: ScoringContext,
    /// Per-node retention statistics; empty for the global-threshold rules
    /// (WEP/CEP), whose [`RetentionRule::keeps`] ignores them.
    node_stats: Vec<NodeStats>,
    rule: RetentionRule,
    /// Forward degree of every node (neighbors with a larger id), observed
    /// during pass A: exactly the edges pass B weighs for that node, so
    /// the cost hint of the degree-cost morsel cuts.
    degrees: Vec<u32>,
}

/// Most forward edges one pruning morsel may hold (a single node may hold
/// more): its batch is then at most 16 Ki pairs of 16 bytes.
const MORSEL_PAIRS: u64 = 16 * 1024;

/// The morsel planner behind [`StreamingMetaBlocking::cost_morsels`] over
/// per-node forward `degrees`. A range closes once its cost (Σ degree + 1)
/// reaches an equal share of the total, or when the nodes left are only
/// just enough for one range each of the `min(target, n)` owed; a node
/// whose forward edges would carry the open range past `cap` starts a
/// new one.
pub(crate) fn plan(degrees: &[u32], target: usize, cap: u64) -> Vec<Range<u32>> {
    let n = degrees.len();
    if n == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, n);
    let total: u64 = degrees.iter().map(|&d| u64::from(d) + 1).sum();
    let per_task = (total / target as u64).max(1);
    let mut cuts = Vec::new();
    let mut start = 0;
    let (mut cost, mut edges) = (0u64, 0u64);
    for (i, &degree) in degrees.iter().enumerate() {
        let degree = u64::from(degree);
        if i > start && edges + degree > cap {
            cuts.push(start as u32..i as u32);
            start = i;
            (cost, edges) = (0, 0);
        }
        cost += degree + 1;
        edges += degree;
        let owed = target.saturating_sub(cuts.len() + 1);
        if cost >= per_task || n - 1 - i <= owed {
            cuts.push(start as u32..i as u32 + 1);
            start = i + 1;
            (cost, edges) = (0, 0);
        }
    }
    cuts
}

/// What one pool worker holds during pass A.
enum PassAScratch {
    /// WEP under CBS without entropy: only the epoch-marked `seen` array of
    /// the degree-only forward walk.
    Degrees(Vec<u32>),
    /// Every other configuration: the node-pass scratch and a reusable
    /// weight buffer.
    Weigh(NodePassScratch, Vec<f64>),
}

impl StreamingMetaBlocking {
    /// Run pass A (per-node statistics and/or the forward weight record)
    /// on the context's worker pool and resolve the retention rule.
    ///
    /// Pass A comes in three shapes, fixed per run:
    ///
    /// * **WEP under CBS without entropy weighs nothing.** A node's forward
    ///   edges weigh their shared-block counts, so its `(Σw, |E|)` is its
    ///   forward comparisons and forward degree, which the degree-only
    ///   [`BlockGraph::forward_degree`] gives. Integer weights below 2⁵³
    ///   sum exactly in f64 in any order, so the threshold is bit-identical
    ///   to weighing every edge.
    /// * **The other global rules** (WEP, CEP) walk only the forward
    ///   neighborhood and weigh its edges — recorded per node like the
    ///   sequential pass records them, preserving f64 summation order.
    /// * **The node-centric rules** walk the full neighborhood and fold
    ///   mean/max/k-th per node, as the sequential pass does.
    ///
    /// The walks count shared blocks in `u32` and accumulate the ARCS and
    /// entropy sums only when the scorer reads them.
    pub fn prepare(ctx: &Context, graph: &Arc<BlockGraph>, config: &MetaBlockingConfig) -> Self {
        let num_nodes = graph.num_profiles();
        let cnp_k = cnp_budget(config.pruning, graph);
        let pruning = config.pruning;
        let needs_global = !ForwardWeights::for_pruning(pruning).is_unused();

        // Scorers that read node degrees (EJS, supervised) need them
        // *before* pass A can weight anything; compute them node-parallel.
        // Every other scorer gets degrees for free out of pass A itself.
        let scoring = if config.scorer.needs_degrees() {
            let (degrees, num_edges) = degrees_parallel(ctx, graph);
            ScoringContext::with_degrees(
                graph,
                config.scorer,
                config.use_entropy,
                degrees,
                num_edges,
            )
        } else {
            config.scoring_context(graph)
        };

        if num_nodes == 0 {
            let rule = resolve_rule(pruning, graph, ForwardWeights::for_pruning(pruning));
            return StreamingMetaBlocking {
                graph: Arc::clone(graph),
                scoring,
                node_stats: Vec::new(),
                rule,
                degrees: Vec::new(),
            };
        }

        let count_only_wep = matches!(
            ForwardWeights::for_pruning(pruning),
            ForwardWeights::NodeSums(_)
        ) && scoring.weighs_shared_counts();
        let sums = scoring.reads_sums();
        let b_graph: Broadcast<BlockGraph> = ctx.broadcast(Arc::clone(graph));
        let b_scoring = ctx.broadcast(scoring.clone());
        let scratches = Arc::new(WorkerLocal::new(ctx.workers(), || {
            if count_only_wep {
                PassAScratch::Degrees(vec![u32::MAX; num_nodes])
            } else {
                PassAScratch::Weigh(graph.node_scratch(sums), Vec::new())
            }
        }));
        let grain = morsel_grain(num_nodes, ctx);
        let ids: Vec<u32> = (0..num_nodes as u32).collect();

        // (node stats, forward weights, degrees) per morsel, concatenated
        // in node order — dynamic morsel claiming absorbs degree skew
        // without a separate cost-hint pass.
        type PassA = (Vec<NodeStats>, ForwardWeights, Vec<u32>);
        let pass_a: Vec<PassA> = {
            let scratches = Arc::clone(&scratches);
            ctx.parallelize_default(ids)
                .map_morsels_named("prune_pass_a", grain, move |worker, nodes| {
                    scratches.with(worker, |local| {
                        let mut stats_out = Vec::new();
                        let mut forward = ForwardWeights::for_pruning(pruning);
                        let mut degs = Vec::with_capacity(nodes.len());
                        for &i in nodes {
                            let node = ProfileId(i);
                            match local {
                                PassAScratch::Degrees(seen) => {
                                    let (degree, comparisons) = b_graph.forward_degree(node, seen);
                                    forward.record_sum(comparisons as f64, u64::from(degree));
                                    degs.push(degree);
                                }
                                PassAScratch::Weigh(scratch, weights) if needs_global => {
                                    let blocks_node = b_graph.block_count(node);
                                    let neighborhood = b_graph.walk(node, scratch, true);
                                    degs.push(neighborhood.len() as u32);
                                    weights.clear();
                                    weights.extend(neighborhood.iter().map(|(j, acc)| {
                                        let blocks_j = b_graph.block_count(j);
                                        b_scoring.weigh(node, j, &acc, blocks_node, blocks_j)
                                    }));
                                    forward.record_node(weights);
                                }
                                PassAScratch::Weigh(scratch, weights) => {
                                    let neighborhood = b_graph.walk(node, scratch, false);
                                    let ids = neighborhood.counts();
                                    degs.push(
                                        (ids.len() - ids.partition_point(|&(j, _)| j < node))
                                            as u32,
                                    );
                                    stats_out.push(node_stats_of(
                                        &b_graph,
                                        node,
                                        &b_scoring,
                                        cnp_k,
                                        &mut forward,
                                        neighborhood.iter(),
                                        weights,
                                    ));
                                }
                            }
                        }
                        vec![(stats_out, forward, degs)]
                    })
                })
                .collect()
        };

        let mut node_stats = Vec::with_capacity(if needs_global { 0 } else { num_nodes });
        let mut forward = ForwardWeights::for_pruning(pruning);
        let mut degrees = Vec::with_capacity(num_nodes);
        for (s, fw, d) in pass_a {
            node_stats.extend(s);
            forward.append(fw);
            degrees.extend(d);
        }
        let rule = resolve_rule(pruning, graph, forward);

        StreamingMetaBlocking {
            graph: Arc::clone(graph),
            scoring,
            node_stats,
            rule,
            degrees,
        }
    }

    /// Number of nodes in the underlying blocking graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_profiles()
    }

    /// Edges of the blocking graph whose lower endpoint lies in `nodes`
    /// (Σ forward degree, each edge counted once) — an upper bound on the
    /// pairs [`StreamingMetaBlocking::prune_range`] emits for `nodes`. Over
    /// `0..num_nodes` it is the graph's edge count; over a morsel of
    /// [`StreamingMetaBlocking::cost_morsels`] it is at most 16 Ki unless
    /// the morsel is a single node, which is what the fused driver sizes
    /// its channel payloads by. Panics if `nodes` reaches past
    /// `num_nodes`.
    pub fn total_edges(&self, nodes: Range<u32>) -> u64 {
        self.degrees[nodes.start as usize..nodes.end as usize]
            .iter()
            .map(|&d| u64::from(d))
            .sum()
    }

    /// A reusable node-pass scratch for
    /// [`StreamingMetaBlocking::prune_range`], with the ARCS / entropy sums
    /// only when the scorer reads them.
    pub fn make_scratch(&self) -> NodePassScratch {
        self.graph.node_scratch(self.scoring.reads_sums())
    }

    /// Cut `0..num_nodes` into contiguous ranges of roughly equal pass-B
    /// cost (forward degree + 1 per node, so nodes without forward edges
    /// still advance), at least `min(target_tasks, num_nodes)` of them, and
    /// none holding more than 16 Ki forward edges unless it is a single
    /// node. Forward degree bounds the pairs pass B emits, so a
    /// morsel's batch is at most 16 Ki pairs (256 KiB) however large the
    /// graph: on a dense graph the cap, not `target_tasks`, sets the morsel
    /// count. Boundaries are schedule-only: concatenating
    /// [`StreamingMetaBlocking::prune_range`] over any disjoint ascending
    /// cover yields the same pairs.
    pub fn cost_morsels(&self, target_tasks: usize) -> Vec<Range<u32>> {
        plan(&self.degrees, target_tasks, MORSEL_PAIRS)
    }

    /// Emit the retained pairs of a contiguous node range: walk each
    /// node's forward (`node < j`) neighborhood, weight its edges and
    /// apply the resolved retention rule — pass B, scoped to `range`. Node
    /// statistics were resolved in pass A, so no rule needs the backward
    /// half. Output is sorted by pair (see the module docs); disjoint
    /// ranges are independent, so fused producers call this concurrently.
    pub fn prune_range(
        &self,
        range: Range<u32>,
        scratch: &mut NodePassScratch,
    ) -> Vec<(Pair, f64)> {
        let mut out = Vec::new();
        self.prune_range_into(range, scratch, &mut out);
        out
    }

    /// [`StreamingMetaBlocking::prune_range`] into a caller-owned buffer:
    /// `out` is cleared, then filled with the range's retained pairs. Its
    /// allocation is kept, so a fused producer that recycles one buffer
    /// per in-flight batch stops allocating once the buffers have grown.
    pub fn prune_range_into(
        &self,
        range: Range<u32>,
        scratch: &mut NodePassScratch,
        out: &mut Vec<(Pair, f64)>,
    ) {
        assert!(
            scratch.has_sums() || !self.scoring.reads_sums(),
            "a count-only scratch cannot weigh with {}",
            self.scoring.scorer().name()
        );
        out.clear();
        for i in range {
            let node = ProfileId(i);
            let edges = self.graph.walk(node, scratch, true);
            if !edges.is_empty() {
                self.scoring.resolve(KeepEdges {
                    plan: self,
                    node,
                    edges,
                    out: &mut *out,
                });
            }
        }
    }
}

/// Pass B for one node: its forward edges, decided with the scorer (the
/// visit) and the retention rule (matched once in `visit`) resolved for
/// the whole node. Each arm computes exactly [`RetentionRule::keeps`].
struct KeepEdges<'a, 's> {
    plan: &'a StreamingMetaBlocking,
    node: ProfileId,
    edges: Neighbors<'s>,
    out: &'a mut Vec<(Pair, f64)>,
}

impl KeepEdges<'_, '_> {
    /// Push every edge whose weight passes `keeps(w, j)`. Branch-free:
    /// every edge is written at the next free slot and the slot is kept
    /// iff the edge is, so an unpredictable keep costs no mispredict.
    fn emit<W, K>(self, weigh: W, keeps: K)
    where
        W: Fn(ProfileId, ProfileId, &EdgeAccumulator, usize, usize) -> f64,
        K: Fn(f64, ProfileId) -> bool,
    {
        let graph = &self.plan.graph;
        let (node, blocks_node) = (self.node, graph.block_count(self.node));
        let base = self.out.len();
        let placeholder = (
            Pair {
                first: node,
                second: node,
            },
            0.0,
        );
        self.out.resize(base + self.edges.len(), placeholder);
        let slots = &mut self.out[base..];
        let mut kept = 0;
        for (j, acc) in self.edges.iter() {
            let w = weigh(node, j, &acc, blocks_node, graph.block_count(j));
            // Forward edges: `node < j`, already the normalized order.
            slots[kept] = (
                Pair {
                    first: node,
                    second: j,
                },
                w,
            );
            kept += usize::from(keeps(w, j));
        }
        self.out.truncate(base + kept);
    }
}

impl WeighVisitor for KeepEdges<'_, '_> {
    type Output = ();

    fn visit<W>(self, weigh: W)
    where
        W: Fn(ProfileId, ProfileId, &EdgeAccumulator, usize, usize) -> f64,
    {
        let stats = &self.plan.node_stats;
        let either = |reciprocal: bool, ka: bool, kb: bool| {
            if reciprocal {
                ka & kb
            } else {
                ka | kb
            }
        };
        match self.plan.rule {
            RetentionRule::GlobalThreshold(t) => self.emit(weigh, |w, _| w >= t),
            RetentionRule::NodeMean { factor, reciprocal } => {
                let ta = factor * stats[self.node.index()].mean;
                self.emit(weigh, |w, j| {
                    either(reciprocal, w >= ta, w >= factor * stats[j.index()].mean)
                })
            }
            RetentionRule::NodeKth { reciprocal } => {
                let ta = stats[self.node.index()].kth;
                self.emit(weigh, |w, j| {
                    either(reciprocal, w >= ta, w >= stats[j.index()].kth)
                })
            }
            RetentionRule::BlastMaxima { ratio } => {
                let max_a = stats[self.node.index()].max;
                self.emit(weigh, |w, j| {
                    w >= ratio * (max_a + stats[j.index()].max) / 2.0
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::BlockEntropies;
    use crate::parallel;
    use crate::pruning::{meta_blocking_graph, PruningStrategy};
    use crate::scorer::EdgeScorer;
    use crate::weights::WeightScheme;
    use sparker_blocking::token_blocking;
    use sparker_dataflow::Context;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

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
    fn streamed_ranges_match_staged_for_all_configs() {
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
                let staged = meta_blocking_graph(&graph, &config);
                let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
                // Whole-graph emission…
                assert_eq!(
                    parallel::meta_blocking(&Context::new(1), &graph, &config),
                    staged,
                    "{}+{} whole-graph emission diverged",
                    scheme.name(),
                    pruning.name()
                );
                // …and any disjoint ascending cover concatenates to it.
                let mut scratch = stream.make_scratch();
                let streamed: Vec<_> = stream
                    .cost_morsels(7)
                    .into_iter()
                    .flat_map(|r| stream.prune_range(r, &mut scratch))
                    .collect();
                assert_eq!(
                    streamed,
                    staged,
                    "{}+{} morsel cover diverged",
                    scheme.name(),
                    pruning.name()
                );
            }
        }
    }

    #[test]
    fn wep_threshold_from_node_sums_matches_pooled_mean() {
        // WEP folds one (Σw, |E|) per node instead of pooling every forward
        // weight. CBS weights are integers, so its mean is bit-identical to
        // the pooled one; the float schemes may round the sum differently,
        // and whatever threshold results, every driver — at every morsel
        // cut — must arrive at the same bits and the same retained edges.
        use crate::pruning::node_stats_pass;
        let coll = skewed_collection(150);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        for scheme in WeightScheme::ALL {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Classic(scheme),
                pruning: PruningStrategy::Wep { factor: 1.0 },
                use_entropy: false,
            };
            let scoring = config.scoring_context(&graph);
            let mut pool = Vec::new();
            for i in 0..graph.num_profiles() as u32 {
                let node = ProfileId(i);
                let blocks_node = graph.blocks_of(node).len();
                for (j, acc) in graph.neighborhood(node) {
                    if node < j {
                        pool.push(scoring.weigh(
                            node,
                            j,
                            &acc,
                            blocks_node,
                            graph.blocks_of(j).len(),
                        ));
                    }
                }
            }
            let pooled = pool.iter().sum::<f64>() / pool.len() as f64;

            let (_, forward) = node_stats_pass(
                &graph,
                &scoring,
                1,
                ForwardWeights::for_pruning(config.pruning),
            );
            let RetentionRule::GlobalThreshold(threshold) =
                resolve_rule(config.pruning, &graph, forward)
            else {
                panic!("WEP resolves to a global threshold");
            };
            if scheme == WeightScheme::Cbs {
                assert_eq!(threshold.to_bits(), pooled.to_bits(), "CBS mean moved");
            } else {
                assert!(
                    (threshold - pooled).abs() <= 1e-12 * pooled,
                    "{}: {threshold} vs pooled {pooled}",
                    scheme.name()
                );
            }

            let staged = meta_blocking_graph(&graph, &config);
            for workers in [1, 2, 4] {
                let ctx = Context::new(workers);
                let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
                let RetentionRule::GlobalThreshold(streamed) = stream.rule else {
                    panic!("WEP resolves to a global threshold");
                };
                assert_eq!(
                    streamed.to_bits(),
                    threshold.to_bits(),
                    "{} at {workers} workers",
                    scheme.name()
                );
                assert_eq!(parallel::meta_blocking(&ctx, &graph, &config), staged);
            }
        }
    }

    #[test]
    fn integer_wep_pass_a_equals_the_weighed_pass_a() {
        // WEP under CBS without entropy takes (Σw, |E|) per node from the
        // degree-only walk; the oracle weighs every edge. The threshold
        // bits must agree — on an empty graph, on a graph whose every edge
        // weighs 1, on hub-skewed dirty graphs and on clean–clean.
        use crate::pruning::node_stats_pass;
        use sparker_blocking::{Block, BlockCollection};
        use sparker_profiles::ErKind;
        let ids = |v: &[u32]| v.iter().map(|&i| ProfileId(i)).collect::<Vec<_>>();
        let unit_weights = BlockCollection::new(
            ErKind::Dirty,
            vec![
                Block::dirty("a", ids(&[0, 1])),
                Block::dirty("b", ids(&[2, 3, 4])),
                Block::dirty("c", ids(&[5, 7])),
            ],
        );
        let clean = token_blocking(&ProfileCollection::clean_clean(
            skewed_collection(30).profiles().to_vec(),
            skewed_collection(25).profiles().to_vec(),
        ));
        let graphs = [
            BlockCollection::new(ErKind::Dirty, Vec::new()),
            unit_weights,
            token_blocking(&skewed_collection(120)),
            clean,
        ];
        let ctx = Context::new(2);
        for blocks in graphs {
            let graph = Arc::new(BlockGraph::new(&blocks, None));
            for factor in [1.0, 0.5, 1.7] {
                let config = MetaBlockingConfig {
                    pruning: PruningStrategy::Wep { factor },
                    ..MetaBlockingConfig::default()
                };
                let (_, weighed) = node_stats_pass(
                    &graph,
                    &config.scoring_context(&graph),
                    1,
                    ForwardWeights::for_pruning(config.pruning),
                );
                let RetentionRule::GlobalThreshold(expected) =
                    resolve_rule(config.pruning, &graph, weighed)
                else {
                    panic!("WEP resolves to a global threshold");
                };
                let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
                let RetentionRule::GlobalThreshold(got) = stream.rule else {
                    panic!("WEP resolves to a global threshold");
                };
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{:?} ×{factor}",
                    blocks.kind()
                );
                assert_eq!(
                    parallel::meta_blocking(&Context::new(1), &graph, &config),
                    meta_blocking_graph(&graph, &config)
                );
            }
        }
    }

    #[test]
    fn streamed_matches_staged_with_entropy() {
        let coll = skewed_collection(60);
        let blocks = token_blocking(&coll);
        let entropies = BlockEntropies::new(
            (0..blocks.len())
                .map(|b| 0.1 + (b % 5) as f64 * 0.3)
                .collect(),
        );
        let graph = Arc::new(BlockGraph::new(&blocks, Some(&entropies)));
        let ctx = Context::new(2);
        let config = MetaBlockingConfig::blast();
        let staged = meta_blocking_graph(&graph, &config);
        assert_eq!(parallel::meta_blocking(&ctx, &graph, &config), staged);
    }

    #[test]
    fn streamed_matches_staged_with_supervised_scorer() {
        let coll = skewed_collection(60);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(3);
        let mut model = crate::LinearModel::zero();
        model.weights[0] = 0.6; // shared blocks
        model.weights[4] = 1.5; // dice
        model.bias = -0.5;
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                scorer: EdgeScorer::Supervised(model),
                pruning,
                use_entropy: false,
            };
            let staged = meta_blocking_graph(&graph, &config);
            assert_eq!(
                parallel::meta_blocking(&ctx, &graph, &config),
                staged,
                "supervised {} diverged",
                pruning.name()
            );
        }
    }

    #[test]
    fn prepare_is_worker_count_invariant() {
        let coll = skewed_collection(50);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let config = MetaBlockingConfig::default();
        let base = parallel::meta_blocking(&Context::new(1), &graph, &config);
        for w in [2, 4, 8] {
            let got = parallel::meta_blocking(&Context::new(w), &graph, &config);
            assert_eq!(got, base, "diverged at {w} workers");
        }
    }

    #[test]
    fn range_emissions_are_sorted_by_pair() {
        let coll = skewed_collection(70);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        let mut scratch = stream.make_scratch();
        let mut last = None;
        for range in stream.cost_morsels(5) {
            for (p, _) in stream.prune_range(range, &mut scratch) {
                assert!(last.is_none_or(|prev| prev < p), "pairs not ascending");
                last = Some(p);
            }
        }
        assert!(last.is_some(), "expected at least one retained pair");
    }

    #[test]
    fn prune_range_into_overwrites_a_recycled_buffer() {
        // One buffer through every range, largest first: whatever a range
        // left behind, the next fill holds exactly its own pairs.
        let coll = skewed_collection(70);
        let graph = Arc::new(BlockGraph::new(&token_blocking(&coll), None));
        let stream = StreamingMetaBlocking::prepare(
            &Context::new(2),
            &graph,
            &MetaBlockingConfig::default(),
        );
        let mut scratch = stream.make_scratch();
        let mut ranges = stream.cost_morsels(7);
        ranges
            .sort_by_key(|r| std::cmp::Reverse(stream.prune_range(r.clone(), &mut scratch).len()));
        let mut buffer = vec![(Pair::new(ProfileId(0), ProfileId(1)), -1.0); 3];
        for range in ranges {
            stream.prune_range_into(range.clone(), &mut scratch, &mut buffer);
            assert_eq!(buffer, stream.prune_range(range, &mut scratch));
        }
    }

    #[test]
    fn pass_a_records_forward_degrees_for_every_rule() {
        // Pass A's cost hints are the forward degrees whichever pass A ran
        // (forward walk for WEP/CEP, full walk for the node-centric rules),
        // so `total_edges` is the graph's exact edge count.
        let coll = skewed_collection(90);
        let graph = Arc::new(BlockGraph::new(&token_blocking(&coll), None));
        let (_, edges) = graph.degrees();
        let forward: Vec<u32> = (0..graph.num_profiles() as u32)
            .map(|i| {
                let node = ProfileId(i);
                let n = graph.neighborhood(node);
                n.iter().filter(|&&(j, _)| j > node).count() as u32
            })
            .collect();
        let ctx = Context::new(2);
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                pruning,
                ..MetaBlockingConfig::default()
            };
            let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
            assert_eq!(stream.degrees, forward, "{}", pruning.name());
            let n = stream.num_nodes() as u32;
            assert_eq!(stream.total_edges(0..n), edges, "{}", pruning.name());
        }
    }

    #[test]
    fn cost_morsels_cover_all_nodes_exactly_once() {
        let coll = skewed_collection(90);
        let blocks = token_blocking(&coll);
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        for target in [1, 3, 16, 1000] {
            let morsels = stream.cost_morsels(target);
            let mut expect = 0u32;
            for r in &morsels {
                assert_eq!(r.start, expect, "gap or overlap at target {target}");
                assert!(r.end > r.start);
                expect = r.end;
            }
            assert_eq!(expect, stream.num_nodes() as u32);
        }
    }

    #[test]
    fn empty_graph_streams_nothing() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, Vec::new());
        let graph = Arc::new(BlockGraph::new(&blocks, None));
        let ctx = Context::new(2);
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &MetaBlockingConfig::default());
        assert!(parallel::meta_blocking(&ctx, &graph, &MetaBlockingConfig::default()).is_empty());
        assert!(stream.cost_morsels(4).is_empty());
        assert_eq!(stream.total_edges(0..0), 0);
    }

    #[test]
    fn the_pair_cap_cuts_before_the_node_that_would_cross_it() {
        // Costs 4, 4, 4, 4 split evenly at target 2; a cap of 5 forward
        // edges cuts before each node that would carry its range past 5,
        // and a node over the cap on its own still gets a range.
        assert_eq!(plan(&[3, 3, 3, 3], 2, u64::MAX), vec![0..2, 2..4]);
        assert_eq!(plan(&[3, 3, 3, 3], 2, 5), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(plan(&[2, 3, 9, 0, 1], 1, 5), vec![0..2, 2..3, 3..5]);
        // At least min(target, n) ranges, whatever the skew.
        assert_eq!(plan(&[100, 0, 0], 3, u64::MAX), vec![0..1, 1..2, 2..3]);
        assert_eq!(plan(&[1, 1], 8, u64::MAX), vec![0..1, 1..2]);
    }

    proptest::proptest! {
        /// Every plan covers each node exactly once in ascending ranges,
        /// has at least `min(target, n)` of them, and no range holds more
        /// than `cap` forward edges unless it is a single node.
        #[test]
        fn plans_cover_every_node_and_respect_the_pair_cap(
            degrees in proptest::collection::vec(
                proptest::prop_oneof![0u32..4, 0u32..40, 100u32..200],
                0..300,
            ),
            target in 0usize..80,
            cap in 0u64..120,
        ) {
            let morsels = plan(&degrees, target, cap);
            let mut expect = 0u32;
            for r in &morsels {
                proptest::prop_assert_eq!(r.start, expect);
                proptest::prop_assert!(r.end > r.start);
                expect = r.end;
                let edges: u64 = degrees[r.start as usize..r.end as usize]
                    .iter()
                    .map(|&d| u64::from(d))
                    .sum();
                proptest::prop_assert!(
                    edges <= cap || r.len() == 1,
                    "{r:?} holds {edges} forward edges over a cap of {cap}"
                );
            }
            proptest::prop_assert_eq!(expect as usize, degrees.len());
            proptest::prop_assert!(morsels.len() >= target.min(degrees.len()));
        }
    }
}
