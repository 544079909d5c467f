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
//! `node_pass_single` for the node-centric rules, the same per-node
//! forward weight record (same order, same f64 summation sequence) for
//! the global rules, the same `resolve_rule` — so concatenating
//! `prune_range` over a disjoint ascending cover of `0..num_profiles` is
//! byte-identical to its output (pinned by tests here and in the core
//! parity matrix).
//!
//! Only the oracle and the node-centric pass A walk full neighborhoods.
//! The global rules' pass A and every pass B walk
//! [`BlockGraph::forward_neighborhood`] — each edge from its lower
//! endpoint only, half the accumulations — whose accumulators are
//! bit-identical to the `node < j` suffix of the full walk, so weights,
//! the WEP/CEP threshold and the retained pairs do not move. Each
//! range's emissions are already sorted by pair: nodes ascend and forward
//! neighbors come out in ascending id order, so the emissions of
//! consecutive nodes concatenate sorted — which is what lets the fused
//! matcher feed its shards straight into
//! `SimilarityGraph::from_sorted_shards` without a global re-sort.

use crate::graph::{BlockGraph, NeighborhoodScratch};
use crate::parallel::{degrees_parallel, morsel_grain};
use crate::pruning::{
    cnp_budget, node_pass_single, resolve_rule, ForwardWeights, MetaBlockingConfig, NodeStats,
    RetentionRule,
};
use crate::scorer::ScoringContext;
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

impl StreamingMetaBlocking {
    /// Run pass A (per-node statistics and/or the forward weight record)
    /// on the context's worker pool and resolve the retention rule.
    ///
    /// The global rules (WEP/CEP) never read `NodeStats`, so their pass
    /// A is specialized: it walks only the forward neighborhood and
    /// weighs only the forward (`node < j`) edges — recorded per node like
    /// the sequential pass records them, preserving f64 summation order —
    /// and skips the mean/max/k-th folding entirely, halving pass-A
    /// accumulations and weight computes.
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

        let b_graph: Broadcast<BlockGraph> = ctx.broadcast(Arc::clone(graph));
        let b_scoring = ctx.broadcast(scoring.clone());
        let scratches = Arc::new(WorkerLocal::new(ctx.workers(), || {
            (graph.scratch(), Vec::<f64>::new())
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
                    scratches.with(worker, |(scratch, weights)| {
                        let mut stats_out = Vec::new();
                        let mut forward = ForwardWeights::for_pruning(pruning);
                        let mut degs = Vec::with_capacity(nodes.len());
                        for &i in nodes {
                            let node = ProfileId(i);
                            if needs_global {
                                // Global rule: forward weights only.
                                let blocks_node = b_graph.blocks_of(node).len();
                                let neighborhood = b_graph.forward_neighborhood(node, scratch);
                                degs.push(neighborhood.len() as u32);
                                weights.clear();
                                weights.extend(neighborhood.iter().map(|(j, acc)| {
                                    let blocks_j = b_graph.blocks_of(*j).len();
                                    b_scoring.weigh(node, *j, acc, blocks_node, blocks_j)
                                }));
                                forward.record_node(weights);
                            } else {
                                stats_out.push(node_pass_single(
                                    &b_graph,
                                    node,
                                    &b_scoring,
                                    cnp_k,
                                    &mut forward,
                                    scratch,
                                    weights,
                                ));
                                degs.push(scratch.last_forward_degree(node) as u32);
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

    /// Total edges of the blocking graph (Σ forward degree, each edge
    /// counted once) — an upper bound on emitted pairs, used to size fused
    /// channel payloads.
    pub fn total_edges(&self) -> u64 {
        self.degrees.iter().map(|&d| u64::from(d)).sum()
    }

    /// A reusable neighborhood buffer for [`StreamingMetaBlocking::prune_range`].
    pub fn make_scratch(&self) -> NeighborhoodScratch {
        self.graph.scratch()
    }

    /// Cut `0..num_nodes` into contiguous ranges of roughly equal pass-B
    /// cost (forward degree + 1 per node, so nodes without forward edges
    /// still advance), about
    /// `target_tasks` of them. Boundaries are schedule-only: concatenating
    /// [`StreamingMetaBlocking::prune_range`] over any disjoint ascending
    /// cover yields the same pairs.
    pub fn cost_morsels(&self, target_tasks: usize) -> Vec<Range<u32>> {
        let n = self.num_nodes() as u32;
        if n == 0 {
            return Vec::new();
        }
        let total: u64 = self.degrees.iter().map(|&d| u64::from(d) + 1).sum();
        let per_task = (total / target_tasks.max(1) as u64).max(1);
        let mut cuts = Vec::new();
        let mut start = 0u32;
        let mut acc = 0u64;
        for i in 0..n {
            acc += u64::from(self.degrees[i as usize]) + 1;
            if acc >= per_task {
                cuts.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < n {
            cuts.push(start..n);
        }
        cuts
    }

    /// Emit the retained pairs of a contiguous node range: materialize
    /// each node's forward (`node < j`) neighborhood, weight its edges and
    /// apply the resolved retention rule — pass B, scoped to `range`. Node
    /// statistics were resolved in pass A, so no rule needs the backward
    /// half. Output is sorted by pair (see the module docs); disjoint
    /// ranges are independent, so fused producers call this concurrently.
    pub fn prune_range(
        &self,
        range: Range<u32>,
        scratch: &mut NeighborhoodScratch,
    ) -> Vec<(Pair, f64)> {
        let default_stats = NodeStats::default();
        let mut out = Vec::new();
        for i in range {
            let node = ProfileId(i);
            let blocks_node = self.graph.blocks_of(node).len();
            for &(j, ref acc) in self.graph.forward_neighborhood(node, scratch) {
                let w =
                    self.scoring
                        .weigh(node, j, acc, blocks_node, self.graph.blocks_of(j).len());
                let (sa, sb) = if self.node_stats.is_empty() {
                    (&default_stats, &default_stats)
                } else {
                    (&self.node_stats[i as usize], &self.node_stats[j.index()])
                };
                if self.rule.keeps(w, sa, sb) {
                    out.push((Pair::new(node, j), w));
                }
            }
        }
        out
    }

    /// Prune every node sequentially, as one range.
    pub fn prune_all(&self) -> Vec<(Pair, f64)> {
        let mut scratch = self.make_scratch();
        self.prune_range(0..self.num_nodes() as u32, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::BlockEntropies;
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
                    stream.prune_all(),
                    staged,
                    "{}+{} prune_all diverged",
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
            let mut scratch = graph.scratch();
            for i in 0..graph.num_profiles() as u32 {
                let node = ProfileId(i);
                let blocks_node = graph.blocks_of(node).len();
                for &(j, ref acc) in graph.neighborhood_buffered(node, &mut scratch) {
                    if node < j {
                        pool.push(scoring.weigh(
                            node,
                            j,
                            acc,
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
                assert_eq!(stream.prune_all(), staged);
                assert_eq!(
                    crate::parallel::meta_blocking(&ctx, &graph, &config),
                    staged
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
        let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
        assert_eq!(stream.prune_all(), staged);
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
            let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
            assert_eq!(
                stream.prune_all(),
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
        let base = StreamingMetaBlocking::prepare(&Context::new(1), &graph, &config).prune_all();
        for w in [2, 4, 8] {
            let got = StreamingMetaBlocking::prepare(&Context::new(w), &graph, &config).prune_all();
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
    fn pass_a_records_forward_degrees_for_every_rule() {
        // Pass A's cost hints are the forward degrees whichever pass A ran
        // (forward walk for WEP/CEP, full walk for the node-centric rules),
        // so `total_edges` is the graph's exact edge count.
        let coll = skewed_collection(90);
        let graph = Arc::new(BlockGraph::new(&token_blocking(&coll), None));
        let (_, edges) = graph.degrees();
        let mut scratch = graph.scratch();
        let forward: Vec<u32> = (0..graph.num_profiles() as u32)
            .map(|i| graph.forward_neighborhood(ProfileId(i), &mut scratch).len() as u32)
            .collect();
        let ctx = Context::new(2);
        for pruning in ALL_PRUNINGS {
            let config = MetaBlockingConfig {
                pruning,
                ..MetaBlockingConfig::default()
            };
            let stream = StreamingMetaBlocking::prepare(&ctx, &graph, &config);
            assert_eq!(stream.degrees, forward, "{}", pruning.name());
            assert_eq!(stream.total_edges(), edges, "{}", pruning.name());
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
        assert!(stream.prune_all().is_empty());
        assert!(stream.cost_morsels(4).is_empty());
        assert_eq!(stream.total_edges(), 0);
    }
}
