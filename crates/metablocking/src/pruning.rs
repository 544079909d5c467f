//! Pruning strategies and the sequential meta-blocking driver.

use crate::entropy::BlockEntropies;
use crate::graph::{BlockGraph, EdgeAccumulator};
use crate::scorer::{EdgeScorer, ScoringContext};
use sparker_blocking::BlockCollection;
use sparker_profiles::{Pair, ProfileId};

/// How low-weight edges are removed from the blocking graph.
///
/// Node-centric strategies (WNP, CNP, Blast) use *union* semantics: an edge
/// survives if **either** endpoint retains it — the "redefined" variants
/// shown to dominate in the meta-blocking literature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruningStrategy {
    /// Weighted Edge Pruning: keep edges with weight ≥ `factor` × the
    /// global mean edge weight. `factor = 1.0` is the paper's Figure 1(c)
    /// rule ("retained if its weight is above the average").
    Wep {
        /// Multiplier on the global mean weight.
        factor: f64,
    },
    /// Cardinality Edge Pruning: keep the globally top-`retain` edges;
    /// `None` derives the budget as `total block assignments / 2` (the
    /// literature's default).
    Cep {
        /// Explicit edge budget.
        retain: Option<u64>,
    },
    /// Weighted Node Pruning: an endpoint retains an edge when its weight
    /// is ≥ `factor` × the mean weight of that node's neighborhood.
    Wnp {
        /// Multiplier on each node's mean weight.
        factor: f64,
        /// `false` (default, "redefined") keeps an edge retained by either
        /// endpoint; `true` ("reciprocal") requires both — higher precision,
        /// lower recall, per the meta-blocking literature.
        reciprocal: bool,
    },
    /// Cardinality Node Pruning: each node retains its top-`k` edges;
    /// `None` derives `k = max(1, round(assignments / profiles))`.
    Cnp {
        /// Explicit per-node budget.
        k: Option<usize>,
        /// Union (`false`) vs intersection (`true`) of the endpoints'
        /// retention decisions, as for [`PruningStrategy::Wnp`].
        reciprocal: bool,
    },
    /// Blast's pruning: the threshold of edge (i, j) is
    /// `ratio × (maxᵢ + maxⱼ) / 2`, where `maxᵢ` is the largest weight in
    /// i's neighborhood. Blast's default ratio is 0.35.
    Blast {
        /// Fraction of the endpoints' mean-of-maxima.
        ratio: f64,
    },
}

impl PruningStrategy {
    /// Stable name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PruningStrategy::Wep { .. } => "WEP",
            PruningStrategy::Cep { .. } => "CEP",
            PruningStrategy::Wnp { .. } => "WNP",
            PruningStrategy::Cnp { .. } => "CNP",
            PruningStrategy::Blast { .. } => "BLAST",
        }
    }
}

/// Full meta-blocking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaBlockingConfig {
    /// Edge scorer: a classic weighting scheme or a supervised model.
    pub scorer: EdgeScorer,
    /// Pruning strategy.
    pub pruning: PruningStrategy,
    /// Enable Blast's entropy re-weighting (requires a graph built with
    /// [`BlockEntropies`]).
    pub use_entropy: bool,
}

impl Default for MetaBlockingConfig {
    /// The paper's toy setting: CBS weights, weight-edge pruning at the
    /// mean, no entropy.
    fn default() -> Self {
        MetaBlockingConfig {
            scorer: EdgeScorer::default(),
            pruning: PruningStrategy::Wep { factor: 1.0 },
            use_entropy: false,
        }
    }
}

impl MetaBlockingConfig {
    /// Blast's configuration: χ² weighting, local-maxima pruning at ratio
    /// 0.35, entropy re-weighting on.
    pub fn blast() -> Self {
        MetaBlockingConfig {
            scorer: EdgeScorer::Classic(crate::WeightScheme::ChiSquare),
            pruning: PruningStrategy::Blast { ratio: 0.35 },
            use_entropy: true,
        }
    }

    /// Build this configuration's [`ScoringContext`] for `graph` — the
    /// one checked constructor every driver funnels through (it owns the
    /// `use_entropy` precondition).
    pub fn scoring_context(&self, graph: &BlockGraph) -> ScoringContext {
        ScoringContext::new(graph, self.scorer, self.use_entropy)
    }
}

/// Per-node retention statistics gathered in the first pass.
///
/// Public because the online resolver (`sparker-serve`) maintains these
/// incrementally per dirty node and replays [`RetentionRule::keeps`] over
/// the touched neighborhoods only.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Mean edge weight of the node's neighborhood (WNP).
    pub mean: f64,
    /// Maximum edge weight (Blast).
    pub max: f64,
    /// k-th largest weight (CNP); `f64::INFINITY` when the node has no
    /// edges.
    pub kth: f64,
}

/// Σw and |E| over a set of edges — all that WEP's mean-weight threshold
/// needs, so no weight is kept once it has been folded in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct WeightSum {
    sum: f64,
    count: u64,
}

/// What pass A keeps of the forward (`node < j`, so each edge once) edge
/// weights for the edge-centric strategies. Every driver records nodes
/// through [`ForwardWeights::record_node`] and hands the node-ordered
/// result to [`resolve_rule`], which fixes one f64 summation order — the
/// canonical one — for all of them: neighbor order within a node, node
/// order across nodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ForwardWeights {
    /// Node-centric strategies (WNP, CNP, Blast): nothing global.
    Unused,
    /// WEP: one `(Σw, |E|)` per node, in node order.
    NodeSums(Vec<WeightSum>),
    /// CEP: every weight — the k-th largest needs the whole pool.
    Pool(Vec<f64>),
}

impl ForwardWeights {
    /// The empty accumulator `pruning` needs.
    pub(crate) fn for_pruning(pruning: PruningStrategy) -> Self {
        match pruning {
            PruningStrategy::Wep { .. } => ForwardWeights::NodeSums(Vec::new()),
            PruningStrategy::Cep { .. } => ForwardWeights::Pool(Vec::new()),
            _ => ForwardWeights::Unused,
        }
    }

    /// `true` for the node-centric strategies, whose pass A needs no
    /// forward weights at all.
    pub(crate) fn is_unused(&self) -> bool {
        matches!(self, ForwardWeights::Unused)
    }

    /// Record one node's forward weights, given in neighbor order. Must be
    /// called once per node, in node order.
    pub(crate) fn record_node(&mut self, forward: &[f64]) {
        match self {
            ForwardWeights::Unused => {}
            ForwardWeights::NodeSums(sums) => sums.push(WeightSum {
                sum: forward.iter().fold(0.0, |sum, w| sum + w),
                count: forward.len() as u64,
            }),
            ForwardWeights::Pool(pool) => pool.extend_from_slice(forward),
        }
    }

    /// Record one node's `(Σw, |E|)` directly, for a pass that knows them
    /// without weighing: must be a WEP record, and `sum` must be the value
    /// [`ForwardWeights::record_node`] would fold — exact when the weights
    /// are integers summing below 2⁵³, whatever their order.
    pub(crate) fn record_sum(&mut self, sum: f64, count: u64) {
        let ForwardWeights::NodeSums(sums) = self else {
            unreachable!("only WEP records per-node sums")
        };
        sums.push(WeightSum { sum, count });
    }

    /// Append the record of the node range that follows this one's.
    pub(crate) fn append(&mut self, next: ForwardWeights) {
        match (self, next) {
            (ForwardWeights::Unused, ForwardWeights::Unused) => {}
            (ForwardWeights::NodeSums(a), ForwardWeights::NodeSums(b)) => a.extend(b),
            (ForwardWeights::Pool(a), ForwardWeights::Pool(b)) => a.extend(b),
            _ => unreachable!("forward-weight records of one pass share a strategy"),
        }
    }
}

/// Per-node half of the first pass: weight one node's neighborhood (given
/// ascending by id, as both walks emit it) and summarize. This is the unit
/// of work SparkER distributes, so it is the hot loop of meta-blocking —
/// after warm-up it performs **zero heap allocation per node**: the edge
/// weights go to the caller's reusable `weights` buffer, and the node's
/// forward edge weights are folded into `forward` so each edge is counted
/// once globally. The CNP k-th weight uses an O(n) order-statistic
/// selection instead of a full sort, and mean/max are folded in the same
/// pass that computes the weights.
pub(crate) fn node_stats_of(
    graph: &BlockGraph,
    node: ProfileId,
    scoring: &ScoringContext,
    cnp_k: usize,
    forward: &mut ForwardWeights,
    neighborhood: impl Iterator<Item = (ProfileId, EdgeAccumulator)>,
    weights: &mut Vec<f64>,
) -> NodeStats {
    weights.clear();
    let blocks_node = graph.block_count(node);
    let mut backward = 0;
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    for (j, acc) in neighborhood {
        let w = scoring.weigh(node, j, &acc, blocks_node, graph.block_count(j));
        weights.push(w);
        backward += usize::from(j < node);
        sum += w;
        max = max.max(w);
    }
    forward.record_node(&weights[backward..]);
    if weights.is_empty() {
        return NodeStats {
            kth: f64::INFINITY,
            ..NodeStats::default()
        };
    }
    let mean = sum / weights.len() as f64;
    // k-th largest = element at rank k-1 of the descending order; selection
    // yields exactly the value a full descending sort would put there.
    let k = (cnp_k.min(weights.len())).saturating_sub(1);
    let (_, kth, _) =
        weights.select_nth_unstable_by(k, |a, b| b.partial_cmp(a).expect("weights are finite"));
    NodeStats {
        mean,
        max,
        kth: *kth,
    }
}

/// First pass: per-node statistics, plus the forward edge weights in the
/// form the strategy's global threshold needs (see [`ForwardWeights`]).
pub(crate) fn node_stats_pass(
    graph: &BlockGraph,
    scoring: &ScoringContext,
    cnp_k: usize,
    mut forward: ForwardWeights,
) -> (Vec<NodeStats>, ForwardWeights) {
    let n = graph.num_profiles();
    let mut node_stats = vec![NodeStats::default(); n];
    let mut weights = Vec::new();
    for (i, slot) in node_stats.iter_mut().enumerate() {
        let node = ProfileId(i as u32);
        *slot = node_stats_of(
            graph,
            node,
            scoring,
            cnp_k,
            &mut forward,
            graph.neighborhood(node).into_iter(),
            &mut weights,
        );
    }
    (node_stats, forward)
}

/// Resolved retention rule, shared by the sequential and parallel drivers
/// (and replayed edge-by-edge by the incremental resolver, which is why it
/// is public: the decision for one edge depends only on its weight and the
/// two endpoints' [`NodeStats`]).
#[derive(Debug, Clone)]
pub enum RetentionRule {
    /// Keep edges with weight ≥ the threshold (WEP / CEP).
    GlobalThreshold(f64),
    /// Keep edges above `factor` × an endpoint's neighborhood mean (WNP).
    NodeMean {
        /// Multiplier on the node mean.
        factor: f64,
        /// Require both endpoints (`true`) or either (`false`).
        reciprocal: bool,
    },
    /// Keep edges at or above an endpoint's k-th largest weight (CNP).
    NodeKth {
        /// Require both endpoints (`true`) or either (`false`).
        reciprocal: bool,
    },
    /// Blast: keep edges ≥ `ratio` × mean of the endpoints' maxima.
    BlastMaxima {
        /// Fraction of the endpoints' mean-of-maxima.
        ratio: f64,
    },
}

impl RetentionRule {
    /// Does an edge of weight `w` between endpoints with stats `a` and `b`
    /// survive pruning?
    pub fn keeps(&self, w: f64, a: &NodeStats, b: &NodeStats) -> bool {
        match self {
            RetentionRule::GlobalThreshold(t) => w >= *t,
            RetentionRule::NodeMean { factor, reciprocal } => {
                let (ka, kb) = (w >= factor * a.mean, w >= factor * b.mean);
                if *reciprocal {
                    ka && kb
                } else {
                    ka || kb
                }
            }
            RetentionRule::NodeKth { reciprocal } => {
                let (ka, kb) = (w >= a.kth, w >= b.kth);
                if *reciprocal {
                    ka && kb
                } else {
                    ka || kb
                }
            }
            RetentionRule::BlastMaxima { ratio } => w >= ratio * (a.max + b.max) / 2.0,
        }
    }
}

/// Resolve a pruning strategy into a concrete rule given the pass-A
/// forward weights (the record [`ForwardWeights::for_pruning`] started,
/// covering every node in node order).
pub(crate) fn resolve_rule(
    pruning: PruningStrategy,
    graph: &BlockGraph,
    forward: ForwardWeights,
) -> RetentionRule {
    match (pruning, forward) {
        (PruningStrategy::Wep { factor }, ForwardWeights::NodeSums(sums)) => {
            assert!(factor > 0.0, "WEP factor must be positive");
            let total = sums.iter().fold(WeightSum::default(), |t, s| WeightSum {
                sum: t.sum + s.sum,
                count: t.count + s.count,
            });
            let mean = if total.count == 0 {
                0.0
            } else {
                total.sum / total.count as f64
            };
            RetentionRule::GlobalThreshold(factor * mean)
        }
        (PruningStrategy::Cep { retain }, ForwardWeights::Pool(mut all_weights)) => {
            let budget = retain.unwrap_or(graph.total_assignments() / 2).max(1) as usize;
            if all_weights.is_empty() {
                return RetentionRule::GlobalThreshold(0.0);
            }
            all_weights.sort_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
            let threshold = all_weights[(budget.min(all_weights.len())).saturating_sub(1)];
            RetentionRule::GlobalThreshold(threshold)
        }
        (PruningStrategy::Wep { .. } | PruningStrategy::Cep { .. }, _) => {
            unreachable!("pass A fills the record `ForwardWeights::for_pruning` started")
        }
        (PruningStrategy::Wnp { factor, reciprocal }, _) => {
            assert!(factor > 0.0, "WNP factor must be positive");
            RetentionRule::NodeMean { factor, reciprocal }
        }
        (PruningStrategy::Cnp { reciprocal, .. }, _) => RetentionRule::NodeKth { reciprocal },
        (PruningStrategy::Blast { ratio }, _) => {
            assert!(
                ratio > 0.0 && ratio <= 1.0,
                "Blast ratio must be in (0, 1], got {ratio}"
            );
            RetentionRule::BlastMaxima { ratio }
        }
    }
}

/// CNP's derived per-node budget: `k = max(1, round(BC / |P|))` where `BC`
/// is the total number of block assignments and `|P|` the number of
/// profiles spanned by the graph. Exposed so incremental callers can
/// recompute `k` from maintained aggregates without building a
/// [`BlockGraph`].
pub fn derived_cnp_k(total_assignments: u64, num_profiles: usize) -> usize {
    ((total_assignments as f64 / num_profiles.max(1) as f64).round() as usize).max(1)
}

/// The CNP per-node budget for a graph (`k = max(1, round(BC / |P|))`).
pub(crate) fn cnp_budget(pruning: PruningStrategy, graph: &BlockGraph) -> usize {
    match pruning {
        PruningStrategy::Cnp { k, .. } => {
            k.unwrap_or_else(|| derived_cnp_k(graph.total_assignments(), graph.num_profiles()))
        }
        _ => 1,
    }
}

/// Sequential meta-blocking over a prebuilt [`BlockGraph`]: weight every
/// implicit edge, derive thresholds, and return the retained candidate
/// pairs with their weights, sorted by pair. The naive oracle: both
/// passes walk with [`BlockGraph::neighborhood`].
pub fn meta_blocking_graph(graph: &BlockGraph, config: &MetaBlockingConfig) -> Vec<(Pair, f64)> {
    let scoring = config.scoring_context(graph);
    let cnp_k = cnp_budget(config.pruning, graph);
    let (node_stats, forward) = node_stats_pass(
        graph,
        &scoring,
        cnp_k,
        ForwardWeights::for_pruning(config.pruning),
    );
    let rule = resolve_rule(config.pruning, graph, forward);

    let mut retained = Vec::new();
    for i in 0..graph.num_profiles() {
        let node = ProfileId(i as u32);
        let blocks_node = graph.blocks_of(node).len();
        for (j, acc) in graph.neighborhood(node) {
            if node >= j {
                continue; // count each edge once
            }
            let w = scoring.weigh(node, j, &acc, blocks_node, graph.blocks_of(j).len());
            if rule.keeps(w, &node_stats[i], &node_stats[j.index()]) {
                retained.push((Pair::new(node, j), w));
            }
        }
    }
    retained.sort_by_key(|(a, _)| *a);
    retained
}

/// Convenience driver: build the graph from a block collection (without
/// entropies) and run [`meta_blocking_graph`].
pub fn meta_blocking(blocks: &BlockCollection, config: &MetaBlockingConfig) -> Vec<(Pair, f64)> {
    let entropies: Option<&BlockEntropies> = None;
    let graph = BlockGraph::new(blocks, entropies);
    meta_blocking_graph(&graph, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightScheme;
    use sparker_blocking::{token_blocking, Block};
    use sparker_profiles::{ErKind, Profile, ProfileCollection, SourceId};

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(pid(a), pid(b))
    }

    fn figure1_blocks() -> BlockCollection {
        let p1 = Profile::builder(SourceId(0), "p1")
            .attr("Name", "Blast")
            .attr("Authors", "G. Simonini")
            .attr("Abstract", "how to improve meta-blocking")
            .build();
        let p2 = Profile::builder(SourceId(0), "p2")
            .attr("Name", "SparkER")
            .attr("Authors", "L. Gagliardelli")
            .attr("Abstract", "Simonini et al proposed blocking")
            .build();
        let p3 = Profile::builder(SourceId(1), "p3")
            .attr("title", "Blast: loosely schema blocking")
            .attr("author", "Giovanni Simonini")
            .attr("year", "2016")
            .build();
        let p4 = Profile::builder(SourceId(1), "p4")
            .attr("title", "SparkER: parallel Blast")
            .attr("author", "Luca Gagliardelli")
            .attr("year", "2017")
            .build();
        let coll = ProfileCollection::clean_clean(vec![p1, p2], vec![p3, p4]);
        token_blocking(&coll)
    }

    #[test]
    fn figure1_wep_cbs_retains_heavy_edges() {
        // Weights: (p1,p3)=3, (p1,p4)=1, (p2,p3)=2, (p2,p4)=2; mean = 2.
        // WEP keeps w ≥ 2 → (p1,p3), (p2,p3), (p2,p4); prunes (p1,p4) —
        // matching the dashed edges of Figure 1(c).
        let pruned = meta_blocking(&figure1_blocks(), &MetaBlockingConfig::default());
        let pairs: Vec<Pair> = pruned.iter().map(|(p, _)| *p).collect();
        assert_eq!(pairs, vec![pair(0, 2), pair(1, 2), pair(1, 3)]);
        assert_eq!(pruned[0].1, 3.0);
    }

    #[test]
    fn figure2_entropy_weighting_removes_spurious_edges() {
        // The paper's Figure 2(c): with loose-schema keys and entropy
        // weights (authors partition: 0.8; name/title/abstract: 0.4), only
        // (p1,p3) and (p2,p4) survive — "the two retained red edges of
        // Figure 1(c) are now removed".
        // Reconstruct the loose-schema blocks of the toy directly.
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            vec![
                // blast under name/title partition (entropy 0.4):
                Block::clean_clean("blast_1", vec![pid(0)], vec![pid(2), pid(3)]),
                // blocking under name/title/abstract partition (0.4):
                Block::clean_clean("blocking_1", vec![pid(0), pid(1)], vec![pid(2)]),
                // simonini as author (0.8): p1 and p3 only.
                Block::clean_clean("simonini_0", vec![pid(0)], vec![pid(2)]),
                // gagliardelli as author (0.8): p2, p4.
                Block::clean_clean("gagliardelli_0", vec![pid(1)], vec![pid(3)]),
                // sparker under name/title (0.4): p2, p4.
                Block::clean_clean("sparker_1", vec![pid(1)], vec![pid(3)]),
            ],
        );
        let entropies = BlockEntropies::new(vec![0.4, 0.4, 0.8, 0.8, 0.4]);
        let graph = BlockGraph::new(&blocks, Some(&entropies));
        let config = MetaBlockingConfig {
            scorer: EdgeScorer::Classic(WeightScheme::Cbs),
            pruning: PruningStrategy::Wep { factor: 1.0 },
            use_entropy: true,
        };
        let pruned = meta_blocking_graph(&graph, &config);
        let pairs: Vec<Pair> = pruned.iter().map(|(p, _)| *p).collect();
        assert_eq!(pairs, vec![pair(0, 2), pair(1, 3)]);
        // Figure 2(c) weights: w(p1,p3) = 0.4+0.4+0.8 = 1.6; w(p2,p4) =
        // 0.8+0.4 = 1.2.
        assert!((pruned[0].1 - 1.6).abs() < 1e-12);
        assert!((pruned[1].1 - 1.2).abs() < 1e-12);
    }

    #[test]
    fn wep_factor_scales_aggressiveness() {
        let blocks = figure1_blocks();
        let loose = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Wep { factor: 0.1 },
                ..MetaBlockingConfig::default()
            },
        );
        let tight = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Wep { factor: 1.4 },
                ..MetaBlockingConfig::default()
            },
        );
        assert_eq!(loose.len(), 4, "low factor keeps all edges");
        assert_eq!(tight.len(), 1, "high factor keeps only (p1,p3)");
    }

    #[test]
    fn cep_respects_budget() {
        let blocks = figure1_blocks();
        let top2 = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Cep { retain: Some(1) },
                ..MetaBlockingConfig::default()
            },
        );
        assert_eq!(top2.len(), 1);
        assert_eq!(top2[0].0, pair(0, 2));
        // Budget larger than the edge count keeps everything.
        let all = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Cep { retain: Some(100) },
                ..MetaBlockingConfig::default()
            },
        );
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn wnp_keeps_edges_strong_for_either_endpoint() {
        let blocks = figure1_blocks();
        let pruned = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Wnp {
                    factor: 1.0,
                    reciprocal: false,
                },
                ..MetaBlockingConfig::default()
            },
        );
        let pairs: Vec<Pair> = pruned.iter().map(|(p, _)| *p).collect();
        // Node means: p1: (3+1)/2 = 2; p2: 2; p3: (3+2)/2 = 2.5; p4: 1.5.
        // (p1,p3): 3 ≥ 2 ✓. (p1,p4): 1 < 2 and 1 < 1.5 ✗. (p2,p3): 2 ≥ 2 ✓.
        // (p2,p4): 2 ≥ 2 ✓.
        assert_eq!(pairs, vec![pair(0, 2), pair(1, 2), pair(1, 3)]);
    }

    #[test]
    fn reciprocal_wnp_is_stricter_than_redefined() {
        let blocks = figure1_blocks();
        let run = |reciprocal: bool| {
            meta_blocking(
                &blocks,
                &MetaBlockingConfig {
                    pruning: PruningStrategy::Wnp {
                        factor: 1.0,
                        reciprocal,
                    },
                    ..MetaBlockingConfig::default()
                },
            )
        };
        let union = run(false);
        let inter = run(true);
        // Reciprocal retains a subset of the redefined (union) variant.
        let union_pairs: std::collections::HashSet<Pair> = union.iter().map(|(p, _)| *p).collect();
        for (p, _) in &inter {
            assert!(union_pairs.contains(p));
        }
        // On Figure 1: node means p1:2, p2:2, p3:2.5, p4:1.5.
        // (p2,p3): 2 ≥ 2 for p2 but 2 < 2.5 for p3 → dropped reciprocally.
        let pairs: Vec<Pair> = inter.iter().map(|(p, _)| *p).collect();
        assert_eq!(pairs, vec![pair(0, 2), pair(1, 3)]);
    }

    #[test]
    fn cnp_top1_keeps_best_edge_per_node() {
        let blocks = figure1_blocks();
        let pruned = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                pruning: PruningStrategy::Cnp {
                    k: Some(1),
                    reciprocal: false,
                },
                ..MetaBlockingConfig::default()
            },
        );
        let pairs: Vec<Pair> = pruned.iter().map(|(p, _)| *p).collect();
        // Top-1 per node: p1→(p1,p3); p2→ties at 2 keep both; p3→(p1,p3);
        // p4→ties at... p4's edges: (p1,p4)=1, (p2,p4)=2 → keeps (p2,p4).
        assert!(pairs.contains(&pair(0, 2)));
        assert!(pairs.contains(&pair(1, 3)));
        assert!(!pairs.contains(&pair(0, 3)), "weakest edge pruned");
    }

    #[test]
    fn blast_pruning_uses_local_maxima() {
        let blocks = figure1_blocks();
        let pruned = meta_blocking(
            &blocks,
            &MetaBlockingConfig {
                scorer: EdgeScorer::Classic(WeightScheme::Cbs),
                pruning: PruningStrategy::Blast { ratio: 0.9 },
                use_entropy: false,
            },
        );
        // Maxima: p1: 3, p2: 2, p3: 3, p4: 2.
        // (p1,p3): t = 0.9·3 = 2.7 → 3 kept. (p1,p4): t = 0.9·2.5 = 2.25 →
        // 1 pruned. (p2,p3): t = 2.25 → 2 pruned. (p2,p4): t = 1.8 → 2 kept.
        let pairs: Vec<Pair> = pruned.iter().map(|(p, _)| *p).collect();
        assert_eq!(pairs, vec![pair(0, 2), pair(1, 3)]);
    }

    #[test]
    fn empty_blocks_give_empty_output() {
        let blocks = BlockCollection::new(ErKind::Dirty, vec![]);
        for pruning in [
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
        ] {
            let out = meta_blocking(
                &blocks,
                &MetaBlockingConfig {
                    pruning,
                    ..MetaBlockingConfig::default()
                },
            );
            assert!(out.is_empty(), "{}", pruning.name());
        }
    }

    #[test]
    fn every_scheme_and_strategy_runs_and_reduces() {
        // A modestly noisy dirty collection: pruning should drop some but
        // not all edges for every configuration.
        let profiles: Vec<Profile> = (0..30)
            .map(|i| {
                Profile::builder(SourceId(0), i.to_string())
                    .attr(
                        "name",
                        format!("item group{} shared common token{}", i % 5, i % 3),
                    )
                    .build()
            })
            .collect();
        let coll = ProfileCollection::dirty(profiles);
        let blocks = token_blocking(&coll);
        let graph = BlockGraph::new(&blocks, None);
        let total_edges = {
            let (_, e) = graph.degrees();
            e
        };
        for scheme in WeightScheme::ALL {
            for pruning in [
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
            ] {
                let out = meta_blocking_graph(
                    &graph,
                    &MetaBlockingConfig {
                        scorer: EdgeScorer::Classic(scheme),
                        pruning,
                        use_entropy: false,
                    },
                );
                assert!(
                    !out.is_empty() && (out.len() as u64) <= total_edges,
                    "{}+{}: kept {}/{total_edges}",
                    scheme.name(),
                    pruning.name(),
                    out.len(),
                );
                // Threshold-at-mean and budgeted strategies must strictly
                // reduce this graph (its weight distribution is non-uniform);
                // Blast's local-maxima rule may legitimately keep everything
                // on near-uniform neighborhoods.
                if matches!(
                    pruning,
                    PruningStrategy::Wep { .. } | PruningStrategy::Cep { .. }
                ) {
                    assert!(
                        (out.len() as u64) < total_edges,
                        "{}+{}: no reduction",
                        scheme.name(),
                        pruning.name(),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "use_entropy requires")]
    fn entropy_without_entropies_rejected() {
        let graph = BlockGraph::new(&figure1_blocks(), None);
        meta_blocking_graph(
            &graph,
            &MetaBlockingConfig {
                use_entropy: true,
                ..MetaBlockingConfig::default()
            },
        );
    }

    #[test]
    fn blast_preset_config() {
        let c = MetaBlockingConfig::blast();
        assert_eq!(c.scorer, EdgeScorer::Classic(WeightScheme::ChiSquare));
        assert!(c.use_entropy);
        assert!(
            matches!(c.pruning, PruningStrategy::Blast { ratio } if (ratio - 0.35).abs() < 1e-12)
        );
    }
}
