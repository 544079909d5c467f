//! Progressive meta-blocking: candidate pairs in best-first order.
//!
//! The paper's group extended meta-blocking to *progressive* ER
//! (Simonini, Papadakis, Palpanas, Bergamaschi, ICDE 2018 — reference \[6\]
//! of the demo paper): instead of pruning the blocking graph and handing
//! all surviving pairs to the matcher at once, candidate pairs are emitted
//! in decreasing-weight order so that, under a limited comparison budget,
//! the matcher resolves the most promising pairs first. This module
//! implements the two schedules that paper evaluates:
//!
//! * [`progressive_global`] — *global* schedule: all edges sorted by
//!   weight (best-first across the whole graph).
//! * [`progressive_node_first`] — *profile scheduling*: nodes are ordered
//!   by their strongest edge and emission proceeds in rounds (every node's
//!   r-th best edge per round). Cheaper to produce incrementally and close
//!   to the global order in practice.

use crate::graph::BlockGraph;
use crate::scorer::{EdgeScorer, ScoringContext};
use sparker_profiles::{Pair, ProfileId};

/// All implicit edges of the blocking graph, weighted and sorted
/// best-first (weight descending, pair ascending on ties).
///
/// The prefix of this list is what a budget-bound matcher should consume:
/// recall grows much faster along this order than along block order (see
/// the `exp_progressive` experiment).
pub fn progressive_global(
    graph: &BlockGraph,
    scorer: EdgeScorer,
    use_entropy: bool,
) -> Vec<(Pair, f64)> {
    let scoring = ScoringContext::new(graph, scorer, use_entropy);
    let mut edges = Vec::new();
    let mut scratch = graph.node_scratch(scoring.reads_sums());
    for i in 0..graph.num_profiles() {
        let node = ProfileId(i as u32);
        let blocks_node = graph.block_count(node);
        for (j, acc) in graph.walk(node, &mut scratch, true).iter() {
            let w = scoring.weigh(node, j, &acc, blocks_node, graph.block_count(j));
            edges.push((Pair::new(node, j), w));
        }
    }
    sort_best_first(&mut edges);
    edges
}

/// Progressive profile scheduling: nodes are ordered by their strongest
/// edge, then edges are emitted in *rounds* — round r yields every node's
/// r-th best edge (skipping duplicates) — so the first |P| emissions are
/// each profile's best match candidate. This is the round-robin
/// interleaving of the progressive-ER literature, producing near-global
/// quality without a global sort.
pub fn progressive_node_first(
    graph: &BlockGraph,
    scorer: EdgeScorer,
    use_entropy: bool,
) -> Vec<(Pair, f64)> {
    let scoring = ScoringContext::new(graph, scorer, use_entropy);
    let n = graph.num_profiles();
    let mut scratch = graph.node_scratch(scoring.reads_sums());

    // Per node: its weighted neighborhood, best-first.
    let mut neighborhoods: Vec<Vec<(ProfileId, f64)>> = Vec::with_capacity(n);
    for i in 0..n {
        let node = ProfileId(i as u32);
        let blocks_node = graph.block_count(node);
        let mut edges: Vec<(ProfileId, f64)> = graph
            .walk(node, &mut scratch, false)
            .iter()
            .map(|(j, acc)| {
                let w = scoring.weigh(node, j, &acc, blocks_node, graph.block_count(j));
                (j, w)
            })
            .collect();
        edges.sort_by(|(pa, wa), (pb, wb)| {
            wb.partial_cmp(wa)
                .expect("weights are finite")
                .then(pa.cmp(pb))
        });
        neighborhoods.push(edges);
    }

    // Visit nodes by their strongest edge.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let wa = neighborhoods[a]
            .first()
            .map_or(f64::NEG_INFINITY, |(_, w)| *w);
        let wb = neighborhoods[b]
            .first()
            .map_or(f64::NEG_INFINITY, |(_, w)| *w);
        wb.partial_cmp(&wa)
            .expect("weights are finite")
            .then(a.cmp(&b))
    });

    let mut emitted = std::collections::HashSet::new();
    let mut out = Vec::new();
    let max_degree = neighborhoods.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..max_degree {
        for &i in &order {
            if let Some(&(j, w)) = neighborhoods[i].get(round) {
                let pair = Pair::new(ProfileId(i as u32), j);
                if emitted.insert(pair) {
                    out.push((pair, w));
                }
            }
        }
    }
    out
}

fn sort_best_first(edges: &mut [(Pair, f64)]) {
    edges.sort_by(|(pa, wa), (pb, wb)| {
        wb.partial_cmp(wa)
            .expect("weights are finite")
            .then(pa.cmp(pb))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightScheme;
    use sparker_blocking::token_blocking;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};

    fn collection() -> ProfileCollection {
        // Three duplicates sharing many tokens, plus loosely-related noise.
        let rows = [
            "sony bravia kdl forty tv led",
            "sony bravia kdl forty television led",
            "sony bravia kdl forty tv hd",
            "samsung galaxy phone forty",
            "led lamp hd",
        ];
        ProfileCollection::dirty(
            rows.iter()
                .enumerate()
                .map(|(i, r)| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("name", *r)
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn global_order_is_monotone_and_complete() {
        let blocks = token_blocking(&collection());
        let graph = BlockGraph::new(&blocks, None);
        let edges = progressive_global(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        // Weights non-increasing.
        for w in edges.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Exactly the distinct block pairs.
        let all = blocks.candidate_pairs();
        assert_eq!(edges.len(), all.len());
        for (p, _) in &edges {
            assert!(all.contains(p));
        }
    }

    #[test]
    fn strongest_duplicates_come_first() {
        let blocks = token_blocking(&collection());
        let graph = BlockGraph::new(&blocks, None);
        let edges = progressive_global(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        // The three bravia records share 5+ tokens pairwise; those pairs
        // must occupy the first three slots.
        let firsts: Vec<(u32, u32)> = edges
            .iter()
            .take(3)
            .map(|(p, _)| (p.first.0, p.second.0))
            .collect();
        for (a, b) in firsts {
            assert!(
                a < 3 && b < 3,
                "non-duplicate pair ({a},{b}) ranked too high"
            );
        }
    }

    #[test]
    fn node_first_emits_every_pair_once() {
        let blocks = token_blocking(&collection());
        let graph = BlockGraph::new(&blocks, None);
        let edges = progressive_node_first(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        let mut seen = std::collections::HashSet::new();
        for (p, _) in &edges {
            assert!(seen.insert(*p), "pair {p} emitted twice");
        }
        assert_eq!(seen, blocks.candidate_pairs());
    }

    #[test]
    fn node_first_front_loads_strong_pairs() {
        let blocks = token_blocking(&collection());
        let graph = BlockGraph::new(&blocks, None);
        let edges = progressive_node_first(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false);
        let (p, _) = edges[0];
        assert!(
            p.first.0 < 3 && p.second.0 < 3,
            "first emit {p} is not a duplicate"
        );
    }

    #[test]
    fn schedules_deterministic() {
        let blocks = token_blocking(&collection());
        let graph = BlockGraph::new(&blocks, None);
        assert_eq!(
            progressive_global(&graph, EdgeScorer::Classic(WeightScheme::Js), false),
            progressive_global(&graph, EdgeScorer::Classic(WeightScheme::Js), false)
        );
        assert_eq!(
            progressive_node_first(&graph, EdgeScorer::Classic(WeightScheme::Js), false),
            progressive_node_first(&graph, EdgeScorer::Classic(WeightScheme::Js), false)
        );
    }

    #[test]
    fn empty_graph() {
        let blocks =
            sparker_blocking::BlockCollection::new(sparker_profiles::ErKind::Dirty, vec![]);
        let graph = BlockGraph::new(&blocks, None);
        assert!(
            progressive_global(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false).is_empty()
        );
        assert!(
            progressive_node_first(&graph, EdgeScorer::Classic(WeightScheme::Cbs), false)
                .is_empty()
        );
    }
}
