//! Connected components as iterative label propagation on the dataflow
//! engine — the shape of Spark GraphX's `connectedComponents`, which the
//! paper's entity clusterer calls (footnote 3).

use crate::clusters::EntityClusters;
use sparker_dataflow::Context;
use sparker_profiles::Pair;

/// Distributed connected components: every node repeatedly adopts the
/// minimum label in its neighborhood until a fixed point — exactly the
/// GraphX Pregel formulation. Result equals
/// [`crate::connected_components`] (asserted by tests).
///
/// Runs in O(graph diameter) supersteps; each superstep is a join plus a
/// `reduce_by_key(min)` on the engine.
pub fn connected_components_dataflow(
    ctx: &Context,
    edges: &[(Pair, f64)],
    num_profiles: usize,
) -> EntityClusters {
    if num_profiles == 0 {
        return EntityClusters::from_labels(Vec::new());
    }

    // Symmetric edge list (node -> neighbor).
    let mut sym: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
    for (p, _) in edges {
        sym.push((p.first.0, p.second.0));
        sym.push((p.second.0, p.first.0));
    }
    let edges_ds = ctx.parallelize_default(sym);

    // Initial labels: every node is its own component.
    let mut labels =
        ctx.parallelize_default((0..num_profiles as u32).map(|i| (i, i)).collect::<Vec<_>>());
    let mut current: Vec<u32> = (0..num_profiles as u32).collect();

    loop {
        // Each node offers its label to its neighbors… (`join` consumes its
        // input, and the edge list is reused every superstep, so clone the
        // handle — partition `Arc` bumps, no data copy.)
        let offers = edges_ds
            .clone()
            .join(&labels)
            .map(|(_, (neighbor, label))| (*neighbor, *label));
        // …and keeps the minimum of its own label and all offers.
        let next = labels.union(&offers).reduce_by_key(|a, b| a.min(*b));

        let mut snapshot = vec![u32::MAX; num_profiles];
        for (node, label) in next.collect() {
            snapshot[node as usize] = label;
        }
        // Nodes can only appear once per superstep; sanity-check coverage.
        debug_assert!(snapshot.iter().all(|&l| l != u32::MAX));

        if snapshot == current {
            break;
        }
        current = snapshot;
        labels = ctx.parallelize_default(
            current
                .iter()
                .enumerate()
                .map(|(i, &l)| (i as u32, l))
                .collect::<Vec<_>>(),
        );
    }

    EntityClusters::from_labels(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::connected_components;
    use sparker_profiles::ProfileId;

    fn edge(a: u32, b: u32) -> (Pair, f64) {
        (Pair::new(ProfileId(a), ProfileId(b)), 1.0)
    }

    #[test]
    fn matches_sequential_on_chain() {
        let edges: Vec<(Pair, f64)> = (0..9).map(|i| edge(i, i + 1)).collect();
        let ctx = Context::new(4);
        let par = connected_components_dataflow(&ctx, &edges, 12);
        let seq = connected_components(&edges, 12);
        assert_eq!(par, seq);
        assert_eq!(par.num_clusters(), 3); // chain 0..=9 plus singletons 10, 11
    }

    #[test]
    fn matches_sequential_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 200u32;
        let edges: Vec<(Pair, f64)> = (0..300)
            .map(|_| {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                edge(a, b)
            })
            .collect();
        let ctx = Context::new(4);
        assert_eq!(
            connected_components_dataflow(&ctx, &edges, n as usize),
            connected_components(&edges, n as usize)
        );
    }

    #[test]
    fn empty_graph() {
        let ctx = Context::new(2);
        let c = connected_components_dataflow(&ctx, &[], 5);
        assert_eq!(c.num_clusters(), 5);
        let c0 = connected_components_dataflow(&ctx, &[], 0);
        assert_eq!(c0.num_profiles(), 0);
    }

    #[test]
    fn worker_count_invariant() {
        let edges = vec![edge(0, 1), edge(1, 2), edge(5, 6)];
        let base = connected_components_dataflow(&Context::new(1), &edges, 8);
        for w in [2, 4] {
            assert_eq!(
                connected_components_dataflow(&Context::new(w), &edges, 8),
                base
            );
        }
    }

    #[test]
    fn spills_under_a_tiny_budget_and_matches_unlimited() {
        use sparker_dataflow::MemBudget;
        let edges: Vec<(Pair, f64)> = (0..60).map(|i| edge(i, (i * 7 + 3) % 90)).collect();
        let run = |budget: &MemBudget| {
            let ctx = Context::with_partitions(2, 4).with_budget(budget.clone());
            connected_components_dataflow(&ctx, &edges, 90)
        };
        let tiny = MemBudget::limited(64);
        let unlimited = MemBudget::unlimited();
        let resident = run(&unlimited);
        assert_eq!(run(&tiny), resident);
        assert_eq!(resident, connected_components(&edges, 90));
        assert_eq!(unlimited.spill_batches(), 0);
        assert!(tiny.spill_batches() > 0, "join and reduce_by_key spill");
        assert_eq!(tiny.tracked_bytes(), 0, "all reservations released");
        assert_eq!(unlimited.tracked_bytes(), 0);
    }
}
