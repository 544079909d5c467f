//! Entity clustering algorithms over the similarity graph.
//!
//! All algorithms consume weighted matching pairs (`(Pair, score)`) and the
//! number of profiles, and return an [`EntityClusters`] partition. Edges are
//! processed in descending score order with pair-id tie-breaking, so every
//! algorithm is deterministic.

use crate::clusters::EntityClusters;
use crate::unionfind::UnionFind;
use sparker_profiles::Pair;
#[cfg(test)]
use sparker_profiles::ProfileId;

fn sorted_edges(edges: &[(Pair, f64)]) -> Vec<(Pair, f64)> {
    assert!(
        edges.iter().all(|(_, s)| !s.is_nan()),
        "similarity scores must not be NaN"
    );
    let mut e: Vec<(Pair, f64)> = edges.to_vec();
    e.sort_by(|(pa, sa), (pb, sb)| {
        sb.partial_cmp(sa)
            .expect("NaN checked above")
            .then_with(|| pa.cmp(pb))
    });
    e
}

pub(crate) fn labels_from_unionfind(mut uf: UnionFind) -> EntityClusters {
    EntityClusters::from_labels(uf.labels().into_iter().map(|l| l as u32).collect())
}

/// Connected components — the paper's default entity clusterer ("based on
/// the assumption of transitivity, i.e., if p1 matches with p2, p2 matches
/// with p3, then p1 matches with p3").
///
/// Scores are ignored: any retained matching edge joins its endpoints.
pub fn connected_components(edges: &[(Pair, f64)], num_profiles: usize) -> EntityClusters {
    let mut uf = UnionFind::new(num_profiles);
    for (pair, _) in edges {
        uf.union(pair.first.index(), pair.second.index());
    }
    labels_from_unionfind(uf)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Unassigned,
    Center,
    Child(u32), // holds the center's profile id
}

/// Center clustering (Hassanzadeh et al.): scan edges by descending
/// similarity; the first endpoint of an edge between two unassigned nodes
/// becomes a cluster *center*, the other its member; later edges can only
/// attach unassigned nodes to existing centers. Produces star-shaped
/// clusters and avoids the chaining effect of connected components.
pub fn center_clustering(edges: &[(Pair, f64)], num_profiles: usize) -> EntityClusters {
    let mut state = vec![NodeState::Unassigned; num_profiles];
    let mut uf = UnionFind::new(num_profiles);
    for (pair, _) in sorted_edges(edges) {
        let (a, b) = (pair.first.index(), pair.second.index());
        match (state[a], state[b]) {
            (NodeState::Unassigned, NodeState::Unassigned) => {
                state[a] = NodeState::Center;
                state[b] = NodeState::Child(pair.first.0);
                uf.union(a, b);
            }
            (NodeState::Center, NodeState::Unassigned) => {
                state[b] = NodeState::Child(pair.first.0);
                uf.union(a, b);
            }
            (NodeState::Unassigned, NodeState::Center) => {
                state[a] = NodeState::Child(pair.second.0);
                uf.union(a, b);
            }
            _ => {} // center–center, child–anything: ignored
        }
    }
    labels_from_unionfind(uf)
}

/// Merge–center clustering (Hassanzadeh et al.): like center clustering,
/// but when an edge connects a node already in a cluster to a *center* of
/// another cluster, the two clusters are merged. Less fragmenting than
/// center, less chaining than connected components.
pub fn merge_center_clustering(edges: &[(Pair, f64)], num_profiles: usize) -> EntityClusters {
    let mut state = vec![NodeState::Unassigned; num_profiles];
    let mut uf = UnionFind::new(num_profiles);
    for (pair, _) in sorted_edges(edges) {
        let (a, b) = (pair.first.index(), pair.second.index());
        match (state[a], state[b]) {
            (NodeState::Unassigned, NodeState::Unassigned) => {
                state[a] = NodeState::Center;
                state[b] = NodeState::Child(pair.first.0);
                uf.union(a, b);
            }
            (NodeState::Center, NodeState::Unassigned) => {
                state[b] = NodeState::Child(pair.first.0);
                uf.union(a, b);
            }
            (NodeState::Unassigned, NodeState::Center) => {
                state[a] = NodeState::Child(pair.second.0);
                uf.union(a, b);
            }
            // Merge step: a settled node touching a foreign center pulls the
            // clusters together.
            (NodeState::Child(_), NodeState::Center) | (NodeState::Center, NodeState::Child(_)) => {
                uf.union(a, b);
            }
            (NodeState::Center, NodeState::Center) => {
                uf.union(a, b);
            }
            _ => {}
        }
    }
    labels_from_unionfind(uf)
}

/// Star clustering (Hassanzadeh et al.): nodes are visited in descending
/// order of *degree* (tie-broken by id); an unassigned node becomes a star
/// center and absorbs all its still-unassigned neighbors. Produces compact,
/// hub-shaped clusters; unlike [`center_clustering`] the scan is
/// node-driven, so a well-connected node claims its whole neighborhood at
/// once.
pub fn star_clustering(edges: &[(Pair, f64)], num_profiles: usize) -> EntityClusters {
    assert!(
        edges.iter().all(|(_, s)| !s.is_nan()),
        "similarity scores must not be NaN"
    );
    // Weighted adjacency (max weight per neighbor).
    let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); num_profiles];
    for (pair, w) in edges {
        adjacency[pair.first.index()].push((pair.second.0, *w));
        adjacency[pair.second.index()].push((pair.first.0, *w));
    }
    for neighbors in &mut adjacency {
        neighbors.sort_by(|(na, wa), (nb, wb)| {
            na.cmp(nb)
                .then(wb.partial_cmp(wa).expect("NaN checked above"))
        });
        neighbors.dedup_by_key(|(n, _)| *n); // keeps the max weight per neighbor
    }

    // Phase 1: greedy center selection by descending degree. A node becomes
    // a center unless it is already covered by an earlier center.
    let mut order: Vec<usize> = (0..num_profiles).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(adjacency[i].len()), i));
    let mut is_center = vec![false; num_profiles];
    let mut covered = vec![false; num_profiles];
    for v in order {
        if covered[v] || adjacency[v].is_empty() {
            continue;
        }
        is_center[v] = true;
        covered[v] = true;
        for &(n, _) in &adjacency[v] {
            covered[n as usize] = true;
        }
    }

    // Phase 2: every non-center joins its most similar adjacent center
    // (ties: smaller center id) — the framework's satellite assignment.
    let mut uf = UnionFind::new(num_profiles);
    for v in 0..num_profiles {
        if is_center[v] {
            continue;
        }
        let best = adjacency[v]
            .iter()
            .filter(|(n, _)| is_center[*n as usize])
            .max_by(|(na, wa), (nb, wb)| {
                wa.partial_cmp(wb)
                    .expect("NaN checked above")
                    .then(nb.cmp(na))
            });
        if let Some(&(center, _)) = best {
            uf.union(v, center as usize);
        }
    }
    labels_from_unionfind(uf)
}

/// Unique-mapping clustering: greedy maximum-weight one-to-one matching,
/// valid for clean–clean tasks where each source is duplicate-free (every
/// entity has at most one profile per source, so clusters have ≤ 2
/// members).
///
/// Edges must connect profiles of different sources (the blocker guarantees
/// this for clean–clean tasks); with `separator` = first id of source 1,
/// same-source edges are rejected with a panic, as accepting them would
/// silently violate the algorithm's contract.
pub fn unique_mapping_clustering(
    edges: &[(Pair, f64)],
    num_profiles: usize,
    separator: u32,
) -> EntityClusters {
    let mut used = vec![false; num_profiles];
    let mut uf = UnionFind::new(num_profiles);
    for (pair, _) in sorted_edges(edges) {
        assert!(
            (pair.first.0 < separator) != (pair.second.0 < separator),
            "unique-mapping clustering requires cross-source pairs, got {pair}"
        );
        let (a, b) = (pair.first.index(), pair.second.index());
        if !used[a] && !used[b] {
            used[a] = true;
            used[b] = true;
            uf.union(a, b);
        }
    }
    labels_from_unionfind(uf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn edge(a: u32, b: u32, s: f64) -> (Pair, f64) {
        (Pair::new(pid(a), pid(b)), s)
    }

    #[test]
    fn connected_components_transitivity() {
        let c = connected_components(&[edge(0, 1, 0.9), edge(1, 2, 0.5)], 4);
        assert!(c.same_entity(pid(0), pid(2)));
        assert!(!c.same_entity(pid(0), pid(3)));
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn connected_components_no_edges_all_singletons() {
        let c = connected_components(&[], 3);
        assert_eq!(c.num_clusters(), 3);
        assert!(c.non_trivial_clusters().is_empty());
    }

    #[test]
    fn center_breaks_chains() {
        // Chain 0-1-2 with strong then weak edges: center clustering makes 0
        // the center of {0,1}; edge (1,2) connects a child to an unassigned
        // node, so 2 stays out (later becoming nothing — singleton).
        let c = center_clustering(&[edge(0, 1, 0.9), edge(1, 2, 0.8)], 3);
        assert!(c.same_entity(pid(0), pid(1)));
        assert!(!c.same_entity(pid(1), pid(2)));
    }

    #[test]
    fn center_attaches_to_existing_center() {
        let c = center_clustering(&[edge(0, 1, 0.9), edge(0, 2, 0.8)], 3);
        assert!(c.same_entity(pid(0), pid(1)));
        assert!(c.same_entity(pid(0), pid(2)));
    }

    #[test]
    fn merge_center_merges_via_shared_child() {
        // {0,1} forms with center 0; {2,3} forms with center 2; then an edge
        // from child 1 to center 2 merges the clusters.
        let c = merge_center_clustering(&[edge(0, 1, 0.9), edge(2, 3, 0.85), edge(1, 2, 0.8)], 4);
        assert!(c.same_entity(pid(0), pid(3)));
        assert_eq!(c.num_clusters(), 1);
        // Plain center clustering keeps them apart.
        let c2 = center_clustering(&[edge(0, 1, 0.9), edge(2, 3, 0.85), edge(1, 2, 0.8)], 4);
        assert!(!c2.same_entity(pid(0), pid(3)));
    }

    #[test]
    fn unique_mapping_is_one_to_one() {
        // Source 0 = {0,1}, source 1 = {2,3} (separator 2). Profile 0 is
        // similar to both 2 and 3; it must claim only the best (3).
        let c =
            unique_mapping_clustering(&[edge(0, 3, 0.95), edge(0, 2, 0.9), edge(1, 2, 0.8)], 4, 2);
        assert!(c.same_entity(pid(0), pid(3)));
        assert!(c.same_entity(pid(1), pid(2)));
        assert!(!c.same_entity(pid(0), pid(2)));
    }

    #[test]
    #[should_panic(expected = "cross-source")]
    fn unique_mapping_rejects_same_source_edges() {
        unique_mapping_clustering(&[edge(0, 1, 0.9)], 4, 2);
    }

    #[test]
    fn deterministic_under_tie_scores() {
        let edges = vec![edge(0, 1, 0.5), edge(2, 3, 0.5), edge(1, 2, 0.5)];
        let a = center_clustering(&edges, 4);
        let mut rev = edges.clone();
        rev.reverse();
        let b = center_clustering(&rev, 4);
        assert_eq!(a, b, "input order must not matter");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_scores_rejected() {
        center_clustering(&[edge(0, 1, f64::NAN)], 2);
    }

    #[test]
    fn star_clustering_hub_claims_neighborhood() {
        // Node 0 (degree 3) stars first, covering 1, 2, 3; node 4 is left
        // uncovered and stars too. Satellite 3 then joins its most similar
        // center — 4 (0.95) over 0 (0.7) — and the chain 0…4 that connected
        // components would build is broken into two stars.
        let edges = vec![
            edge(0, 1, 0.9),
            edge(0, 2, 0.8),
            edge(0, 3, 0.7),
            edge(3, 4, 0.95),
        ];
        let c = star_clustering(&edges, 5);
        assert!(c.same_entity(pid(0), pid(1)));
        assert!(c.same_entity(pid(0), pid(2)));
        assert!(c.same_entity(pid(3), pid(4)), "3 joins its closest center");
        assert!(!c.same_entity(pid(0), pid(3)), "chain broken between stars");
        // Connected components would chain all five together.
        assert!(connected_components(&edges, 5).same_entity(pid(0), pid(4)));
    }

    #[test]
    fn star_satellites_join_most_similar_center() {
        // Two centers 0 and 5 (degree 2 each); satellite 2 is adjacent to
        // both and must join the more similar center 5.
        let edges = vec![
            edge(0, 1, 0.9),
            edge(0, 2, 0.3),
            edge(5, 2, 0.8),
            edge(5, 6, 0.9),
        ];
        let c = star_clustering(&edges, 7);
        assert!(c.same_entity(pid(2), pid(5)), "2 joins the closer center");
        assert!(!c.same_entity(pid(2), pid(0)));
    }

    #[test]
    fn star_clustering_isolated_nodes_are_singletons() {
        let c = star_clustering(&[edge(0, 1, 0.5)], 4);
        assert_eq!(c.num_clusters(), 3);
        assert!(c.same_entity(pid(0), pid(1)));
    }

    #[test]
    fn star_clustering_deterministic() {
        let edges = vec![edge(0, 1, 0.5), edge(1, 2, 0.5), edge(2, 3, 0.5)];
        let mut rev = edges.clone();
        rev.reverse();
        assert_eq!(star_clustering(&edges, 4), star_clustering(&rev, 4));
    }

    #[test]
    fn all_algorithms_agree_on_clean_pairs() {
        // Two well-separated duplicates: every algorithm finds the same
        // clustering.
        let edges = vec![edge(0, 2, 0.9), edge(1, 3, 0.8)];
        let cc = connected_components(&edges, 4);
        let ce = center_clustering(&edges, 4);
        let mc = merge_center_clustering(&edges, 4);
        let um = unique_mapping_clustering(&edges, 4, 2);
        let st = star_clustering(&edges, 4);
        assert_eq!(cc, ce);
        assert_eq!(cc, mc);
        assert_eq!(cc, um);
        assert_eq!(cc, st);
    }
}
