//! Candidate graph: the pruned blocking graph's edges in CSR form, plus the
//! pool-parallel batch scorer that streams them to a matcher.
//!
//! The blocker hands the matcher a *set* of candidate pairs. The dataflow
//! matcher used to materialize that set as one global sorted `Vec<Pair>`
//! before distributing it; at scale the sort and the copy are pure
//! overhead, and equal-count pair partitions inherit the blocking graph's
//! skew (a hub profile's pairs land contiguously). [`CandidateGraph`]
//! instead lays the pairs out as per-profile neighbor lists — six-machine-
//! word CSR, built by counting sort — so the scorer streams each profile's
//! candidates out of its neighborhood, costs are per-profile degrees, and
//! no global pair vector ever exists.
//!
//! [`filter_candidates_pool`] is the execution half: profile ids are
//! partitioned by candidate-degree cost hints (`parallelize_by_cost`),
//! executed as dynamically claimed morsels with per-worker scratch
//! ([`WorkerLocal`]), and each morsel emits a sorted [`SimilarityGraph`]
//! shard. Contiguous id cuts + slot-indexed shard merge make the
//! concatenation globally sorted, so the result is byte-identical to the
//! sequential matcher at any worker count.

use crate::graph::SimilarityGraph;
use sparker_dataflow::{Broadcast, Context, MemBudget, RunCursor, SpillRun, WorkerLocal};
use sparker_profiles::{Pair, ProfileId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The candidate pairs of a pruned blocking graph in CSR form: each pair is
/// stored once, under its smaller endpoint, with neighbor lists sorted by
/// id. Layout is a pure function of the pair *set* — building from any
/// iteration order (e.g. a `HashSet`) yields identical bytes.
#[derive(Debug, Clone)]
pub struct CandidateGraph {
    /// `offsets[i]..offsets[i + 1]` bounds profile `i`'s neighbor run.
    offsets: Vec<usize>,
    /// Larger endpoints, sorted ascending within each profile's run.
    neighbors: Vec<ProfileId>,
}

impl CandidateGraph {
    /// Build from candidate pairs by counting sort. The iterator is walked
    /// twice (count, then fill), which is why it must be `Clone` — pass
    /// `set.iter().copied()` style borrows, not owned buffers.
    pub fn from_pairs<I>(num_profiles: usize, pairs: I) -> Self
    where
        I: Iterator<Item = Pair> + Clone,
    {
        let mut offsets = vec![0usize; num_profiles + 1];
        for p in pairs.clone() {
            assert!(
                p.second.index() < num_profiles,
                "candidate {p} out of range for {num_profiles} profiles"
            );
            offsets[p.first.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![ProfileId(0); offsets[num_profiles]];
        for p in pairs {
            neighbors[cursor[p.first.index()]] = p.second;
            cursor[p.first.index()] += 1;
        }
        // Neighbor runs sorted by id: emission order becomes globally
        // sorted, independent of the input iteration order.
        for i in 0..num_profiles {
            neighbors[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        CandidateGraph { offsets, neighbors }
    }

    /// Build from candidate pairs under a memory budget by external sort:
    /// pairs stream into a bounded buffer; full buffers are sorted and
    /// spilled as [`SpillRun`]s, then k-way merged back. The merged stream
    /// is globally sorted by `(first, second)`, so the CSR arrays fill in
    /// one pass with no per-profile sort — bit-identical to
    /// [`CandidateGraph::from_pairs`] (pinned by proptest). With an
    /// unlimited budget everything stays in RAM as a single sorted run.
    pub fn from_pairs_budgeted<I>(num_profiles: usize, pairs: I, budget: &MemBudget) -> Self
    where
        I: Iterator<Item = Pair>,
    {
        let run_len = if budget.is_limited() {
            budget.chunk_len(usize::MAX, std::mem::size_of::<Pair>())
        } else {
            usize::MAX
        };
        Self::from_pairs_external(num_profiles, pairs, budget, run_len)
    }

    /// External-sort body of [`CandidateGraph::from_pairs_budgeted`] with
    /// an explicit in-RAM run length (tests force tiny runs through it).
    fn from_pairs_external<I>(
        num_profiles: usize,
        pairs: I,
        budget: &MemBudget,
        run_len: usize,
    ) -> Self
    where
        I: Iterator<Item = Pair>,
    {
        let run_len = run_len.max(1);
        let mut buf: Vec<Pair> = Vec::new();
        let mut runs: Vec<SpillRun> = Vec::new();
        for p in pairs {
            assert!(
                p.second.index() < num_profiles,
                "candidate {p} out of range for {num_profiles} profiles"
            );
            buf.push(p);
            if buf.len() >= run_len {
                buf.sort_unstable();
                runs.push(SpillRun::write(budget, &buf).expect("spill candidate run"));
                buf.clear();
            }
        }
        buf.sort_unstable();

        let mut offsets = vec![0usize; num_profiles + 1];
        let mut neighbors: Vec<ProfileId> = Vec::new();
        if runs.is_empty() {
            neighbors.reserve(buf.len());
            for p in &buf {
                offsets[p.first.index() + 1] += 1;
                neighbors.push(p.second);
            }
        } else {
            if !buf.is_empty() {
                runs.push(SpillRun::write(budget, &buf).expect("spill candidate run"));
                drop(std::mem::take(&mut buf));
            }
            let mut cursors: Vec<RunCursor<Pair>> = runs
                .iter()
                .map(|r| r.cursor().expect("open candidate run"))
                .collect();
            // Merge heap keyed by (pair, run index); equal pairs are
            // identical records, so the tie-break never changes the output.
            let mut heap: BinaryHeap<Reverse<(Pair, usize)>> = BinaryHeap::new();
            for (i, c) in cursors.iter_mut().enumerate() {
                if let Some(p) = c.next_record().expect("read candidate run") {
                    heap.push(Reverse((p, i)));
                }
            }
            while let Some(Reverse((p, i))) = heap.pop() {
                offsets[p.first.index() + 1] += 1;
                neighbors.push(p.second);
                if let Some(next) = cursors[i].next_record().expect("read candidate run") {
                    heap.push(Reverse((next, i)));
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        CandidateGraph { offsets, neighbors }
    }

    /// Number of profiles (nodes).
    pub fn num_profiles(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of candidate pairs (edges).
    pub fn num_candidates(&self) -> usize {
        self.neighbors.len()
    }

    /// The candidates stored under `id` (their larger endpoints), sorted.
    pub fn candidates_of(&self, id: ProfileId) -> &[ProfileId] {
        &self.neighbors[self.offsets[id.index()]..self.offsets[id.index() + 1]]
    }

    /// Per-profile scheduling cost: stored candidate degree + 1 (the +1
    /// keeps isolated profiles advancing the cost prefix, as in the
    /// meta-blocking scheduler).
    pub fn costs(&self) -> Vec<u64> {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u64 + 1)
            .collect()
    }
}

/// Morsel grain shared with the meta-blocking scheduler: roughly
/// `32 × workers` claimable tasks overall.
fn morsel_grain(num_nodes: usize, ctx: &Context) -> usize {
    (num_nodes / (ctx.workers() * 32)).max(1)
}

/// Decide every candidate of `graph` on the worker pool: `decide(scratch,
/// a, b)` returns `Some(score)` for pairs to retain — the seam the
/// filter–verify cascade plugs into (a pair can be rejected without ever
/// computing its score).
///
/// `locals` holds one per-worker-slot scratch value (reused across
/// morsels); the caller keeps the `Arc` and can drain per-slot state (e.g.
/// filter statistics) after the run, when the pool's clone has been
/// dropped. `decide` must be a pure function of the pair for the
/// determinism guarantee to hold. Profile ids are cost-partitioned by
/// candidate degree and executed as dynamically claimed morsels; each
/// morsel's sorted shard is merged slot-indexed, so the output equals the
/// sequential scorer's bytes at any worker count.
pub fn filter_candidates_pool<W, F>(
    ctx: &Context,
    graph: &Arc<CandidateGraph>,
    locals: &Arc<WorkerLocal<W>>,
    decide: F,
) -> SimilarityGraph
where
    W: Send,
    F: Fn(&mut W, ProfileId, ProfileId) -> Option<f64> + Send + Sync,
{
    let num_nodes = graph.num_profiles();
    let costs = graph.costs();
    let grain = morsel_grain(num_nodes, ctx);
    let b_graph: Broadcast<CandidateGraph> = ctx.broadcast(Arc::clone(graph));
    let locals = Arc::clone(locals);
    let ids: Vec<u32> = (0..num_nodes as u32).collect();
    let shards = ctx
        .parallelize_by_cost_default(ids, &costs)
        .map_morsels_named("match_candidates", grain, move |worker, nodes| {
            locals.with(worker, |scr| {
                let mut shard = Vec::new();
                for &i in nodes {
                    let node = ProfileId(i);
                    for &j in b_graph.candidates_of(node) {
                        if let Some(s) = decide(scr, node, j) {
                            shard.push((Pair::new(node, j), s));
                        }
                    }
                }
                shard
            })
        });
    SimilarityGraph::from_sorted_shards(shards.into_partitions())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn pair(a: u32, b: u32) -> Pair {
        Pair::new(ProfileId(a), ProfileId(b))
    }

    #[test]
    fn csr_layout_independent_of_input_order() {
        let fwd = [pair(0, 3), pair(0, 1), pair(2, 3), pair(1, 4)];
        let mut rev = fwd;
        rev.reverse();
        let a = CandidateGraph::from_pairs(5, fwd.iter().copied());
        let b = CandidateGraph::from_pairs(5, rev.iter().copied());
        assert_eq!(a.candidates_of(ProfileId(0)), &[ProfileId(1), ProfileId(3)]);
        assert_eq!(a.candidates_of(ProfileId(3)), &[] as &[ProfileId]);
        for i in 0..5 {
            assert_eq!(a.candidates_of(ProfileId(i)), b.candidates_of(ProfileId(i)));
        }
        assert_eq!(a.num_candidates(), 4);
        assert_eq!(a.num_profiles(), 5);
    }

    #[test]
    fn costs_are_degree_plus_one() {
        let g = CandidateGraph::from_pairs(4, [pair(0, 1), pair(0, 2), pair(1, 3)].into_iter());
        assert_eq!(g.costs(), vec![3, 2, 1, 1]);
    }

    #[test]
    fn from_hashset_iteration_is_deterministic() {
        let set: HashSet<Pair> = (0..20u32)
            .flat_map(|a| (a + 1..20).map(move |b| pair(a, b)))
            .collect();
        let a = CandidateGraph::from_pairs(20, set.iter().copied());
        let b = CandidateGraph::from_pairs(20, set.iter().copied());
        for i in 0..20 {
            assert_eq!(a.candidates_of(ProfileId(i)), b.candidates_of(ProfileId(i)));
        }
        assert_eq!(a.num_candidates(), 190);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_candidate_rejected() {
        CandidateGraph::from_pairs(3, [pair(0, 7)].into_iter());
    }

    #[test]
    fn budgeted_build_spills_runs_and_matches_in_ram() {
        // Adversarial order (descending, with duplicates) across a tiny
        // budget: the external sort must spill several runs and still
        // reproduce the in-RAM counting sort bit for bit.
        let mut pairs: Vec<Pair> = (0..60u32)
            .rev()
            .flat_map(|a| {
                (a + 1..60)
                    .rev()
                    .filter(move |b| (a + b) % 3 != 0)
                    .map(move |b| pair(a, b))
            })
            .collect();
        let dup = pairs[5];
        pairs.push(dup);
        let in_ram = CandidateGraph::from_pairs(60, pairs.iter().copied());
        let budget = MemBudget::limited(1);
        for run_len in [1usize, 7, 100, 1 << 20] {
            let spilled =
                CandidateGraph::from_pairs_external(60, pairs.iter().copied(), &budget, run_len);
            assert_eq!(spilled.offsets, in_ram.offsets, "run_len={run_len}");
            assert_eq!(spilled.neighbors, in_ram.neighbors, "run_len={run_len}");
        }
        assert!(budget.spilled_bytes() > 0, "short runs must spill to disk");
        let unlimited =
            CandidateGraph::from_pairs_budgeted(60, pairs.iter().copied(), &MemBudget::unlimited());
        assert_eq!(unlimited.offsets, in_ram.offsets);
        assert_eq!(unlimited.neighbors, in_ram.neighbors);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn budgeted_out_of_range_candidate_rejected() {
        CandidateGraph::from_pairs_budgeted(3, [pair(0, 7)].into_iter(), &MemBudget::unlimited());
    }

    #[test]
    fn pool_scorer_equals_sequential_filtering() {
        let pairs = [pair(0, 1), pair(0, 2), pair(1, 2), pair(2, 3)];
        let g = Arc::new(CandidateGraph::from_pairs(4, pairs.iter().copied()));
        // Deterministic synthetic score: depends only on the pair.
        let score = |a: ProfileId, b: ProfileId| f64::from(a.0 + b.0) / 10.0;
        let expected = SimilarityGraph::new(
            pairs
                .iter()
                .filter_map(|p| {
                    let s = score(p.first, p.second);
                    (s >= 0.3).then_some((*p, s))
                })
                .collect::<Vec<_>>(),
        );
        for workers in [1, 2, 8] {
            let ctx = Context::new(workers);
            let locals = Arc::new(WorkerLocal::new(workers, || ()));
            let got = filter_candidates_pool(&ctx, &g, &locals, move |_, a, b| {
                let s = score(a, b);
                (s >= 0.3).then_some(s)
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn pool_scorer_empty_graph() {
        let g = Arc::new(CandidateGraph::from_pairs(3, std::iter::empty()));
        let ctx = Context::new(2);
        let locals = Arc::new(WorkerLocal::new(2, || ()));
        let out = filter_candidates_pool(&ctx, &g, &locals, |_: &mut (), _, _| Some(1.0));
        assert!(out.is_empty());
    }

    mod budgeted_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_external_sort_equals_counting_sort(
                edges in prop::collection::vec((0u32..30, 0u32..30), 0..200),
                run_len in 1usize..50,
            ) {
                let pairs: Vec<Pair> = edges
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| pair(a, b))
                    .collect();
                let in_ram = CandidateGraph::from_pairs(30, pairs.iter().copied());
                let budget = MemBudget::limited(1);
                let external = CandidateGraph::from_pairs_external(
                    30,
                    pairs.iter().copied(),
                    &budget,
                    run_len,
                );
                prop_assert_eq!(&external.offsets, &in_ram.offsets);
                prop_assert_eq!(&external.neighbors, &in_ram.neighbors);
            }
        }
    }
}
