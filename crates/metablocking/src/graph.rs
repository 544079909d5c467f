//! The blocking graph: implicit edges materialized one neighborhood at a
//! time.
//!
//! Meta-blocking never stores the full edge set — for big collections it
//! would dwarf the input. Instead, a node's neighborhood is materialized on
//! demand from the inverted block index, the pruning rule is applied, and
//! the edges are discarded; this is exactly the structure SparkER
//! parallelizes with its broadcast join.

use crate::entropy::BlockEntropies;
use sparker_blocking::{BlockCollection, CompactBlocks};
use sparker_profiles::{ErKind, ProfileId};

/// Per-edge co-occurrence statistics accumulated while scanning shared
/// blocks; the input of every [`crate::WeightScheme`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeAccumulator {
    /// Number of shared blocks (CBS).
    pub shared_blocks: u32,
    /// Σ over shared blocks of `1 / comparisons(block)` (ARCS).
    pub arcs: f64,
    /// Σ over shared blocks of the block's entropy (entropy re-weighting).
    pub entropy_sum: f64,
}

/// Reusable accumulation buffer for [`BlockGraph::neighborhood_with`]:
/// a dense per-profile accumulator plus a bitmap of the touched slots,
/// reset after every call. Avoids per-node hashing, sorting of neighbor
/// ids and allocation in meta-blocking's hot loop.
#[derive(Debug, Clone)]
pub struct NeighborhoodScratch {
    acc: Vec<EdgeAccumulator>,
    /// One bit per profile slot, set while the slot holds a neighbor of
    /// the node being materialized; all-zero between calls.
    touched_bits: Vec<u64>,
    /// Indices of the non-zero words of `touched_bits`, in first-touch
    /// order: the emit sweep visits only these, so a sparse neighborhood
    /// never pays for the whole bitmap.
    touched_words: Vec<u32>,
    /// Output buffer of [`BlockGraph::neighborhood_buffered`], reused
    /// across nodes so a warm scratch makes the whole pass allocation-free.
    out: Vec<(ProfileId, EdgeAccumulator)>,
}

impl NeighborhoodScratch {
    /// Forward degree of `node` (neighbors with a larger id) read off the
    /// most recent [`BlockGraph::neighborhood_buffered`] output, which
    /// must have materialized `node` — without re-walking its blocks.
    pub(crate) fn last_forward_degree(&self, node: ProfileId) -> usize {
        self.out.len() - self.out.partition_point(|&(j, _)| j <= node)
    }
}

/// A compact, immutable view of the block collection, indexed both ways,
/// from which node neighborhoods are materialized.
///
/// This is precisely the structure SparkER broadcasts to every partition in
/// its parallel meta-blocking. Both indexes are CSR-packed (one flat array
/// plus offsets), so the whole graph is six contiguous allocations — cheap
/// to build, clone and broadcast, friendly to the cache in the
/// neighborhood-materialization hot loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGraph {
    kind: ErKind,
    /// Members of every block, back to back; block `b` occupies
    /// `block_offsets[b]..block_offsets[b + 1]`, source-0 prefix first,
    /// each side sorted.
    block_members: Vec<ProfileId>,
    block_offsets: Vec<u32>,
    /// Length of the source-0 prefix of block `b`'s members.
    block_split: Vec<u32>,
    /// Comparisons per block.
    block_comparisons: Vec<u64>,
    /// Block ids per profile, back to back; profile `p` occupies
    /// `profile_offsets[p]..profile_offsets[p + 1]`, ascending.
    profile_blocks: Vec<u32>,
    profile_offsets: Vec<u32>,
    /// Optional per-block entropies.
    entropies: Option<Vec<f64>>,
    /// Total profile→block assignments (Σ block sizes).
    total_assignments: u64,
    num_profiles: usize,
}

impl BlockGraph {
    /// Build the graph view. `entropies`, when given, must align with the
    /// block collection.
    pub fn new(blocks: &BlockCollection, entropies: Option<&BlockEntropies>) -> Self {
        if let Some(e) = entropies {
            assert_eq!(e.len(), blocks.len(), "entropies misaligned with blocks");
        }
        let kind = blocks.kind();
        let mut block_members = Vec::new();
        let mut block_offsets = Vec::with_capacity(blocks.len() + 1);
        block_offsets.push(0u32);
        let mut block_split = Vec::with_capacity(blocks.len());
        let mut block_comparisons = Vec::with_capacity(blocks.len());
        let mut max_profile = 0usize;
        for b in blocks.blocks() {
            block_members.extend(b.all_members());
            block_offsets.push(block_members.len() as u32);
            if let Some(m) = b.all_members().map(|p| p.index()).max() {
                max_profile = max_profile.max(m + 1);
            }
            block_split.push(b.members[0].len() as u32);
            block_comparisons.push(b.comparisons(kind));
        }
        Self::assemble(
            kind,
            block_members,
            block_offsets,
            block_split,
            block_comparisons,
            entropies.map(|e| e.as_slice().to_vec()),
            max_profile,
        )
    }

    /// Build the graph view straight from a CSR [`CompactBlocks`]: the flat
    /// member and offset arrays are adopted wholesale (one memcpy each, no
    /// per-block vectors are ever created). `entropies`, when given, must
    /// align with the compact blocks.
    pub fn from_compact(blocks: &CompactBlocks, entropies: Option<&BlockEntropies>) -> Self {
        if let Some(e) = entropies {
            assert_eq!(e.len(), blocks.len(), "entropies misaligned with blocks");
        }
        let (offsets, splits, members) = blocks.raw_parts();
        let block_comparisons = (0..blocks.len()).map(|b| blocks.comparisons(b)).collect();
        Self::assemble(
            blocks.kind(),
            members.to_vec(),
            offsets.to_vec(),
            splits.to_vec(),
            block_comparisons,
            entropies.map(|e| e.as_slice().to_vec()),
            blocks.num_profiles(),
        )
    }

    /// [`BlockGraph::new`] with the profile→blocks index built over
    /// bounded profile ranges when `budget` is limited; bit-identical to
    /// the monolithic assemble either way (pinned by proptest).
    pub fn new_budgeted(
        blocks: &BlockCollection,
        entropies: Option<&BlockEntropies>,
        budget: &sparker_dataflow::MemBudget,
    ) -> Self {
        let g = Self::new(blocks, entropies);
        // `new` gathers the flat arrays anyway; re-run only the index
        // build chunked when a budget applies.
        if budget.is_limited() {
            let chunk = budget.chunk_len(g.num_profiles, 8);
            return Self::assemble_chunked(
                g.kind,
                g.block_members,
                g.block_offsets,
                g.block_split,
                g.block_comparisons,
                g.entropies,
                g.num_profiles,
                chunk,
            );
        }
        g
    }

    /// [`BlockGraph::from_compact`] under a memory budget: the
    /// profile→blocks counting sort runs over fixed-size profile ranges,
    /// so its scatter cursor is bounded by the range instead of the whole
    /// profile space. Bit-identical to [`BlockGraph::from_compact`].
    pub fn from_compact_budgeted(
        blocks: &CompactBlocks,
        entropies: Option<&BlockEntropies>,
        budget: &sparker_dataflow::MemBudget,
    ) -> Self {
        if !budget.is_limited() {
            return Self::from_compact(blocks, entropies);
        }
        if let Some(e) = entropies {
            assert_eq!(e.len(), blocks.len(), "entropies misaligned with blocks");
        }
        let (offsets, splits, members) = blocks.raw_parts();
        let block_comparisons = (0..blocks.len()).map(|b| blocks.comparisons(b)).collect();
        let chunk = budget.chunk_len(blocks.num_profiles(), 8);
        Self::assemble_chunked(
            blocks.kind(),
            members.to_vec(),
            offsets.to_vec(),
            splits.to_vec(),
            block_comparisons,
            entropies.map(|e| e.as_slice().to_vec()),
            blocks.num_profiles(),
            chunk,
        )
    }

    /// Shared tail of the constructors: build the profile→blocks CSR index
    /// by counting sort over the flat member array.
    fn assemble(
        kind: ErKind,
        block_members: Vec<ProfileId>,
        block_offsets: Vec<u32>,
        block_split: Vec<u32>,
        block_comparisons: Vec<u64>,
        entropies: Option<Vec<f64>>,
        num_profiles: usize,
    ) -> Self {
        let total_assignments = block_members.len() as u64;
        let mut profile_offsets = vec![0u32; num_profiles + 1];
        for p in &block_members {
            profile_offsets[p.index() + 1] += 1;
        }
        for i in 1..profile_offsets.len() {
            profile_offsets[i] += profile_offsets[i - 1];
        }
        let mut profile_blocks = vec![0u32; block_members.len()];
        let mut cursor = profile_offsets.clone();
        let num_blocks = block_offsets.len() - 1;
        // Ascending block id keeps each profile's block list sorted.
        for b in 0..num_blocks {
            for p in &block_members[block_offsets[b] as usize..block_offsets[b + 1] as usize] {
                profile_blocks[cursor[p.index()] as usize] = b as u32;
                cursor[p.index()] += 1;
            }
        }
        BlockGraph {
            kind,
            block_members,
            block_offsets,
            block_split,
            block_comparisons,
            profile_blocks,
            profile_offsets,
            entropies,
            total_assignments,
            num_profiles,
        }
    }

    /// [`BlockGraph::assemble`] with the fill pass chunked over profile
    /// ranges of `chunk_profiles`: the scatter cursor is allocated per
    /// range instead of once for the whole profile space, bounding the
    /// build's extra working memory. Each profile's writes still happen in
    /// ascending block-id order, so the output is bit-identical to the
    /// monolithic pass.
    #[allow(clippy::too_many_arguments)]
    fn assemble_chunked(
        kind: ErKind,
        block_members: Vec<ProfileId>,
        block_offsets: Vec<u32>,
        block_split: Vec<u32>,
        block_comparisons: Vec<u64>,
        entropies: Option<Vec<f64>>,
        num_profiles: usize,
        chunk_profiles: usize,
    ) -> Self {
        let chunk_profiles = chunk_profiles.max(1);
        let total_assignments = block_members.len() as u64;
        let mut profile_offsets = vec![0u32; num_profiles + 1];
        for p in &block_members {
            profile_offsets[p.index() + 1] += 1;
        }
        for i in 1..profile_offsets.len() {
            profile_offsets[i] += profile_offsets[i - 1];
        }
        let mut profile_blocks = vec![0u32; block_members.len()];
        let num_blocks = block_offsets.len() - 1;
        let mut p0 = 0usize;
        while p0 < num_profiles {
            let p1 = (p0 + chunk_profiles).min(num_profiles);
            let mut cursor: Vec<u32> = profile_offsets[p0..p1].to_vec();
            for b in 0..num_blocks {
                for p in &block_members[block_offsets[b] as usize..block_offsets[b + 1] as usize] {
                    let i = p.index();
                    if (p0..p1).contains(&i) {
                        profile_blocks[cursor[i - p0] as usize] = b as u32;
                        cursor[i - p0] += 1;
                    }
                }
            }
            p0 = p1;
        }
        BlockGraph {
            kind,
            block_members,
            block_offsets,
            block_split,
            block_comparisons,
            profile_blocks,
            profile_offsets,
            entropies,
            total_assignments,
            num_profiles,
        }
    }

    /// Number of profile slots (max id + 1).
    pub fn num_profiles(&self) -> usize {
        self.num_profiles
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Members of block `b`: source-0 prefix then source-1, each sorted.
    fn members_of(&self, b: usize) -> &[ProfileId] {
        &self.block_members[self.block_offsets[b] as usize..self.block_offsets[b + 1] as usize]
    }

    /// Task kind of the underlying blocks.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Total profile→block assignments (Σ block sizes) — the *block
    /// cardinality* used to derive cardinality-pruning defaults.
    pub fn total_assignments(&self) -> u64 {
        self.total_assignments
    }

    /// `true` when per-block entropies are attached.
    pub fn has_entropies(&self) -> bool {
        self.entropies.is_some()
    }

    /// Blocks containing profile `i`, ascending.
    pub fn blocks_of(&self, i: ProfileId) -> &[u32] {
        if i.index() >= self.num_profiles {
            return &[];
        }
        &self.profile_blocks
            [self.profile_offsets[i.index()] as usize..self.profile_offsets[i.index() + 1] as usize]
    }

    /// Allocate a reusable scratch buffer for
    /// [`BlockGraph::neighborhood_with`]. One allocation serves any number
    /// of neighborhood materializations — the hot loop of meta-blocking.
    pub fn scratch(&self) -> NeighborhoodScratch {
        NeighborhoodScratch {
            acc: vec![EdgeAccumulator::default(); self.num_profiles],
            touched_bits: vec![0; self.num_profiles.div_ceil(64)],
            touched_words: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The comparable co-members of `node` within block `b` (for
    /// clean–clean, the other source's side; the node's side is located
    /// from the block's own sorted membership).
    fn candidates_of(&self, node: ProfileId, b: usize) -> &[ProfileId] {
        let members = self.members_of(b);
        match self.kind {
            ErKind::Dirty => members,
            ErKind::CleanClean => {
                let split = self.block_split[b] as usize;
                if members[..split].binary_search(&node).is_ok() {
                    &members[split..]
                } else {
                    &members[..split]
                }
            }
        }
    }

    /// Materialize the neighborhood of `node`: every comparable profile
    /// sharing ≥ 1 block, with accumulated co-occurrence statistics.
    /// Neighbors are returned sorted by id (deterministic).
    ///
    /// Convenience wrapper over [`BlockGraph::neighborhood_with`] that
    /// allocates a fresh scratch; loops over many nodes should hold one
    /// scratch and call `neighborhood_with` instead (dense-array
    /// accumulation, no hashing, no per-node allocation).
    pub fn neighborhood(&self, node: ProfileId) -> Vec<(ProfileId, EdgeAccumulator)> {
        let mut scratch = self.scratch();
        self.neighborhood_with(node, &mut scratch)
    }

    /// [`BlockGraph::neighborhood`] into a reusable [`NeighborhoodScratch`].
    ///
    /// For clean–clean tasks, only the other source's side of each block is
    /// scanned (same-source profiles are not comparable); the node's side
    /// within a block is determined from the block's own membership, so no
    /// external separator is needed.
    pub fn neighborhood_with(
        &self,
        node: ProfileId,
        scratch: &mut NeighborhoodScratch,
    ) -> Vec<(ProfileId, EdgeAccumulator)> {
        self.neighborhood_buffered(node, scratch).to_vec()
    }

    /// [`BlockGraph::neighborhood_with`] without the output allocation: the
    /// neighborhood is materialized into the scratch's reusable output
    /// buffer and returned as a borrow. After the first few nodes warm the
    /// buffers, a full pass over the graph performs **zero** heap
    /// allocations — the variant the meta-blocking hot loops use.
    pub fn neighborhood_buffered<'s>(
        &self,
        node: ProfileId,
        scratch: &'s mut NeighborhoodScratch,
    ) -> &'s [(ProfileId, EdgeAccumulator)] {
        self.materialize(node, scratch, false)
    }

    /// The forward half of [`BlockGraph::neighborhood_buffered`]: only the
    /// neighbors with an id greater than `node`, i.e. each edge from its
    /// lower endpoint — all a pass that counts every edge once needs.
    ///
    /// Block members are sorted (per side), so the forward co-members of a
    /// block are the suffix past `node`, found by `partition_point`; the
    /// backward half is never touched. Every forward neighbor receives its
    /// contributions from the same blocks in the same ascending block
    /// order as in the full walk, so the output is bit-identical to the
    /// `j > node` suffix of `neighborhood_buffered` (pinned by proptest).
    pub fn forward_neighborhood<'s>(
        &self,
        node: ProfileId,
        scratch: &'s mut NeighborhoodScratch,
    ) -> &'s [(ProfileId, EdgeAccumulator)] {
        self.materialize(node, scratch, true)
    }

    /// Shared body of the two neighborhood walks: accumulate the
    /// co-members of `node` (only those with a larger id when `forward`),
    /// then emit them ascending via the bitmap sweep.
    fn materialize<'s>(
        &self,
        node: ProfileId,
        scratch: &'s mut NeighborhoodScratch,
        forward: bool,
    ) -> &'s [(ProfileId, EdgeAccumulator)] {
        debug_assert_eq!(scratch.acc.len(), self.num_profiles, "foreign scratch");
        for &b in self.blocks_of(node) {
            let bi = b as usize;
            let comparisons = self.block_comparisons[bi].max(1) as f64;
            let entropy = self.entropies.as_ref().map_or(1.0, |e| e[bi]);
            let mut others = self.candidates_of(node, bi);
            if forward {
                others = &others[others.partition_point(|&p| p <= node)..];
            }
            for &other in others {
                if other == node {
                    continue;
                }
                let slot = &mut scratch.acc[other.index()];
                if slot.shared_blocks == 0 {
                    let word = &mut scratch.touched_bits[other.index() / 64];
                    if *word == 0 {
                        scratch.touched_words.push(other.0 / 64);
                    }
                    *word |= 1 << (other.0 % 64);
                }
                slot.shared_blocks += 1;
                slot.arcs += 1.0 / comparisons;
                slot.entropy_sum += entropy;
            }
        }
        // Ascending words, ascending bits within a word: neighbors come out
        // sorted by id having ordered only the (≤ degree, ≤ n/64) words.
        scratch.touched_words.sort_unstable();
        scratch.out.clear();
        for &w in &scratch.touched_words {
            let mut bits = std::mem::take(&mut scratch.touched_bits[w as usize]);
            while bits != 0 {
                let t = w as usize * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                scratch.out.push((ProfileId(t as u32), scratch.acc[t]));
                scratch.acc[t] = EdgeAccumulator::default();
            }
        }
        scratch.touched_words.clear();
        &scratch.out
    }

    /// Node degrees (distinct comparable neighbors per profile) and the
    /// total number of distinct edges — the global statistics EJS needs and
    /// the cost hints skew-aware partitioning feeds on.
    ///
    /// Counting-only: neighbors are deduplicated with an epoch-marked seen
    /// array instead of materializing accumulator-laden, sorted
    /// neighborhoods — no [`EdgeAccumulator`] writes, no sort, two
    /// allocations total.
    pub fn degrees(&self) -> (Vec<u32>, u64) {
        let mut degrees = vec![0u32; self.num_profiles];
        let mut seen = vec![u32::MAX; self.num_profiles];
        let mut edges = 0u64;
        for (i, slot) in degrees.iter_mut().enumerate() {
            let count = self.degree_of(ProfileId(i as u32), &mut seen);
            *slot = count;
            edges += u64::from(count);
        }
        (degrees, edges / 2)
    }

    /// Distinct comparable neighbors of one `node`, counted with the
    /// caller's epoch-marked `seen` array (length [`num_profiles`], entries
    /// initialized to `u32::MAX` — never a node id, since ids are
    /// `< num_profiles ≤ u32::MAX`). The node's own id is the epoch, so a
    /// single array serves any set of distinct nodes without resets —
    /// the unit of work node-parallel degree counting distributes
    /// ([`crate::parallel::degrees_parallel`]).
    ///
    /// [`num_profiles`]: BlockGraph::num_profiles
    pub fn degree_of(&self, node: ProfileId, seen: &mut [u32]) -> u32 {
        debug_assert_eq!(seen.len(), self.num_profiles, "foreign seen array");
        let mut count = 0u32;
        for &b in self.blocks_of(node) {
            for &other in self.candidates_of(node, b as usize) {
                if other != node && seen[other.index()] != node.0 {
                    seen[other.index()] = node.0;
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_blocking::token_blocking;
    use sparker_profiles::{Profile, ProfileCollection, SourceId};
    use std::collections::HashMap;

    pub(crate) fn figure1() -> (ProfileCollection, BlockCollection) {
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
        let blocks = token_blocking(&coll);
        (coll, blocks)
    }

    #[test]
    fn figure1_neighborhood_weights() {
        // Figure 1(c): w(p1,p3)=3 (blast, simonini, blocking), w(p1,p4)=1
        // (blast), w(p2,p3)=2, w(p2,p4)=2.
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        let n1 = g.neighborhood(ProfileId(0));
        let weights: HashMap<u32, u32> = n1.iter().map(|(p, a)| (p.0, a.shared_blocks)).collect();
        assert_eq!(weights[&2], 3);
        assert_eq!(weights[&3], 1);
        let n2 = g.neighborhood(ProfileId(1));
        let weights: HashMap<u32, u32> = n2.iter().map(|(p, a)| (p.0, a.shared_blocks)).collect();
        assert_eq!(weights[&2], 2);
        assert_eq!(weights[&3], 2);
    }

    #[test]
    fn clean_clean_excludes_same_source_neighbors() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        for i in 0..4u32 {
            for (n, _) in g.neighborhood(ProfileId(i)) {
                assert_ne!(
                    i < 2,
                    n.0 < 2,
                    "p{i} must not neighbor same-source p{}",
                    n.0
                );
            }
        }
    }

    #[test]
    fn neighborhoods_are_symmetric() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        for i in 0..4u32 {
            for (j, acc) in g.neighborhood(ProfileId(i)) {
                let back = g.neighborhood(j);
                let found = back.iter().find(|(p, _)| *p == ProfileId(i)).unwrap();
                assert_eq!(found.1, acc);
            }
        }
    }

    #[test]
    fn degrees_and_edge_count() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        let (degrees, edges) = g.degrees();
        assert_eq!(degrees, vec![2, 2, 2, 2]);
        assert_eq!(edges, 4);
    }

    #[test]
    fn counting_degrees_match_materialized_neighborhoods() {
        // The counting-only path must agree with full materialization on a
        // graph with repeated co-occurrence (shared blocks > 1 per pair).
        let coll = ProfileCollection::dirty(
            (0..40)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("t", format!("tok{} tok{} hub", i % 6, (i + 2) % 6))
                        .build()
                })
                .collect(),
        );
        let g = BlockGraph::new(&token_blocking(&coll), None);
        let (degrees, edges) = g.degrees();
        let mut expect_edges = 0u64;
        for (i, d) in degrees.iter().enumerate() {
            let n = g.neighborhood(ProfileId(i as u32));
            assert_eq!(*d as usize, n.len(), "node {i}");
            expect_edges += n.len() as u64;
        }
        assert_eq!(edges, expect_edges / 2);
    }

    #[test]
    fn buffered_neighborhood_equals_allocating_variant() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        let mut scratch = g.scratch();
        for i in 0..4u32 {
            let node = ProfileId(i);
            let owned = g.neighborhood(node);
            let borrowed = g.neighborhood_buffered(node, &mut scratch).to_vec();
            assert_eq!(owned, borrowed, "node {i}");
        }
    }

    /// The neighbor ids around the bitmap's word boundaries.
    const BOUNDARY_IDS: [u32; 6] = [0, 63, 64, 65, 127, 128];

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    fn assert_scratch_clean(scratch: &NeighborhoodScratch) {
        assert!(scratch.touched_bits.iter().all(|&w| w == 0), "bitmap dirty");
        assert!(scratch.touched_words.is_empty(), "word list dirty");
        assert!(
            scratch.acc.iter().all(|a| *a == EdgeAccumulator::default()),
            "accumulators dirty"
        );
    }

    #[test]
    fn dirty_neighbors_ascend_across_word_boundaries() {
        use sparker_blocking::Block;
        // Node 130 meets the boundary ids through blocks listed so that
        // first-touch order is neither id order nor word order; 130 slots
        // + 1 is not a multiple of 64, so the last bitmap word is partial.
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            vec![
                Block::dirty("a", ids(&[128, 130, 65])),
                Block::dirty("b", ids(&[0, 127, 130])),
                Block::dirty("c", ids(&[64, 63, 130, 128])),
            ],
        );
        let g = BlockGraph::new(&blocks, None);
        assert_eq!(g.num_profiles(), 131);
        let mut scratch = g.scratch();
        assert_eq!(scratch.touched_bits.len(), 3);
        let got = g.neighborhood_buffered(ProfileId(130), &mut scratch);
        let got_ids: Vec<u32> = got.iter().map(|(p, _)| p.0).collect();
        assert_eq!(got_ids, BOUNDARY_IDS);
        let shared: Vec<u32> = got.iter().map(|(_, a)| a.shared_blocks).collect();
        assert_eq!(shared, [1, 1, 1, 1, 1, 2]);
        assert_scratch_clean(&scratch);
    }

    #[test]
    fn clean_clean_neighbors_ascend_across_word_boundaries() {
        use sparker_blocking::Block;
        // Source 0 holds the boundary ids, source 1 the two probes; each
        // side sees only the other, in ascending id order although node
        // 200 first touches the bitmap words in descending order.
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            vec![
                Block::clean_clean("a", ids(&[128]), ids(&[200])),
                Block::clean_clean("b", ids(&[65, 127, 64]), ids(&[129, 200])),
                Block::clean_clean("c", ids(&[0, 63]), ids(&[200])),
            ],
        );
        let g = BlockGraph::new(&blocks, None);
        assert_eq!(g.num_profiles(), 201);
        let mut scratch = g.scratch();
        let probe = |node: u32, scratch: &mut NeighborhoodScratch| -> Vec<u32> {
            let out = g.neighborhood_buffered(ProfileId(node), scratch);
            out.iter().map(|(p, _)| p.0).collect()
        };
        assert_eq!(probe(200, &mut scratch), BOUNDARY_IDS);
        assert_scratch_clean(&scratch);
        assert_eq!(probe(129, &mut scratch), [64, 65, 127]);
        assert_eq!(probe(64, &mut scratch), [129, 200]);
        assert_eq!(probe(128, &mut scratch), [200]);
        assert_scratch_clean(&scratch);
    }

    #[test]
    fn forward_neighbors_cross_word_boundaries_and_leave_scratch_clean() {
        use sparker_blocking::Block;
        // Probes sit on either side of the bitmap's word boundaries; each
        // must see exactly its larger-id co-members, in id order, with the
        // full walk's accumulators, and leave the scratch as it found it.
        let dirty = BlockCollection::new(
            ErKind::Dirty,
            vec![
                Block::dirty("a", ids(&[128, 130, 65, 63])),
                Block::dirty("b", ids(&[0, 127, 130, 64])),
                Block::dirty("c", ids(&[64, 63, 130, 128, 127])),
            ],
        );
        let clean = BlockCollection::new(
            ErKind::CleanClean,
            vec![
                Block::clean_clean("a", ids(&[63, 128]), ids(&[129, 200])),
                Block::clean_clean("b", ids(&[0, 64, 127]), ids(&[65, 129])),
            ],
        );
        for blocks in [dirty, clean] {
            let g = BlockGraph::new(&blocks, None);
            let mut scratch = g.scratch();
            for node in [0, 63, 64, 65, 127, 128, 129, 130, 200] {
                let node = ProfileId(node);
                let full = g.neighborhood_buffered(node, &mut scratch).to_vec();
                assert_scratch_clean(&scratch);
                let forward = g.forward_neighborhood(node, &mut scratch).to_vec();
                assert_scratch_clean(&scratch);
                let suffix: Vec<_> = full.into_iter().filter(|&(j, _)| j > node).collect();
                assert_eq!(forward, suffix, "{:?} node {node}", blocks.kind());
                assert_eq!(scratch.last_forward_degree(node), forward.len());
            }
        }
        // Node 63 of the dirty blocks: forward co-members in three words.
        let g = BlockGraph::new(
            &BlockCollection::new(
                ErKind::Dirty,
                vec![
                    Block::dirty("a", ids(&[0, 63, 128])),
                    Block::dirty("b", ids(&[63, 64, 127])),
                ],
            ),
            None,
        );
        let mut scratch = g.scratch();
        let got: Vec<u32> = g
            .forward_neighborhood(ProfileId(63), &mut scratch)
            .iter()
            .map(|(p, _)| p.0)
            .collect();
        assert_eq!(got, [64, 127, 128]);
        assert_scratch_clean(&scratch);
    }

    #[test]
    fn reused_scratch_is_clean_after_every_node() {
        // One scratch over every node of a graph spanning several bitmap
        // words: each call must leave it as it found it, and repeating a
        // node must repeat its output.
        let coll = ProfileCollection::dirty(
            (0..150)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("t", format!("tok{} tok{} hub", i % 11, (i * 7) % 13))
                        .build()
                })
                .collect(),
        );
        let g = BlockGraph::new(&token_blocking(&coll), None);
        let mut scratch = g.scratch();
        for i in 0..g.num_profiles() as u32 {
            let first = g.neighborhood_buffered(ProfileId(i), &mut scratch).to_vec();
            assert!(
                first.windows(2).all(|w| w[0].0 < w[1].0),
                "node {i} unsorted"
            );
            assert_scratch_clean(&scratch);
            let again = g.neighborhood_buffered(ProfileId(i), &mut scratch).to_vec();
            assert_eq!(first, again, "node {i}");
        }
    }

    #[test]
    fn arcs_accumulates_reciprocal_comparisons() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        // blast: p1|p3,p4 → 2 comparisons; simonini, blocking: p1,p2|p3 →
        // 2 comparisons each.
        let n1 = g.neighborhood(ProfileId(0));
        let (_, acc) = n1.iter().find(|(p, _)| p.0 == 2).unwrap();
        assert!((acc.arcs - (0.5 + 0.5 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn dirty_graph_neighbors_everyone_comparable() {
        let coll = ProfileCollection::dirty(vec![
            Profile::builder(SourceId(0), "a").attr("n", "x y").build(),
            Profile::builder(SourceId(0), "b").attr("n", "x z").build(),
            Profile::builder(SourceId(0), "c").attr("n", "y z").build(),
        ]);
        let blocks = token_blocking(&coll);
        let g = BlockGraph::new(&blocks, None);
        assert_eq!(g.neighborhood(ProfileId(0)).len(), 2);
        let (degrees, edges) = g.degrees();
        assert_eq!(degrees, vec![2, 2, 2]);
        assert_eq!(edges, 3);
        assert_eq!(g.total_assignments(), 6);
        assert_eq!(g.kind(), ErKind::Dirty);
    }

    #[test]
    fn entropy_sum_uses_block_entropies() {
        let (_, blocks) = figure1();
        let entropies = BlockEntropies::new(vec![0.5; blocks.len()]);
        let g = BlockGraph::new(&blocks, Some(&entropies));
        assert!(g.has_entropies());
        let n1 = g.neighborhood(ProfileId(0));
        let (_, acc) = n1.iter().find(|(p, _)| p.0 == 2).unwrap();
        assert!(
            (acc.entropy_sum - 1.5).abs() < 1e-12,
            "3 shared blocks × 0.5"
        );
    }

    #[test]
    fn unknown_profile_has_empty_blocklist() {
        let (_, blocks) = figure1();
        let g = BlockGraph::new(&blocks, None);
        assert!(g.blocks_of(ProfileId(999)).is_empty());
        assert!(g.neighborhood(ProfileId(999)).is_empty());
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_entropies_rejected() {
        let (_, blocks) = figure1();
        let entropies = BlockEntropies::new(vec![0.5]);
        BlockGraph::new(&blocks, Some(&entropies));
    }

    #[test]
    fn from_compact_equals_from_collection() {
        use sparker_blocking::token_blocking_interned;
        use sparker_profiles::TokenDict;
        let (coll, blocks) = figure1();
        let dict = TokenDict::build(&coll);
        let compact = token_blocking_interned(&coll, &dict);
        let a = BlockGraph::new(&blocks, None);
        let b = BlockGraph::from_compact(&compact, None);
        assert_eq!(a.num_blocks(), b.num_blocks());
        assert_eq!(a.num_profiles(), b.num_profiles());
        assert_eq!(a.total_assignments(), b.total_assignments());
        for i in 0..4u32 {
            let node = ProfileId(i);
            assert_eq!(a.blocks_of(node), b.blocks_of(node));
            assert_eq!(a.neighborhood(node), b.neighborhood(node));
        }
    }

    #[test]
    fn budgeted_graph_is_bit_identical_to_monolithic() {
        use sparker_blocking::token_blocking_interned;
        use sparker_dataflow::MemBudget;
        use sparker_profiles::TokenDict;
        let (coll, blocks) = figure1();
        let entropies = BlockEntropies::new(vec![0.5; blocks.len()]);

        let mono = BlockGraph::new(&blocks, Some(&entropies));
        // A 1-byte budget drives the chunk size to its floor, exercising
        // many tiny profile ranges; unlimited must take the plain path.
        let tight = MemBudget::limited(1);
        assert_eq!(
            BlockGraph::new_budgeted(&blocks, Some(&entropies), &tight),
            mono
        );
        assert_eq!(
            BlockGraph::new_budgeted(&blocks, Some(&entropies), &MemBudget::unlimited()),
            mono
        );

        let dict = TokenDict::build(&coll);
        let compact = token_blocking_interned(&coll, &dict);
        let mono_c = BlockGraph::from_compact(&compact, None);
        assert_eq!(
            BlockGraph::from_compact_budgeted(&compact, None, &tight),
            mono_c
        );
        assert_eq!(
            BlockGraph::from_compact_budgeted(&compact, None, &MemBudget::unlimited()),
            mono_c
        );
    }

    #[test]
    fn chunked_assemble_matches_monolithic_across_chunk_sizes() {
        // Random-ish multi-membership layout with gaps in the profile id
        // space; every chunk size must reproduce the monolithic arrays.
        let coll = ProfileCollection::dirty(
            (0..23)
                .map(|i| {
                    Profile::builder(SourceId(0), i.to_string())
                        .attr("t", format!("tok{} tok{} hub", i % 7, (i * 3) % 5))
                        .build()
                })
                .collect(),
        );
        let blocks = token_blocking(&coll);
        let mono = BlockGraph::new(&blocks, None);
        for chunk in [1usize, 2, 3, 5, 8, 22, 23, 1000] {
            let chunked = BlockGraph::assemble_chunked(
                mono.kind,
                mono.block_members.clone(),
                mono.block_offsets.clone(),
                mono.block_split.clone(),
                mono.block_comparisons.clone(),
                mono.entropies.clone(),
                mono.num_profiles,
                chunk,
            );
            assert_eq!(chunked, mono, "chunk={chunk}");
        }
    }
}
