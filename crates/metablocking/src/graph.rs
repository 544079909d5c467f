//! The blocking graph: implicit edges materialized one neighborhood at a
//! time.
//!
//! Meta-blocking never stores the full edge set — for big collections it
//! would dwarf the input. Instead, a node's neighborhood is materialized on
//! demand from the inverted block index, the pruning rule is applied, and
//! the edges are discarded; this is exactly the structure SparkER
//! parallelizes with its broadcast join.
//!
//! Two walks: [`BlockGraph::walk`], the production kernel every caller but
//! the oracle uses, and [`BlockGraph::neighborhood`], the naive reference
//! (no scratch, a sort and a fold) the oracle and the tests hold it to.

use crate::entropy::BlockEntropies;
use sparker_blocking::{BlockCollection, CompactBlocks};
use sparker_dataflow::MemBudget;
use sparker_profiles::{ErKind, ProfileId};
use std::ops::Range;

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

/// Density crossover of [`BlockGraph::walk`]: a node whose co-member
/// occurrences times this factor reach the length of its neighbour id
/// range is swept, every other node goes through the first-touch bitmap.
/// A sweep therefore reads at most this many slots per occurrence.
const SWEEP_FACTOR: usize = 16;

/// Reusable buffers of the production node pass, [`BlockGraph::walk`].
///
/// Shared-block counts live in a dense `u32` per profile slot; the ARCS
/// and entropy sums get a slot array only in a scratch made for a scorer
/// that reads them (`sums` set in [`BlockGraph::node_scratch`]), so a
/// count-only pass writes 4 bytes per co-occurrence instead of 24. Every
/// slot is back to zero between calls.
#[derive(Debug, Clone)]
pub struct NodePassScratch {
    counts: Vec<u32>,
    /// `[Σ 1/‖b‖, Σ entropy(b)]` per slot; empty in a count-only scratch.
    sums: Vec<[f64; 2]>,
    /// Bitmap and word list of the first-touch emission (sparse nodes).
    touched_bits: Vec<u64>,
    touched_words: Vec<u32>,
    /// `(start, end, block)` of every non-empty co-member span of the
    /// node being walked, in ascending block order.
    spans: Vec<(u32, u32, u32)>,
    /// Output buffers, grow-only: the valid prefix is returned per call.
    out: Vec<(ProfileId, u32)>,
    out_sums: Vec<[f64; 2]>,
    /// Nodes emitted by the bitmap and by the sweep, since creation.
    bitmap_nodes: u64,
    sweep_nodes: u64,
}

impl NodePassScratch {
    /// Does this scratch accumulate the ARCS and entropy sums?
    pub fn has_sums(&self) -> bool {
        !self.sums.is_empty()
    }

    /// How many walks emitted through the first-touch bitmap and how many
    /// through the branch-free sweep, since the scratch was made.
    pub fn emission_modes(&self) -> (u64, u64) {
        (self.bitmap_nodes, self.sweep_nodes)
    }
}

/// One neighbourhood materialized by [`BlockGraph::walk`]: neighbour ids
/// ascending with their shared-block counts, plus the ARCS and entropy
/// sums when the scratch accumulates them.
#[derive(Debug, Clone, Copy)]
pub struct Neighbors<'s> {
    counts: &'s [(ProfileId, u32)],
    /// Index-aligned with `counts`; empty in a count-only walk.
    sums: &'s [[f64; 2]],
}

impl<'s> Neighbors<'s> {
    /// Number of neighbours.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when the node has no neighbour.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Neighbour ids ascending with their shared-block counts.
    pub fn counts(&self) -> &'s [(ProfileId, u32)] {
        self.counts
    }

    /// Neighbours with their accumulators; `arcs` and `entropy_sum` read
    /// 0 in a count-only walk.
    pub fn iter(&self) -> impl Iterator<Item = (ProfileId, EdgeAccumulator)> + 's {
        let sums = self.sums;
        self.counts
            .iter()
            .enumerate()
            .map(move |(k, &(j, shared_blocks))| {
                let [arcs, entropy_sum] = sums.get(k).copied().unwrap_or_default();
                let acc = EdgeAccumulator {
                    shared_blocks,
                    arcs,
                    entropy_sum,
                };
                (j, acc)
            })
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
        Self::new_budgeted(blocks, entropies, &MemBudget::unlimited())
    }

    /// Build the graph view straight from a CSR [`CompactBlocks`]: the flat
    /// member and offset arrays are adopted wholesale (one memcpy each, no
    /// per-block vectors are ever created). `entropies`, when given, must
    /// align with the compact blocks.
    pub fn from_compact(blocks: &CompactBlocks, entropies: Option<&BlockEntropies>) -> Self {
        Self::from_compact_budgeted(blocks, entropies, &MemBudget::unlimited())
    }

    /// [`BlockGraph::new`] with the profile→blocks index built over
    /// bounded profile ranges when `budget` is limited; bit-identical to
    /// the unlimited build either way.
    pub fn new_budgeted(
        blocks: &BlockCollection,
        entropies: Option<&BlockEntropies>,
        budget: &MemBudget,
    ) -> Self {
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
            budget.chunk_len(max_profile, 8),
        )
    }

    /// [`BlockGraph::from_compact`] under a memory budget: the
    /// profile→blocks counting sort runs over fixed-size profile ranges,
    /// so its scatter cursor is bounded by the range instead of the whole
    /// profile space. Bit-identical to the unlimited build.
    pub fn from_compact_budgeted(
        blocks: &CompactBlocks,
        entropies: Option<&BlockEntropies>,
        budget: &MemBudget,
    ) -> Self {
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
            budget.chunk_len(blocks.num_profiles(), 8),
        )
    }

    /// Shared tail of the constructors: build the profile→blocks CSR index
    /// by counting sort over the flat member array, filling one range of
    /// `chunk_profiles` profiles at a time so the scatter cursor spans
    /// only that range. A range that covers every profile is one plain
    /// scatter; a narrower one skips the members outside it. Each
    /// profile's writes happen in ascending block-id order either way, so
    /// the output does not depend on the chunk size.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        kind: ErKind,
        block_members: Vec<ProfileId>,
        block_offsets: Vec<u32>,
        block_split: Vec<u32>,
        block_comparisons: Vec<u64>,
        entropies: Option<Vec<f64>>,
        num_profiles: usize,
        chunk_profiles: usize,
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
        for p0 in (0..num_profiles).step_by(chunk_profiles.max(1)) {
            let range = p0..(p0 + chunk_profiles).min(num_profiles);
            let whole = range.len() == num_profiles;
            let mut cursor = profile_offsets[range.clone()].to_vec();
            // Ascending block id keeps each profile's block list sorted.
            for (b, span) in block_offsets.windows(2).enumerate() {
                let members = &block_members[span[0] as usize..span[1] as usize];
                let mut put = |i: usize| {
                    profile_blocks[cursor[i - p0] as usize] = b as u32;
                    cursor[i - p0] += 1;
                };
                if whole {
                    members.iter().for_each(|p| put(p.index()));
                } else {
                    let ids = members.iter().map(|p| p.index());
                    ids.filter(|i| range.contains(i)).for_each(put);
                }
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

    /// Number of profile slots (max id + 1).
    pub fn num_profiles(&self) -> usize {
        self.num_profiles
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_offsets.len() - 1
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

    /// Number of blocks containing profile `i` (0 for an unknown id):
    /// `blocks_of(i).len()` without a path that can panic, so a weight
    /// function that does not read it costs nothing.
    pub(crate) fn block_count(&self, i: ProfileId) -> usize {
        let offsets = &self.profile_offsets;
        match (offsets.get(i.index()), offsets.get(i.index() + 1)) {
            (Some(&start), Some(&end)) => end.wrapping_sub(start) as usize,
            _ => 0,
        }
    }

    /// Where, in the flat member array, the comparable co-members of
    /// `node` within block `b` sit (for clean–clean, the other source's
    /// side; the node's side is located from the block's own sorted
    /// membership).
    fn candidate_span(&self, node: ProfileId, b: usize) -> Range<usize> {
        let (start, end) = (
            self.block_offsets[b] as usize,
            self.block_offsets[b + 1] as usize,
        );
        match self.kind {
            ErKind::Dirty => start..end,
            ErKind::CleanClean => {
                let mid = start + self.block_split[b] as usize;
                if self.block_members[start..mid].binary_search(&node).is_ok() {
                    mid..end
                } else {
                    start..mid
                }
            }
        }
    }

    /// The comparable co-members of `node` within block `b`.
    fn candidates_of(&self, node: ProfileId, b: usize) -> &[ProfileId] {
        &self.block_members[self.candidate_span(node, b)]
    }

    /// Materialize the neighborhood of `node`: every comparable profile
    /// sharing ≥ 1 block, with accumulated co-occurrence statistics,
    /// ascending by id.
    ///
    /// The naive reference walk, kept for the oracle
    /// ([`crate::meta_blocking_graph`]) and the tests: it lists every
    /// `(neighbour, block)` hit in ascending block order, stable-sorts the
    /// list by neighbour and folds each neighbour's run, so a neighbour's
    /// contributions add in ascending block order — the order
    /// [`BlockGraph::walk`] adds them in, which makes the two bit-identical
    /// (pinned by proptest). For clean–clean tasks only the other source's
    /// side of each block is scanned.
    pub fn neighborhood(&self, node: ProfileId) -> Vec<(ProfileId, EdgeAccumulator)> {
        let mut hits: Vec<(ProfileId, u32)> = Vec::new();
        for &b in self.blocks_of(node) {
            for &other in self.candidates_of(node, b as usize) {
                if other != node {
                    hits.push((other, b));
                }
            }
        }
        // Stable: each neighbour's hits keep their ascending block order.
        hits.sort_by_key(|&(other, _)| other);
        let mut out: Vec<(ProfileId, EdgeAccumulator)> = Vec::new();
        for (other, b) in hits {
            if out.last().is_none_or(|&(j, _)| j != other) {
                out.push((other, EdgeAccumulator::default()));
            }
            let (_, acc) = out.last_mut().expect("pushed above");
            let bi = b as usize;
            acc.shared_blocks += 1;
            acc.arcs += 1.0 / self.block_comparisons[bi].max(1) as f64;
            acc.entropy_sum += self.entropies.as_ref().map_or(1.0, |e| e[bi]);
        }
        out
    }

    /// Allocate the reusable buffers of [`BlockGraph::walk`]: 4 bytes of
    /// counts per profile, plus 16 bytes of ARCS / entropy sums when
    /// `sums` is set — only scorers that read them need it (see
    /// `ScoringContext::reads_sums`).
    pub fn node_scratch(&self, sums: bool) -> NodePassScratch {
        NodePassScratch {
            counts: vec![0; self.num_profiles],
            sums: if sums {
                vec![[0.0; 2]; self.num_profiles]
            } else {
                Vec::new()
            },
            touched_bits: vec![0; self.num_profiles.div_ceil(64)],
            touched_words: Vec::new(),
            spans: Vec::new(),
            out: Vec::new(),
            out_sums: Vec::new(),
            bitmap_nodes: 0,
            sweep_nodes: 0,
        }
    }

    /// `start..end` of `node`'s comparable co-members within block `b` in
    /// the flat member array — only those with a larger id when `forward`.
    /// Members are sorted per side, so the forward ones are the suffix
    /// past `node`, found by `partition_point`.
    fn co_member_span(&self, node: ProfileId, b: usize, forward: bool) -> (usize, usize) {
        let Range { start, end } = self.candidate_span(node, b);
        if forward {
            let skip = self.block_members[start..end].partition_point(|&p| p <= node);
            (start + skip, end)
        } else {
            (start, end)
        }
    }

    /// The production neighbourhood walk: every comparable co-member of
    /// `node` (only those with a larger id when `forward`, i.e. each edge
    /// from its lower endpoint) with its shared-block count — and its ARCS
    /// and entropy sums in a scratch that has them — ascending by id.
    ///
    /// The walk first lists the node's co-member spans, which gives their
    /// total length (the node's comparisons `c`) and the id range `r` they
    /// cover. Then it picks how to emit:
    ///
    /// * `c × SWEEP_FACTOR ≥ r` — dense: accumulate with no branch per
    ///   co-occurrence and sweep the range, compacting the non-zero slots
    ///   branch-free. The sweep reads at most `SWEEP_FACTOR` slots per
    ///   co-occurrence, so no node pays more than a constant factor.
    /// * otherwise — sparse: the first co-occurrence of a neighbour sets
    ///   its bit in a bitmap, and the emit visits only the touched words.
    ///
    /// Both modes add a neighbour's contributions in ascending block
    /// order, so counts and sums are bit-identical to the naive
    /// [`BlockGraph::neighborhood`] (pinned by proptest), and both emit
    /// ascending ids.
    pub fn walk<'s>(
        &self,
        node: ProfileId,
        scratch: &'s mut NodePassScratch,
        forward: bool,
    ) -> Neighbors<'s> {
        debug_assert_eq!(scratch.counts.len(), self.num_profiles, "foreign scratch");
        let s = scratch;
        s.spans.clear();
        let (mut comparisons, mut lo, mut hi) = (0usize, usize::MAX, 0usize);
        for &b in self.blocks_of(node) {
            let (start, end) = self.co_member_span(node, b as usize, forward);
            if start < end {
                comparisons += end - start;
                lo = lo.min(self.block_members[start].index());
                hi = hi.max(self.block_members[end - 1].index());
                s.spans.push((start as u32, end as u32, b));
            }
        }
        if comparisons == 0 {
            return Neighbors {
                counts: &[],
                sums: &[],
            };
        }
        let range = hi - lo + 1;
        let sweep = comparisons.saturating_mul(SWEEP_FACTOR) >= range;
        let has_sums = s.has_sums();

        // Accumulate, in ascending block order. A sweep needs no record of
        // which slots were touched, so its loops carry no branch.
        for &(start, end, b) in &s.spans {
            let members = &self.block_members[start as usize..end as usize];
            let add = has_sums.then(|| {
                let bi = b as usize;
                let comparisons = self.block_comparisons[bi].max(1) as f64;
                [
                    1.0 / comparisons,
                    self.entropies.as_ref().map_or(1.0, |e| e[bi]),
                ]
            });
            match (sweep, add) {
                (true, None) => {
                    for &other in members {
                        s.counts[other.index()] += 1;
                    }
                }
                (true, Some([arcs, entropy])) => {
                    for &other in members {
                        let t = other.index();
                        s.counts[t] += 1;
                        s.sums[t][0] += arcs;
                        s.sums[t][1] += entropy;
                    }
                }
                (false, add) => {
                    for &other in members {
                        let t = other.index();
                        if s.counts[t] == 0 {
                            let word = &mut s.touched_bits[t / 64];
                            if *word == 0 {
                                s.touched_words.push((t / 64) as u32);
                            }
                            *word |= 1 << (t % 64);
                        }
                        s.counts[t] += 1;
                        if let Some([arcs, entropy]) = add {
                            s.sums[t][0] += arcs;
                            s.sums[t][1] += entropy;
                        }
                    }
                }
            }
        }
        // A dirty node is a member of its own blocks: the full walk counted
        // it too; drop it before emitting.
        if !forward && self.kind == ErKind::Dirty {
            let t = node.index();
            s.counts[t] = 0;
            if has_sums {
                s.sums[t] = [0.0; 2];
            }
            s.touched_bits[t / 64] &= !(1u64 << (t % 64));
        }

        // Emit into one slot more than there can be neighbours: the sweep
        // stores every slot it reads at the next free index before
        // deciding whether to keep it, so it writes one past the last.
        let cap = comparisons.min(range) + 1;
        if s.out.len() < cap {
            s.out.resize(cap, (ProfileId(0), 0));
        }
        if has_sums && s.out_sums.len() < cap {
            s.out_sums.resize(cap, [0.0; 2]);
        }
        let mut n = 0;
        if sweep {
            s.sweep_nodes += 1;
            let (counts, out) = (&mut s.counts[lo..=hi], &mut s.out[..cap]);
            if has_sums {
                let sums = &mut s.sums[lo..=hi];
                for (k, (c, sum)) in counts.iter_mut().zip(sums).enumerate() {
                    let c = std::mem::take(c);
                    out[n] = (ProfileId((lo + k) as u32), c);
                    s.out_sums[n] = std::mem::take(sum);
                    n += usize::from(c != 0);
                }
            } else {
                for (k, c) in counts.iter_mut().enumerate() {
                    let c = std::mem::take(c);
                    out[n] = (ProfileId((lo + k) as u32), c);
                    n += usize::from(c != 0);
                }
            }
        } else {
            s.bitmap_nodes += 1;
            // Ascending words, ascending bits within a word: neighbours
            // come out sorted having ordered only the touched words.
            s.touched_words.sort_unstable();
            for &w in &s.touched_words {
                let mut bits = std::mem::take(&mut s.touched_bits[w as usize]);
                while bits != 0 {
                    let t = w as usize * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    s.out[n] = (ProfileId(t as u32), std::mem::take(&mut s.counts[t]));
                    if has_sums {
                        s.out_sums[n] = std::mem::take(&mut s.sums[t]);
                    }
                    n += 1;
                }
            }
            s.touched_words.clear();
        }
        Neighbors {
            counts: &s.out[..n],
            sums: if has_sums { &s.out_sums[..n] } else { &[] },
        }
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

    /// Forward degree and forward comparisons of `node`: the distinct
    /// comparable neighbours with a larger id, and its co-occurrences with
    /// them (the total length of its forward co-member spans). Under CBS
    /// without entropy every forward edge weighs its shared-block count,
    /// so these are WEP's per-node `(|E|, Σw)` without weighing anything.
    /// `seen` is used as in [`BlockGraph::degree_of`]; the count is
    /// branch-free.
    pub fn forward_degree(&self, node: ProfileId, seen: &mut [u32]) -> (u32, u64) {
        debug_assert_eq!(seen.len(), self.num_profiles, "foreign seen array");
        let (mut degree, mut comparisons) = (0u32, 0u64);
        for &b in self.blocks_of(node) {
            let (start, end) = self.co_member_span(node, b as usize, true);
            comparisons += (end - start) as u64;
            for &other in &self.block_members[start..end] {
                let slot = &mut seen[other.index()];
                degree += u32::from(*slot != node.0);
                *slot = node.0;
            }
        }
        (degree, comparisons)
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

    fn ids(v: &[u32]) -> Vec<ProfileId> {
        v.iter().map(|&i| ProfileId(i)).collect()
    }

    fn assert_node_scratch_clean(scratch: &NodePassScratch) {
        assert!(scratch.touched_bits.iter().all(|&w| w == 0), "bitmap dirty");
        assert!(scratch.touched_words.is_empty(), "word list dirty");
        assert!(scratch.counts.iter().all(|&c| c == 0), "counts dirty");
        assert!(scratch.sums.iter().all(|s| *s == [0.0; 2]), "sums dirty");
    }

    /// The neighbor ids around the bitmap's word boundaries.
    const BOUNDARY_IDS: [u32; 6] = [0, 63, 64, 65, 127, 128];

    /// `node`'s neighbour ids and shared-block counts by the naive walk,
    /// checked against the full production walk.
    fn both_walks(g: &BlockGraph, node: u32) -> (Vec<u32>, Vec<u32>) {
        let mut scratch = g.node_scratch(false);
        let walked = g
            .walk(ProfileId(node), &mut scratch, false)
            .counts()
            .to_vec();
        let naive = g.neighborhood(ProfileId(node));
        assert!(naive.iter().map(|&(p, a)| (p, a.shared_blocks)).eq(walked));
        naive.iter().map(|&(p, a)| (p.0, a.shared_blocks)).unzip()
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
        let (ids, shared) = both_walks(&g, 130);
        assert_eq!(ids, BOUNDARY_IDS);
        assert_eq!(shared, [1, 1, 1, 1, 1, 2]);
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
        assert_eq!(both_walks(&g, 200).0, BOUNDARY_IDS);
        assert_eq!(both_walks(&g, 129).0, [64, 65, 127]);
        assert_eq!(both_walks(&g, 64).0, [129, 200]);
        assert_eq!(both_walks(&g, 128).0, [200]);
    }

    #[test]
    fn forward_neighbors_cross_word_boundaries_and_leave_scratch_clean() {
        use sparker_blocking::Block;
        // Probes sit on either side of the bitmap's word boundaries; the
        // production walk must see exactly the reference walk's neighbours
        // (only the larger-id ones when forward), in id order, with its
        // accumulators, and leave the scratch as it found it.
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
            for sums in [false, true] {
                // Epoch-marked by node id: one array per pass over the nodes.
                let mut seen = vec![u32::MAX; g.num_profiles()];
                let mut scratch = g.node_scratch(sums);
                for node in [0, 63, 64, 65, 127, 128, 129, 130, 200] {
                    let node = ProfileId(node);
                    let full = g.neighborhood(node);
                    let suffix: Vec<_> = full.iter().copied().filter(|&(j, _)| j > node).collect();
                    let counts = |v: &[(ProfileId, EdgeAccumulator)]| -> Vec<(ProfileId, u32)> {
                        v.iter().map(|(j, a)| (*j, a.shared_blocks)).collect()
                    };
                    for (forward, expect) in [(false, &full), (true, &suffix)] {
                        let got = g.walk(node, &mut scratch, forward);
                        assert_eq!(
                            got.counts(),
                            counts(expect),
                            "{:?} node {node}",
                            blocks.kind()
                        );
                        if sums {
                            assert_eq!(got.iter().collect::<Vec<_>>(), *expect);
                        }
                        assert_node_scratch_clean(&scratch);
                    }
                    let (degree, comparisons) = g.forward_degree(node, &mut seen);
                    assert_eq!(degree as usize, suffix.len());
                    let shared: u32 = suffix.iter().map(|(_, a)| a.shared_blocks).sum();
                    assert_eq!(comparisons, u64::from(shared));
                }
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
        let mut scratch = g.node_scratch(false);
        let got: Vec<u32> = g
            .walk(ProfileId(63), &mut scratch, true)
            .counts()
            .iter()
            .map(|(p, _)| p.0)
            .collect();
        assert_eq!(got, [64, 127, 128]);
        assert_node_scratch_clean(&scratch);
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
        assert_eq!(g.block_count(ProfileId(999)), 0);
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
        use sparker_blocking::token_blocking_with_dict;
        let (coll, blocks) = figure1();
        let (_, compact) = token_blocking_with_dict(&coll);
        let a = BlockGraph::new(&blocks, None);
        let b = BlockGraph::from_compact(&compact, None);
        assert_eq!(a.num_blocks(), b.num_blocks());
        assert_eq!(a.num_profiles(), b.num_profiles());
        assert_eq!(a.total_assignments(), b.total_assignments());
        for i in 0..4u32 {
            let node = ProfileId(i);
            assert_eq!(a.blocks_of(node), b.blocks_of(node));
            assert_eq!(a.block_count(node), a.blocks_of(node).len());
            assert_eq!(a.neighborhood(node), b.neighborhood(node));
        }
    }

    #[test]
    fn budgeted_graph_is_bit_identical_to_monolithic() {
        use sparker_blocking::token_blocking_with_dict;
        let (coll, blocks) = figure1();
        let entropies = BlockEntropies::new(vec![0.5; blocks.len()]);
        // A 1-byte budget takes the limited path (its chunk floor still
        // covers these 4 profiles; smaller chunks are the next test's).
        let tight = MemBudget::limited(1);
        assert_eq!(
            BlockGraph::new_budgeted(&blocks, Some(&entropies), &tight),
            BlockGraph::new(&blocks, Some(&entropies))
        );
        let (_, compact) = token_blocking_with_dict(&coll);
        assert_eq!(
            BlockGraph::from_compact_budgeted(&compact, None, &tight),
            BlockGraph::from_compact(&compact, None)
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
            let chunked = BlockGraph::assemble(
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
