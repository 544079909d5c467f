//! CSR-packed block collections over interned token ids.
//!
//! The paper's "compact block index, broadcast to every partition" is a flat
//! structure, not a map of strings to vectors. [`CompactBlocks`] is that
//! structure: one contiguous `members` array plus an offsets array (CSR —
//! compressed sparse row), keyed by dense [`TokenId`]s instead of `String`s.
//! It is built by counting sort — one scatter over per-profile key-id
//! lists, its offsets taken from the lists' document frequencies, zero
//! hashing, zero per-block allocation — and is what
//! `sparker-metablocking`'s `BlockGraph` is built from without re-copying
//! per-block vectors.
//!
//! Block cleaning runs on the same structure: [`CompactBlocks::clean`]
//! purges and filters in one pass over the per-profile key lists the
//! blocks were built from, so the production path never leaves CSR. The
//! fused driver goes one step further and knows its blocks by their sizes
//! alone ([`BlockSizes`]) until [`BlockSizes::clean`] scatters the members
//! that survive.
//!
//! Block keys stay recoverable: [`CompactBlocks::materialize`] resolves ids
//! back to strings through the [`TokenDict`] and yields a classic
//! [`BlockCollection`] for display, debugging and the string-keyed APIs.

use crate::block::Block;
use crate::collection::BlockCollection;
use crate::purging::PurgeConfig;
use sparker_dataflow::{map_ranges, Context, MemBudget};
use sparker_profiles::{ErKind, ProfileId, ProfileKeys, TokenDict, TokenId};
use std::ops::Range;

/// Marks a key without a surviving block, and a block that does not
/// survive.
const NONE: u32 = u32::MAX;

/// The blocks one profile range keeps after filtering: per profile (in
/// order) how many, then their block indices back to back.
#[derive(Debug, Clone, Default)]
struct Selection {
    lens: Vec<u32>,
    blocks: Vec<u32>,
}

/// Visit `(profile, block)` for every selected membership, profiles
/// ascending — the order that keeps scattered members sorted.
fn for_each_selected(ranges: &[Selection], mut f: impl FnMut(u32, usize)) {
    let mut p = 0u32;
    for range in ranges {
        let mut at = 0;
        for &len in &range.lens {
            let end = at + len as usize;
            for &b in &range.blocks[at..end] {
                f(p, b as usize);
            }
            at = end;
            p += 1;
        }
    }
}

/// A block collection packed in CSR form: `members` holds every block's
/// profiles back to back, `offsets[b]..offsets[b + 1]` delimits block `b`,
/// and `splits[b]` is the length of its source-0 prefix. Keys are dense
/// [`TokenId`]s; blocks are ordered by key id (= lexicographic key order).
///
/// Every block induces at least one comparison (useless blocks are dropped
/// during construction, as in [`BlockCollection::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactBlocks {
    kind: ErKind,
    keys: Vec<TokenId>,
    offsets: Vec<u32>,
    splits: Vec<u32>,
    members: Vec<ProfileId>,
    num_profiles: usize,
}

/// A [`CompactBlocks::build`] cursor for a key that gets no bucket.
const SKIP: u32 = u32::MAX;

impl CompactBlocks {
    /// Build by counting sort from per-profile key lists.
    ///
    /// `num_keys` bounds the dense key space (`0..num_keys`); `separator`
    /// is the first profile id of source 1 (`== len` for dirty tasks), as
    /// in `ProfileCollection::separator`. Bucket sizes are the lists'
    /// document frequencies ([`ProfileKeys::df`]), so one pass scatters
    /// profile ids; because profiles are scanned in increasing id order
    /// each bucket comes out sorted with its source-0 members first, so no
    /// per-block sort is needed. Useless blocks (inducing no
    /// comparison) are dropped while compacting.
    pub fn from_profile_keys(
        kind: ErKind,
        separator: u32,
        num_keys: usize,
        profile_keys: &ProfileKeys,
    ) -> Self {
        Self::build(kind, separator, num_keys, profile_keys, num_keys, None)
    }

    /// [`CompactBlocks::from_profile_keys`] with the counting sort run over
    /// fixed-size ascending [`TokenId`] ranges of `chunk_keys` keys each.
    ///
    /// Every chunk re-scans the per-profile key lists but only scatters
    /// the keys inside its range, so the scatter temporaries
    /// (offsets, cursors, unpruned member buckets) are bounded by the chunk
    /// instead of the whole key space — the memory-dominant part of token
    /// blocking at the million-profile scale. Chunks append to the output
    /// arrays in ascending key order, exactly the order the monolithic
    /// build compacts in, so the result is bit-identical to
    /// [`CompactBlocks::from_profile_keys`] for every chunk size (pinned by
    /// proptest).
    pub fn from_profile_keys_chunked(
        kind: ErKind,
        separator: u32,
        num_keys: usize,
        profile_keys: &ProfileKeys,
        chunk_keys: usize,
    ) -> Self {
        Self::build(kind, separator, num_keys, profile_keys, chunk_keys, None)
    }

    /// Budget-driven build: one key range when `budget` is unlimited,
    /// budget-sized ranges otherwise. The per-key scatter temporaries cost
    /// roughly 12 bytes plus the range's share of the member scatter; 32
    /// bytes per key is a conservative sizing estimate. Each range's
    /// temporaries are reserved against the budget while they live, so the
    /// stage's buffered-bytes high-water mark shows them.
    pub fn from_profile_keys_budgeted(
        kind: ErKind,
        separator: u32,
        num_keys: usize,
        profile_keys: &ProfileKeys,
        budget: &MemBudget,
    ) -> Self {
        let chunk = budget.chunk_len(num_keys, 32);
        Self::build(kind, separator, num_keys, profile_keys, chunk, Some(budget))
    }

    /// The one counting-sort build, over ascending key ranges of
    /// `chunk_keys` keys (see [`CompactBlocks::from_profile_keys_chunked`]).
    fn build(
        kind: ErKind,
        separator: u32,
        num_keys: usize,
        profile_keys: &ProfileKeys,
        chunk_keys: usize,
        budget: Option<&MemBudget>,
    ) -> Self {
        let chunk_keys = chunk_keys.max(1);
        let n = profile_keys.len();
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut splits = Vec::new();
        let mut members: Vec<ProfileId> = Vec::new();
        let mut num_profiles = 0usize;
        let mut k0 = 0usize;
        let df = profile_keys.df();
        while k0 < num_keys {
            let k1 = (k0 + chunk_keys).min(num_keys);
            let width = k1 - k0;
            // Bucket sizes are the keys' document frequencies, carried by
            // the key lists — no counting pass. A key held by fewer than
            // two profiles induces no comparison and gets no bucket
            // (`SKIP`); the others are laid out, in key order, straight
            // into `members`.
            let scratch_bytes = (4 * width) as u64;
            let reserved = budget.filter(|b| b.try_reserve(scratch_bytes));
            let base = members.len();
            let mut cursor = vec![SKIP; width];
            let mut end = base as u32;
            for (k, c) in cursor.iter_mut().enumerate() {
                let size = df.get(k0 + k).copied().unwrap_or(0);
                if size >= 2 {
                    *c = end;
                    end += size;
                }
            }
            members.resize(end as usize, ProfileId(0));
            // Scatter this range's profile ids; ascending p keeps buckets
            // sorted, source-0 members first.
            for p in 0..n {
                let pid = ProfileId(p as u32);
                for &k in profile_keys.keys_of(p) {
                    let k = k as usize;
                    if (k0..k1).contains(&k) && cursor[k - k0] != SKIP {
                        members[cursor[k - k0] as usize] = pid;
                        cursor[k - k0] += 1;
                    }
                }
            }
            // Each cursor now ends its bucket. Keep the buckets that induce
            // a comparison, in ascending key order: every dirty one, and
            // the clean–clean ones holding both sources, moved down over
            // the dropped ones.
            let (mut lo, mut kept_end) = (base, base);
            for (k, &hi) in cursor.iter().enumerate() {
                if hi == SKIP {
                    continue;
                }
                let hi = hi as usize;
                let size = hi - lo;
                // Dirty blocks keep everything on the source-0 side,
                // mirroring `Block::dirty`.
                let s0 = match kind {
                    ErKind::Dirty => size,
                    ErKind::CleanClean => members[lo..hi].partition_point(|p| p.0 < separator),
                };
                if kind == ErKind::Dirty || (s0 > 0 && s0 < size) {
                    if kept_end != lo {
                        members.copy_within(lo..hi, kept_end);
                    }
                    kept_end += size;
                    keys.push(TokenId((k0 + k) as u32));
                    offsets.push(kept_end as u32);
                    splits.push(s0 as u32);
                    num_profiles = num_profiles.max(members[kept_end - 1].index() + 1);
                }
                lo = hi;
            }
            members.truncate(kept_end);
            if let Some(b) = reserved {
                b.release(scratch_bytes);
            }
            k0 = k1;
        }
        CompactBlocks {
            kind,
            keys,
            offsets,
            splits,
            members,
            num_profiles,
        }
    }

    /// Pack a [`BlockCollection`] into CSR form keyed by block position
    /// (block `b` gets key `b`), together with every profile's list of
    /// blocks — the two inputs [`CompactBlocks::clean`] takes.
    /// `materialize_with` on a cleaned result maps key `b` back to block
    /// `b`'s key string.
    pub fn from_collection(blocks: &BlockCollection) -> (CompactBlocks, ProfileKeys) {
        let mut compact = CompactBlocks {
            kind: blocks.kind(),
            keys: Vec::with_capacity(blocks.len()),
            offsets: vec![0],
            splits: Vec::with_capacity(blocks.len()),
            members: Vec::with_capacity(blocks.total_assignments() as usize),
            num_profiles: 0,
        };
        for (b, block) in blocks.blocks().iter().enumerate() {
            compact.keys.push(TokenId(b as u32));
            compact.members.extend(block.all_members());
            compact.offsets.push(compact.members.len() as u32);
            compact.splits.push(block.members[0].len() as u32);
        }
        let index = blocks.profile_index();
        compact.num_profiles = index.len();
        let profiles: Vec<ProfileId> = (0..index.len() as u32).map(ProfileId).collect();
        let lists = ProfileKeys::collect(&profiles, |&p, buf| {
            buf.extend(index.blocks_of(p).iter().map(|b| b.0));
        });
        (compact, lists)
    }

    /// Block Purging and Block Filtering in one pass over the CSR: the
    /// blocks `block_filtering(purge(materialize(..)))` holds — same keys,
    /// members, source split and order — without resolving a key, building
    /// a per-block vector or shuffling.
    ///
    /// `profile_keys` are the per-profile key lists these blocks were built
    /// from, and `total_profiles` is the collection size the oversized
    /// rule is relative to.
    ///
    /// * **Purge.** `purge` is resolved once from every block's
    ///   `(comparisons, size)` ([`PurgeConfig::cap`]).
    /// * **Filter** (`filter_ratio`). Each profile's surviving blocks come
    ///   from its key list through a key → block index and are ordered by
    ///   `(comparisons, block index)`; the first `max(1, ⌈ratio · d⌉)`
    ///   stay. Block index order is key order and purging keeps it, so the
    ///   tie-break is exactly `block_filtering`'s. Profile ranges run on
    ///   `ctx`'s pool when one is given.
    /// * **Rebuild.** One counting-sort scatter by block, profiles
    ///   ascending, keeps every block's members sorted with its clean–clean
    ///   source-0 prefix first; blocks that filtering left inducing no
    ///   comparison are dropped, as [`BlockCollection::new`] drops them.
    ///
    /// The pass's temporaries are reserved against `budget` while they
    /// live. The result is identical for any worker count and budget.
    pub fn clean(
        self,
        ctx: Option<&Context>,
        profile_keys: &ProfileKeys,
        purge: &PurgeConfig,
        total_profiles: usize,
        filter_ratio: Option<f64>,
        budget: &MemBudget,
    ) -> CompactBlocks {
        if !cleans(purge, filter_ratio) {
            return self;
        }
        // Every member below the smallest source-1 member of any block is
        // on the source-0 side (dirty blocks have no source-1 side).
        let source1 = (0..self.len())
            .filter_map(|b| self.members(b).get(self.split(b)))
            .map(|p| p.0)
            .min()
            .unwrap_or(u32::MAX);
        let shape = Shape {
            kind: self.kind,
            keys: &self.keys,
            offsets: &self.offsets,
            splits: &self.splits,
            source1,
        };
        shape.clean(
            ctx,
            profile_keys,
            purge,
            total_profiles,
            filter_ratio,
            budget,
        )
    }

    /// Task kind the blocks were built for.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Highest member profile id + 1 (the dense profile-slot count).
    pub fn num_profiles(&self) -> usize {
        self.num_profiles
    }

    /// Keys in block order (ascending ids).
    pub fn keys(&self) -> &[TokenId] {
        &self.keys
    }

    /// Key of block `b`.
    pub fn key(&self, b: usize) -> TokenId {
        self.keys[b]
    }

    /// Members of block `b`: source-0 prefix then source-1, each sorted.
    pub fn members(&self, b: usize) -> &[ProfileId] {
        &self.members[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Length of the source-0 prefix of block `b`.
    pub fn split(&self, b: usize) -> usize {
        self.splits[b] as usize
    }

    /// The raw CSR arrays `(offsets, splits, members)` — what `BlockGraph`
    /// adopts wholesale instead of re-copying per-block vectors.
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[ProfileId]) {
        (&self.offsets, &self.splits, &self.members)
    }

    /// Number of comparisons block `b` induces.
    pub fn comparisons(&self, b: usize) -> u64 {
        let size = (self.offsets[b + 1] - self.offsets[b]) as u64;
        block_comparisons(self.kind, size, self.splits[b] as u64)
    }

    /// Total comparisons over all blocks (comparison cardinality ‖B‖).
    pub fn total_comparisons(&self) -> u64 {
        (0..self.len()).map(|b| self.comparisons(b)).sum()
    }

    /// Sum of block sizes (total profile→block assignments).
    pub fn total_assignments(&self) -> u64 {
        self.members.len() as u64
    }

    /// Resolve keys through `dict` and materialize a classic
    /// [`BlockCollection`]. Blocks come out in the same order (ascending
    /// id = lexicographic key) with identical members.
    pub fn materialize(&self, dict: &TokenDict) -> BlockCollection {
        self.materialize_with(|id| dict.resolve(id).to_string())
    }

    /// [`CompactBlocks::materialize`] with a custom key resolver (used by
    /// keyed blocking, whose dense ids index an ad-hoc key dictionary).
    pub fn materialize_with(&self, resolve: impl Fn(TokenId) -> String) -> BlockCollection {
        let blocks: Vec<Block> = (0..self.len())
            .map(|b| {
                let m = self.members(b);
                let split = self.split(b);
                let key = resolve(self.key(b));
                match self.kind {
                    ErKind::Dirty => Block::dirty(key, m.to_vec()),
                    ErKind::CleanClean => {
                        Block::clean_clean(key, m[..split].to_vec(), m[split..].to_vec())
                    }
                }
            })
            .collect();
        BlockCollection::new(self.kind, blocks)
    }
}

/// `true` when purging or filtering has anything to do.
fn cleans(purge: &PurgeConfig, filter_ratio: Option<f64>) -> bool {
    if let Some(ratio) = filter_ratio {
        assert!(
            (0.0..=1.0).contains(&ratio) && ratio > 0.0,
            "filter ratio must be in (0, 1], got {ratio}"
        );
    }
    !matches!(purge, PurgeConfig::Off) || filter_ratio.is_some()
}

/// Comparisons a block of `size` members, `s0` of them on the source-0
/// side, induces.
fn block_comparisons(kind: ErKind, size: u64, s0: u64) -> u64 {
    match kind {
        ErKind::Dirty => size * size.saturating_sub(1) / 2,
        ErKind::CleanClean => s0 * (size - s0),
    }
}

/// What cleaning reads of a block collection: every block's key, size
/// (`offsets`) and source-0 split, and the profile id below which a
/// member is on the source-0 side.
struct Shape<'a> {
    kind: ErKind,
    keys: &'a [TokenId],
    offsets: &'a [u32],
    splits: &'a [u32],
    source1: u32,
}

impl Shape<'_> {
    /// The one purge-filter-rebuild pass behind [`CompactBlocks::clean`]
    /// and [`BlockSizes::clean`].
    fn clean(
        &self,
        ctx: Option<&Context>,
        profile_keys: &ProfileKeys,
        purge: &PurgeConfig,
        total_profiles: usize,
        filter_ratio: Option<f64>,
        budget: &MemBudget,
    ) -> CompactBlocks {
        let num_blocks = self.keys.len();
        let n = profile_keys.len();
        let key_space = self.keys.last().map_or(0, |k| k.index() + 1);
        let scratch_bytes = (4 * key_space
            + 32 * num_blocks
            + 4 * (n + *self.offsets.last().unwrap_or(&0) as usize))
            as u64;
        let reserved = budget.try_reserve(scratch_bytes);

        let size = |b: usize| u64::from(self.offsets[b + 1] - self.offsets[b]);
        let comparisons: Vec<u64> = (0..num_blocks)
            .map(|b| block_comparisons(self.kind, size(b), u64::from(self.splits[b])))
            .collect();
        let cap = purge.cap(
            total_profiles,
            (0..num_blocks).map(|b| (comparisons[b], size(b))),
        );
        let mut block_of = vec![NONE; key_space];
        for b in 0..num_blocks {
            if cap.keeps(comparisons[b], size(b)) {
                block_of[self.keys[b].index()] = b as u32;
            }
        }

        let select = |range: Range<usize>| {
            let mut out = Selection::default();
            let mut candidates: Vec<(u64, u32)> = Vec::new();
            for p in range {
                candidates.clear();
                for &k in profile_keys.keys_of(p) {
                    match block_of.get(k as usize) {
                        Some(&b) if b != NONE => candidates.push((comparisons[b as usize], b)),
                        _ => {}
                    }
                }
                let keep = match filter_ratio {
                    Some(ratio) if !candidates.is_empty() => {
                        let quota = ((candidates.len() as f64 * ratio).ceil() as usize).max(1);
                        if quota < candidates.len() {
                            candidates.select_nth_unstable(quota - 1);
                        }
                        quota.min(candidates.len())
                    }
                    _ => candidates.len(),
                };
                out.lens.push(keep as u32);
                out.blocks
                    .extend(candidates[..keep].iter().map(|&(_, b)| b));
            }
            out
        };
        let selected = map_ranges(ctx, n, select);

        let mut counts = vec![0u32; num_blocks];
        let mut counts0 = vec![0u32; num_blocks];
        for_each_selected(&selected, |p, b| {
            counts[b] += 1;
            counts0[b] += u32::from(p < self.source1);
        });
        let mut cleaned = CompactBlocks {
            kind: self.kind,
            keys: Vec::new(),
            offsets: vec![0],
            splits: Vec::new(),
            members: Vec::new(),
            num_profiles: 0,
        };
        let mut new_id = vec![NONE; num_blocks];
        for b in 0..num_blocks {
            let (size, s0) = (counts[b], counts0[b]);
            let useful = match self.kind {
                ErKind::Dirty => size >= 2,
                ErKind::CleanClean => s0 > 0 && s0 < size,
            };
            if !useful {
                continue;
            }
            new_id[b] = cleaned.keys.len() as u32;
            cleaned.keys.push(self.keys[b]);
            cleaned
                .offsets
                .push(cleaned.offsets.last().expect("offsets start at 0") + size);
            cleaned.splits.push(match self.kind {
                ErKind::Dirty => size,
                ErKind::CleanClean => s0,
            });
        }
        let total = *cleaned.offsets.last().expect("offsets start at 0") as usize;
        cleaned.members = vec![ProfileId(0); total];
        let mut cursor = cleaned.offsets[..cleaned.keys.len()].to_vec();
        for_each_selected(&selected, |p, b| {
            let j = new_id[b];
            if j != NONE {
                cleaned.members[cursor[j as usize] as usize] = ProfileId(p);
                cursor[j as usize] += 1;
                cleaned.num_profiles = p as usize + 1;
            }
        });
        if reserved {
            budget.release(scratch_bytes);
        }
        cleaned
    }
}

/// The blocks a key pass induces, known by their sizes alone: every
/// block's key, size and source-0 split, in key order, without its
/// members — all that [`CompactBlocks::clean`] reads of them. A key's
/// block size is its document frequency, which the key lists carry
/// ([`ProfileKeys::df`]), so this costs no pass over the lists for a
/// dirty task and one over the source-0 lists for a clean–clean one. The
/// fused driver builds its blocks this way and has [`BlockSizes::clean`]
/// scatter only the members that survive cleaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSizes {
    kind: ErKind,
    separator: u32,
    num_keys: usize,
    keys: Vec<TokenId>,
    offsets: Vec<u32>,
    splits: Vec<u32>,
}

impl BlockSizes {
    /// The blocks [`CompactBlocks::from_profile_keys`] builds from the
    /// same arguments, by size: the same keys, sizes and splits, useless
    /// blocks dropped alike.
    pub fn from_profile_keys(
        kind: ErKind,
        separator: u32,
        num_keys: usize,
        profile_keys: &ProfileKeys,
    ) -> Self {
        let df = profile_keys.df();
        // Clean–clean: how many source-0 profiles hold each key.
        let mut held0 = Vec::new();
        if kind == ErKind::CleanClean {
            held0 = vec![0u32; num_keys];
            for p in 0..(separator as usize).min(profile_keys.len()) {
                for &k in profile_keys.keys_of(p) {
                    held0[k as usize] += 1;
                }
            }
        }
        let mut sizes = BlockSizes {
            kind,
            separator,
            num_keys,
            keys: Vec::new(),
            offsets: vec![0],
            splits: Vec::new(),
        };
        // Keys past the frequencies are held by no profile.
        for (k, &size) in df.iter().enumerate() {
            let (useful, s0) = match kind {
                ErKind::Dirty => (size >= 2, size),
                ErKind::CleanClean => (held0[k] > 0 && held0[k] < size, held0[k]),
            };
            if useful {
                sizes.keys.push(TokenId(k as u32));
                let end = sizes.offsets.last().expect("offsets start at 0") + size;
                sizes.offsets.push(end);
                sizes.splits.push(s0);
            }
        }
        sizes
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total comparisons over all blocks, as
    /// [`CompactBlocks::total_comparisons`] counts them.
    pub fn total_comparisons(&self) -> u64 {
        (0..self.len())
            .map(|b| {
                let size = u64::from(self.offsets[b + 1] - self.offsets[b]);
                block_comparisons(self.kind, size, u64::from(self.splits[b]))
            })
            .sum()
    }

    /// The blocks themselves, scattered from the key lists the sizes were
    /// taken from ([`CompactBlocks::from_profile_keys_budgeted`]).
    pub fn into_blocks(self, profile_keys: &ProfileKeys, budget: &MemBudget) -> CompactBlocks {
        CompactBlocks::from_profile_keys_budgeted(
            self.kind,
            self.separator,
            self.num_keys,
            profile_keys,
            budget,
        )
    }

    /// [`CompactBlocks::clean`] of the blocks these sizes describe, over
    /// the key lists they were taken from: the same cleaned blocks,
    /// without scattering the members of blocks that do not survive. With
    /// nothing to purge or filter it builds the blocks
    /// ([`BlockSizes::into_blocks`]).
    pub fn clean(
        self,
        ctx: Option<&Context>,
        profile_keys: &ProfileKeys,
        purge: &PurgeConfig,
        total_profiles: usize,
        filter_ratio: Option<f64>,
        budget: &MemBudget,
    ) -> CompactBlocks {
        if !cleans(purge, filter_ratio) {
            return self.into_blocks(profile_keys, budget);
        }
        let shape = Shape {
            kind: self.kind,
            keys: &self.keys,
            offsets: &self.offsets,
            splits: &self.splits,
            source1: self.separator,
        };
        shape.clean(
            ctx,
            profile_keys,
            purge,
            total_profiles,
            filter_ratio,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    /// 3 profiles, 4 keys: key 0 {0,1}, key 1 {0}, key 2 {1,2}, key 3 {}.
    fn sample_keys() -> ProfileKeys {
        let per_profile: Vec<Vec<u32>> = vec![vec![1, 0], vec![2, 0, 2], vec![2]];
        ProfileKeys::collect(&per_profile, |keys, buf| buf.extend_from_slice(keys))
    }

    #[test]
    fn profile_keys_sorted_deduped() {
        let pk = sample_keys();
        assert_eq!(pk.len(), 3);
        assert_eq!(pk.keys_of(0), &[0, 1]);
        assert_eq!(pk.keys_of(1), &[0, 2]);
        assert_eq!(pk.keys_of(2), &[2]);
    }

    #[test]
    fn dirty_counting_sort_blocks() {
        let pk = sample_keys();
        let cb = CompactBlocks::from_profile_keys(ErKind::Dirty, 3, 4, &pk);
        // Key 1 is a singleton, key 3 empty — both dropped.
        assert_eq!(cb.len(), 2);
        assert_eq!(cb.keys(), &[TokenId(0), TokenId(2)]);
        assert_eq!(cb.members(0), &[pid(0), pid(1)]);
        assert_eq!(cb.members(1), &[pid(1), pid(2)]);
        assert_eq!(cb.split(0), 2, "dirty keeps all members on side 0");
        assert_eq!(cb.comparisons(0), 1);
        assert_eq!(cb.total_comparisons(), 2);
        assert_eq!(cb.total_assignments(), 4);
        assert_eq!(cb.num_profiles(), 3);
    }

    #[test]
    fn clean_clean_split_and_usefulness() {
        // Separator 1: profile 0 is source 0, profiles 1..3 source 1.
        let pk = sample_keys();
        let cb = CompactBlocks::from_profile_keys(ErKind::CleanClean, 1, 4, &pk);
        // Key 0 spans sources {0 | 1}; key 2 is single-source {1, 2} → dropped.
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.key(0), TokenId(0));
        assert_eq!(cb.members(0), &[pid(0), pid(1)]);
        assert_eq!(cb.split(0), 1);
        assert_eq!(cb.comparisons(0), 1);
    }

    #[test]
    fn materialize_resolves_keys() {
        let pk = sample_keys();
        let cb = CompactBlocks::from_profile_keys(ErKind::Dirty, 3, 4, &pk);
        let names = ["alpha", "beta", "gamma", "delta"];
        let bc = cb.materialize_with(|id| names[id.index()].to_string());
        assert_eq!(bc.len(), 2);
        assert_eq!(bc.blocks()[0].key, "alpha");
        assert_eq!(bc.blocks()[1].key, "gamma");
        assert_eq!(bc.blocks()[0].members[0], vec![pid(0), pid(1)]);
    }

    #[test]
    fn empty_inputs() {
        let pk = ProfileKeys::collect(&Vec::<Vec<u32>>::new(), |_, _| {});
        assert!(pk.is_empty());
        let cb = CompactBlocks::from_profile_keys(ErKind::Dirty, 0, 0, &pk);
        assert!(cb.is_empty());
        assert_eq!(cb.total_comparisons(), 0);
        assert_eq!(cb.num_profiles(), 0);
    }

    #[test]
    fn chunked_build_is_bit_identical_to_monolithic() {
        let pk = sample_keys();
        for kind_sep in [(ErKind::Dirty, 3u32), (ErKind::CleanClean, 1u32)] {
            let (kind, sep) = kind_sep;
            let mono = CompactBlocks::from_profile_keys(kind, sep, 4, &pk);
            for chunk in [1, 2, 3, 4, 100] {
                let chunked = CompactBlocks::from_profile_keys_chunked(kind, sep, 4, &pk, chunk);
                assert_eq!(chunked, mono, "chunk={chunk} kind={kind:?}");
            }
        }
    }

    #[test]
    fn budgeted_build_matches_monolithic() {
        let pk = sample_keys();
        let mono = CompactBlocks::from_profile_keys(ErKind::Dirty, 3, 4, &pk);
        for budget in [MemBudget::unlimited(), MemBudget::limited(1)] {
            let b = CompactBlocks::from_profile_keys_budgeted(ErKind::Dirty, 3, 4, &pk, &budget);
            assert_eq!(b, mono);
        }
    }

    mod chunked_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_chunked_equals_monolithic(
                per_profile in proptest::collection::vec(
                    proptest::collection::vec(0u32..30, 0..8), 0..40),
                chunk in 1usize..35,
                separator_frac in 0u32..100,
            ) {
                let pk = ProfileKeys::collect(&per_profile, |keys, buf| {
                    buf.extend_from_slice(keys)
                });
                let n = per_profile.len() as u32;
                let separator = if n == 0 { 0 } else { separator_frac % (n + 1) };
                for kind in [ErKind::Dirty, ErKind::CleanClean] {
                    let sep = match kind {
                        ErKind::Dirty => n,
                        ErKind::CleanClean => separator,
                    };
                    let mono = CompactBlocks::from_profile_keys(kind, sep, 30, &pk);
                    let chunked =
                        CompactBlocks::from_profile_keys_chunked(kind, sep, 30, &pk, chunk);
                    prop_assert_eq!(chunked, mono);
                }
            }
        }
    }
}
