//! Token dictionary: interning normalized tokens to dense integer ids.
//!
//! Every stage of the blocker keys on tokens — Token Blocking buckets by
//! them, Meta-Blocking's graph is built over the blocks they induce, the
//! matcher compares their sets. Re-hashing and re-allocating the same `String`s at each
//! stage is pure overhead, so the pipeline interns the distinct tokens of a
//! collection **once** into a [`TokenDict`] and pushes the dense
//! [`TokenId`]s through every hot path. Ids are assigned in lexicographic
//! token order, so sorting by id equals sorting by key string — block
//! collections built on ids come out in exactly the order the string-keyed
//! implementation produces.
//!
//! The original token strings stay recoverable for display and debugging
//! via [`TokenDict::resolve`].

use crate::collection::ProfileCollection;
use crate::profile::Profile;
use crate::tokenize::{each_token, each_token_hashed, token_hash, Token};
use sparker_dataflow::{map_ranges, Context};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, PoisonError};

/// FNV-1a, the interner's hasher. Tokens are short (a handful of bytes), so
/// the per-byte multiply beats SipHash's fixed per-key setup cost by a wide
/// margin, and the interner needs no DoS resistance — keys come from the
/// local dataset, not an adversary.
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FnvBuild = BuildHasherDefault<Fnv1a>;

/// Dense id of a distinct normalized token within a [`TokenDict`].
///
/// Ids run `0..dict.len()` in lexicographic token order, so they double as
/// vector indices and as sort keys equivalent to the token strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The distinct normalized tokens of a collection, interned to dense
/// [`TokenId`]s in lexicographic order.
///
/// Built in one pass over the collection ([`TokenDict::build`], or
/// [`intern_profiles`] together with every profile's token ids); lookups
/// are allocation-free binary searches, resolution is a slice of one
/// buffer holding every token back to back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenDict {
    /// The sorted distinct tokens, back to back.
    text: String,
    /// `ends[id]`: where token `id` ends in `text` (it starts where token
    /// `id − 1` ends).
    ends: Vec<u32>,
}

impl TokenDict {
    /// Intern every distinct token of the collection, sequentially.
    pub fn build(collection: &ProfileCollection) -> Self {
        let mut set: HashSet<Token, FnvBuild> = HashSet::default();
        let mut scratch = String::new();
        for p in collection.profiles() {
            for a in &p.attributes {
                each_token(&a.value, &mut scratch, |t| {
                    if !set.contains(t) {
                        set.insert(t.to_owned());
                    }
                });
            }
        }
        let mut tokens: Vec<Token> = set.into_iter().collect();
        tokens.sort_unstable();
        let mut dict = TokenDict::default();
        for t in &tokens {
            dict.push(t);
        }
        dict
    }

    /// Append the next token, which must sort after every token already in.
    fn push(&mut self, token: &str) {
        self.text.push_str(token);
        let end = u32::try_from(self.text.len()).expect("token dictionary under 4 GiB");
        self.ends.push(end);
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the dictionary holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The id of a normalized token, if present. Allocation-free.
    pub fn lookup(&self, token: &str) -> Option<TokenId> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.resolve(TokenId(mid as u32)).cmp(token) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(TokenId(mid as u32)),
            }
        }
        None
    }

    /// The token string behind an id — how block keys are turned back into
    /// strings for display, debugging and the materialized
    /// `BlockCollection`. Panics on ids from another dictionary.
    pub fn resolve(&self, id: TokenId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len() as u32).map(|i| self.resolve(TokenId(i)))
    }

    /// The schema-agnostic token-id bag of a profile: sorted, deduplicated
    /// ids of every token of every attribute value. The interned equivalent
    /// of [`Profile::token_set`]; tokens absent from the dictionary are
    /// skipped.
    pub fn token_ids(&self, profile: &Profile) -> Vec<TokenId> {
        let mut out = Vec::new();
        let mut scratch = String::new();
        self.token_ids_into(profile, &mut scratch, &mut out);
        out
    }

    /// [`TokenDict::token_ids`] into reusable buffers (`out` is cleared
    /// first) — the allocation-free loop shape interned blocking uses.
    pub fn token_ids_into(&self, profile: &Profile, scratch: &mut String, out: &mut Vec<TokenId>) {
        out.clear();
        for a in &profile.attributes {
            each_token(&a.value, scratch, |t| {
                if let Some(id) = self.lookup(t) {
                    out.push(id);
                }
            });
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Incremental interner for single-pass pipelines.
///
/// [`TokenDict::build`] followed by per-token [`TokenDict::lookup`] scans
/// the collection twice and pays a binary search per token occurrence.
/// `DictBuilder` instead assigns **provisional insertion-order ids** while
/// the caller streams tokens (one hash probe per occurrence), and
/// [`DictBuilder::finish`] then sorts the vocabulary once and returns the
/// dictionary together with the permutation from provisional ids to final
/// lexicographic [`TokenId`]s. Callers remap the ids they recorded through
/// that permutation — a flat array lookup per occurrence — so the whole
/// collection is tokenized exactly once.
///
/// The table is open-addressed with linear probing: a slot holds the upper
/// 32 bits of a token's hash and its provisional id, and the distinct
/// tokens' bytes sit back to back in one arena. A token is hashed once, by
/// the tokenizer that found it; its bytes are compared only when a slot's
/// hash bits match, and are copied into the arena only the first time.
#[derive(Debug, Default, Clone)]
pub struct DictBuilder {
    /// Power-of-two slot array, at most three quarters full: `hash >> 32`
    /// in the upper half of a slot, the provisional id in the lower, or
    /// [`EMPTY`].
    slots: Vec<u64>,
    /// Every distinct token's bytes, in provisional id order.
    arena: Vec<u8>,
    /// `ends[id]`: where token `id`'s bytes end in `arena`; they start where
    /// token `id − 1`'s end.
    ends: Vec<u32>,
}

const EMPTY: u64 = u64::MAX;

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern one normalized token, returning its provisional
    /// insertion-order id. Stable for repeated tokens.
    #[inline]
    pub fn intern(&mut self, token: &str) -> u32 {
        self.intern_hashed(token_hash(token.as_bytes()), token.as_bytes())
    }

    /// [`DictBuilder::intern`] of a token whose [`token_hash`] the caller
    /// already took.
    #[inline]
    pub(crate) fn intern_hashed(&mut self, hash: u64, token: &[u8]) -> u32 {
        if 4 * self.ends.len() >= 3 * self.slots.len() {
            self.grow();
        }
        let tag = hash >> 32;
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                let id = self.ends.len() as u32;
                self.arena.extend_from_slice(token);
                let end = u32::try_from(self.arena.len()).expect("token arena under 4 GiB");
                self.ends.push(end);
                self.slots[i] = (tag << 32) | u64::from(id);
                return id;
            }
            if slot >> 32 == tag && self.token(slot as u32) == token {
                return slot as u32;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot array (1 024 slots at first) and re-place every
    /// entry by the hash bits its slot keeps.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = (slot >> 32) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// The bytes of the token with provisional id `id`.
    #[inline]
    fn token(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.arena[start as usize..self.ends[id] as usize]
    }

    /// The token with provisional id `id`, as text.
    fn token_str(&self, id: u32) -> &str {
        std::str::from_utf8(self.token(id)).expect("tokens are interned from text")
    }

    /// Intern every normalized token of `text`, appending the provisional
    /// ids to `out` in occurrence order (duplicates included). `scratch` is
    /// the tokenizer's normalization buffer, reused across calls.
    pub fn intern_tokens(&mut self, text: &str, scratch: &mut String, out: &mut Vec<u32>) {
        each_token_hashed(text, scratch, |hash, t| {
            out.push(self.intern_hashed(hash, t))
        });
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The provisional ids in lexicographic token order, each with its
    /// token's first eight bytes as one big-endian word (zero-padded, which
    /// orders like the bytes): sorted by that word, the bytes compared only
    /// on a tie.
    fn sorted_ids(&self) -> Vec<(u64, u32)> {
        let mut entries: Vec<(u64, u32)> = (0..self.len() as u32)
            .map(|id| (head_word(self.token(id)), id))
            .collect();
        entries.sort_unstable_by(|&a, &b| self.token_order(a, self, b));
        entries
    }

    /// Two `(head word, provisional id)` entries in token order: `a` of
    /// this builder, `b` of `other`.
    #[inline]
    fn token_order(&self, a: (u64, u32), other: &DictBuilder, b: (u64, u32)) -> std::cmp::Ordering {
        a.0.cmp(&b.0)
            .then_with(|| self.token(a.1).cmp(other.token(b.1)))
    }

    /// Sort the vocabulary and seal it: returns the dictionary plus `perm`,
    /// where `perm[provisional_id]` is the final lexicographic id
    /// ([`TokenId`] value) of the token [`DictBuilder::intern`] handed out
    /// `provisional_id` for.
    pub fn finish(self) -> (TokenDict, Vec<u32>) {
        let order = self.sorted_ids();
        let mut perm = vec![0u32; order.len()];
        let mut dict = TokenDict::default();
        for (new_id, &(_, old_id)) in order.iter().enumerate() {
            perm[old_id as usize] = new_id as u32;
            dict.push(self.token_str(old_id));
        }
        (dict, perm)
    }
}

/// Per-profile token-id lists in CSR form: the ids of profile `p` are
/// `ids[offsets[p]..offsets[p + 1]]`, each list sorted and deduplicated,
/// together with each id's document frequency — how many lists hold it.
/// What the token pass ([`intern_profiles`]) hands to both the block
/// builder (a token's frequency is its block's size) and the matcher's
/// prepared views (the most frequent tokens are its hot prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileKeys {
    ids: Vec<u32>,
    offsets: Vec<u32>,
    /// `df[k]`: the number of lists holding `k`, up to the largest id held.
    df: Vec<u32>,
}

impl ProfileKeys {
    /// Collect per-profile key lists. `fill` appends the (unsorted,
    /// possibly duplicated) key ids of one profile into the buffer; the
    /// builder sorts and deduplicates each list.
    pub fn collect<P>(profiles: &[P], mut fill: impl FnMut(&P, &mut Vec<u32>)) -> Self {
        let mut keys = ProfileKeys::new();
        let mut buf: Vec<u32> = Vec::new();
        for p in profiles {
            fill(p, &mut buf);
            keys.push_keys(&mut buf);
        }
        keys
    }

    /// An empty key table to grow incrementally with
    /// [`ProfileKeys::push_keys`] — the streaming entry point used when
    /// profiles arrive in chunks instead of as one slice.
    pub fn new() -> Self {
        ProfileKeys {
            ids: Vec::new(),
            offsets: vec![0],
            df: Vec::new(),
        }
    }

    /// Append the next profile's key list. `buf` holds its (unsorted,
    /// possibly duplicated) key ids; the list is sorted, deduplicated and
    /// adopted, and `buf` is left cleared for reuse.
    pub fn push_keys(&mut self, buf: &mut Vec<u32>) {
        buf.sort_unstable();
        buf.dedup();
        if let Some(&max) = buf.last() {
            if max as usize >= self.df.len() {
                self.df.resize(max as usize + 1, 0);
            }
        }
        for &k in buf.iter() {
            self.df[k as usize] += 1;
        }
        self.ids.extend_from_slice(buf);
        self.offsets.push(self.ids.len() as u32);
        buf.clear();
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when no profiles were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key ids of profile `p`, sorted and deduplicated.
    pub fn keys_of(&self, p: usize) -> &[u32] {
        &self.ids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Document frequencies: `df()[k]` lists hold key `k`. The slice ends
    /// at the largest key held; keys past it are held by none.
    pub fn df(&self) -> &[u32] {
        &self.df
    }
}

impl Default for ProfileKeys {
    fn default() -> Self {
        Self::new()
    }
}

/// The token pass: tokenize and intern every profile exactly once, and
/// return the collection's lexicographic [`TokenDict`] with each profile's
/// sorted, deduplicated token ids.
///
/// Without a context the pass runs on the calling thread. With one, each
/// worker interns a contiguous profile range into its own [`DictBuilder`]
/// and key table; the sorted per-range vocabularies are merged into the
/// one lexicographic dictionary and every range is remapped into it.
/// Because ids are lexicographic, the result is identical for any worker
/// count — the ids are the same ones [`TokenDict::build`] assigns.
pub fn intern_profiles(ctx: Option<&Context>, profiles: &[Profile]) -> (TokenDict, ProfileKeys) {
    intern_with(ctx, profiles, |p, range| {
        for a in &p.attributes {
            range.tokens(&a.value);
        }
    })
}

/// [`intern_profiles`] over caller-derived keys instead of tokens:
/// `key_fn` lists a profile's keys (duplicates allowed), and the distinct
/// keys of the collection are interned into one lexicographic dictionary
/// exactly as tokens are — so ascending id is sorted key order at any
/// worker count. This is the key pass of loose-schema keyed blocking.
pub fn intern_profile_keys(
    ctx: Option<&Context>,
    profiles: &[Profile],
    key_fn: impl Fn(&Profile) -> Vec<String> + Sync,
) -> (TokenDict, ProfileKeys) {
    intern_with(ctx, profiles, |p, range| {
        for k in key_fn(p) {
            range.key(&k);
        }
    })
}

/// The pass behind [`intern_profiles`] and [`intern_profile_keys`]:
/// `fill(profile, range)` interns one profile's keys into its range.
fn intern_with<F>(ctx: Option<&Context>, profiles: &[Profile], fill: F) -> (TokenDict, ProfileKeys)
where
    F: Fn(&Profile, &mut RangeBuilder) + Sync,
{
    InternedRanges {
        ranges: map_ranges(ctx, profiles.len(), |r| {
            let mut range = RangeBuilder::default();
            for p in &profiles[r] {
                fill(p, &mut range);
                range.end_profile();
            }
            range.seal()
        }),
    }
    .merge(ctx)
}

/// A token pass cut into consecutive profile ranges, each interned on its
/// own into its own [`DictBuilder`] and not yet merged: what the parallel
/// token pass holds between its per-range tasks and its merge, and what
/// the JSON-lines loader's text-free pass
/// ([`crate::token_pass_from_json_lines`]) returns per source, one range
/// per parsed chunk. [`InternedRanges::append`] puts a second source's
/// ranges after the first's; [`InternedRanges::merge`] is the one merge
/// both paths share.
#[derive(Debug)]
pub struct InternedRanges {
    /// The ranges, in profile order.
    pub(crate) ranges: Vec<RangePass>,
}

impl InternedRanges {
    /// Put `other`'s profiles after this pass's (a clean–clean task's
    /// second source after its first).
    pub fn append(&mut self, other: InternedRanges) {
        self.ranges.extend(other.ranges);
    }

    /// Merge the ranges into one lexicographic [`TokenDict`] and every
    /// profile's sorted token ids with their document frequencies, in range
    /// order: a k-way merge of the sorted range vocabularies (which also
    /// sums each token's per-range frequency), then one remap-and-sort per
    /// range on the context's pool — the only sort a key list gets. The ids
    /// are lexicographic, so the result does not depend on where the ranges
    /// were cut.
    pub fn merge(self, ctx: Option<&Context>) -> (TokenDict, ProfileKeys) {
        let mut ranges = self.ranges;
        // k-way merge of the sorted range vocabularies: `maps[r][i]` is the
        // global id of range r's provisional id i.
        let mut maps: Vec<Vec<u32>> = ranges.iter().map(|r| vec![0; r.order.len()]).collect();
        let mut heads = vec![0usize; ranges.len()];
        let (mut dict, mut df) = (TokenDict::default(), Vec::new());
        loop {
            // The first range holding the smallest head token.
            let mut min: Option<(usize, (u64, u32))> = None;
            for (r, range) in ranges.iter().enumerate() {
                if let Some(&entry) = range.order.get(heads[r]) {
                    let smaller = min.is_none_or(|(m, least)| {
                        range
                            .dict
                            .token_order(entry, &ranges[m].dict, least)
                            .is_lt()
                    });
                    if smaller {
                        min = Some((r, entry));
                    }
                }
            }
            let Some((m, least)) = min else { break };
            let id = dict.len() as u32;
            let mut count = 0;
            for (r, range) in ranges.iter().enumerate().skip(m) {
                match range.order.get(heads[r]) {
                    Some(&entry)
                        if r == m
                            || range
                                .dict
                                .token_order(entry, &ranges[m].dict, least)
                                .is_eq() =>
                    {
                        maps[r][entry.1 as usize] = id;
                        count += range.df[entry.1 as usize];
                        heads[r] += 1;
                    }
                    _ => {}
                }
            }
            dict.push(ranges[m].dict.token_str(least.1));
            df.push(count);
        }
        // One table of every list: the first range's, grown in place, with
        // the others copied behind it.
        let mut keys = ProfileKeys {
            ids: ranges
                .first_mut()
                .map(|r| std::mem::take(&mut r.ids))
                .unwrap_or_default(),
            offsets: vec![0],
            df,
        };
        // `bounds[r]`: where range r's ids and profiles start.
        let mut bounds = vec![(0, 0)];
        for (r, range) in ranges.iter().enumerate() {
            if r > 0 {
                keys.ids.extend_from_slice(&range.ids);
            }
            let base = bounds[r].0 as u32;
            keys.offsets
                .extend(range.offsets[1..].iter().map(|&o| base + o));
            bounds.push((keys.ids.len(), keys.offsets.len() - 1));
        }
        drop(ranges);
        // Remap every range's lists to global ids and sort each, on the
        // pool: range r's ids are its own slice of the table, behind its
        // own lock.
        let mut rest = keys.ids.as_mut_slice();
        let mut slices = Vec::with_capacity(maps.len());
        for w in bounds.windows(2) {
            let (slice, tail) = rest.split_at_mut(w[1].0 - w[0].0);
            slices.push(Mutex::new(slice));
            rest = tail;
        }
        let offsets = &keys.offsets;
        map_ranges(ctx, slices.len(), |rs| {
            let mut scratch = Vec::new();
            for r in rs {
                let mut slice = slices[r].lock().unwrap_or_else(PoisonError::into_inner);
                let ((base, first), (_, last)) = (bounds[r], bounds[r + 1]);
                for w in offsets[first..=last].windows(2) {
                    let list = &mut slice[w[0] as usize - base..w[1] as usize - base];
                    remap_sorted(list, &maps[r], &mut scratch);
                }
            }
        });
        drop(slices);
        (dict, keys)
    }
}

/// Remap one list of distinct provisional ids through `map` and sort it.
/// A short list is sorted by rank — each id goes to the position that
/// counts the ids below it, a count the compiler vectorizes — with no
/// data-dependent branch; a long one by `sort_unstable`.
#[inline]
fn remap_sorted(list: &mut [u32], map: &[u32], scratch: &mut Vec<u32>) {
    if list.len() > 32 {
        for id in list.iter_mut() {
            *id = map[*id as usize];
        }
        list.sort_unstable();
        return;
    }
    scratch.clear();
    scratch.extend(list.iter().map(|&id| map[id as usize]));
    for &x in scratch.iter() {
        let rank = scratch.iter().map(|&y| usize::from(y < x)).sum::<usize>();
        list[rank] = x;
    }
}

/// A token's first eight bytes as one big-endian word, zero-padded: two
/// words compare as the bytes do wherever they differ.
#[inline]
fn head_word(token: &[u8]) -> u64 {
    let mut head = [0u8; 8];
    let n = token.len().min(8);
    head[..n].copy_from_slice(&token[..n]);
    u64::from_be_bytes(head)
}

/// One range of the token pass, sealed: its interner with the provisional
/// ids in lexicographic token order, each profile's distinct provisional
/// ids in first-occurrence order (CSR), and each provisional id's
/// document frequency within the range.
#[derive(Clone, Debug)]
pub(crate) struct RangePass {
    dict: DictBuilder,
    order: Vec<(u64, u32)>,
    ids: Vec<u32>,
    offsets: Vec<u32>,
    df: Vec<u32>,
}

/// Builds one [`RangePass`] profile by profile. A profile's repeated
/// tokens are dropped as they occur, by a stamp per provisional id (the
/// last profile that held it), which counts the id's document frequency in
/// the same step — no per-profile sort: [`InternedRanges::merge`] sorts
/// each list once, after the remap.
#[derive(Debug)]
pub(crate) struct RangeBuilder {
    dict: DictBuilder,
    scratch: String,
    ids: Vec<u32>,
    offsets: Vec<u32>,
    /// Per provisional id: `[document frequency, last profile holding it]`,
    /// profiles counted from 1.
    seen: Vec<[u32; 2]>,
}

impl Default for RangeBuilder {
    fn default() -> Self {
        RangeBuilder {
            dict: DictBuilder::new(),
            scratch: String::new(),
            ids: Vec::new(),
            offsets: vec![0],
            seen: Vec::new(),
        }
    }
}

impl RangeBuilder {
    /// Intern every normalized token of `text` into the open profile.
    #[inline]
    pub(crate) fn tokens(&mut self, text: &str) {
        let RangeBuilder {
            dict,
            scratch,
            ids,
            offsets,
            seen,
        } = self;
        let profile = offsets.len() as u32;
        each_token_hashed(text, scratch, |hash, t| {
            hold(seen, ids, profile, dict.intern_hashed(hash, t));
        });
    }

    /// Intern one key, verbatim, into the open profile.
    pub(crate) fn key(&mut self, key: &str) {
        let id = self.dict.intern(key);
        hold(&mut self.seen, &mut self.ids, self.offsets.len() as u32, id);
    }

    /// Close the open profile; the next call opens the next one.
    pub(crate) fn end_profile(&mut self) {
        self.offsets.push(self.ids.len() as u32);
    }

    /// Seal the range: sort its vocabulary, keep its frequencies.
    pub(crate) fn seal(self) -> RangePass {
        RangePass {
            order: self.dict.sorted_ids(),
            dict: self.dict,
            ids: self.ids,
            offsets: self.offsets,
            df: self.seen.into_iter().map(|[df, _]| df).collect(),
        }
    }
}

/// Record that `profile` holds provisional id `id`: appended to its list
/// and counted once, however often it repeats. A new id is always the next
/// one, so `seen` grows by one entry at a time.
#[inline]
fn hold(seen: &mut Vec<[u32; 2]>, ids: &mut Vec<u32>, profile: u32, id: u32) {
    if id as usize == seen.len() {
        seen.push([0, 0]);
    }
    let entry = &mut seen[id as usize];
    if entry[1] != profile {
        *entry = [entry[0] + 1, profile];
        ids.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SourceId;

    fn collection() -> ProfileCollection {
        ProfileCollection::dirty(vec![
            Profile::builder(SourceId(0), "a")
                .attr("name", "Sony BRAVIA tv")
                .attr("desc", "bravia Modène tv")
                .build(),
            Profile::builder(SourceId(0), "b")
                .attr("name", "samsung galaxy")
                .build(),
        ])
    }

    #[test]
    fn build_interns_distinct_sorted() {
        let dict = TokenDict::build(&collection());
        assert_eq!(
            dict.tokens().collect::<Vec<_>>(),
            ["bravia", "galaxy", "modène", "samsung", "sony", "tv"]
        );
        assert_eq!(dict.len(), 6);
        assert!(!dict.is_empty());
    }

    #[test]
    fn lookup_and_resolve_roundtrip() {
        let dict = TokenDict::build(&collection());
        for (i, t) in dict.tokens().enumerate() {
            let id = dict.lookup(t).unwrap();
            assert_eq!(id, TokenId(i as u32));
            assert_eq!(dict.resolve(id), t);
        }
        assert_eq!(dict.lookup("absent"), None);
    }

    #[test]
    fn ids_sort_like_tokens() {
        let dict = TokenDict::build(&collection());
        let mut by_id: Vec<&str> = dict.tokens().collect();
        by_id.sort_by_key(|t| dict.lookup(t).unwrap());
        let mut by_str = by_id.clone();
        by_str.sort_unstable();
        assert_eq!(by_id, by_str);
    }

    #[test]
    fn token_ids_match_token_set() {
        let coll = collection();
        let dict = TokenDict::build(&coll);
        for p in coll.profiles() {
            let ids = dict.token_ids(p);
            let strings: Vec<&str> = ids.iter().map(|&i| dict.resolve(i)).collect();
            let expected: Vec<Token> = p.token_set().into_iter().collect();
            assert_eq!(
                strings,
                expected.iter().map(String::as_str).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn token_pass_equals_build_at_any_worker_count() {
        let coll = collection();
        let dict = TokenDict::build(&coll);
        for ctx in [None, Some(Context::new(1)), Some(Context::new(2))] {
            let (pass, keys) = intern_profiles(ctx.as_ref(), coll.profiles());
            assert_eq!(pass, dict);
            assert_eq!(keys.len(), coll.len());
            for p in coll.profiles() {
                let ids: Vec<TokenId> = keys
                    .keys_of(p.id.index())
                    .iter()
                    .map(|&t| TokenId(t))
                    .collect();
                assert_eq!(ids, dict.token_ids(p));
            }
        }
        // More workers than profiles, and no profiles at all.
        let (pass, keys) = intern_profiles(Some(&Context::new(4)), coll.profiles());
        assert_eq!((pass, keys.len()), (dict, 2));
        let empty = ProfileCollection::dirty(vec![]);
        let (pass, keys) = intern_profiles(Some(&Context::new(2)), empty.profiles());
        assert!(pass.is_empty() && keys.is_empty());
    }

    #[test]
    fn empty_collection_empty_dict() {
        let empty = ProfileCollection::dirty(vec![]);
        assert!(TokenDict::build(&empty).is_empty());
    }

    #[test]
    fn remap_keeps_lists_sorted() {
        // The merge's remap of one list of distinct provisional ids: short
        // lists are placed by rank, long ones sorted.
        let mut scratch = Vec::new();
        let mut list = vec![0u32, 1, 2];
        remap_sorted(&mut list, &[5, 3, 4], &mut scratch);
        assert_eq!(list, [3, 4, 5]);
        let mut list = vec![2u32, 0];
        remap_sorted(&mut list, &[5, 3, 4], &mut scratch);
        assert_eq!(list, [4, 5]);
        let reversed: Vec<u32> = (0..100).rev().collect();
        for len in [32u32, 33, 40] {
            let mut list: Vec<u32> = (0..len).collect();
            remap_sorted(&mut list, &reversed, &mut scratch);
            assert_eq!(list, (100 - len..100).collect::<Vec<u32>>(), "{len} ids");
        }
    }

    #[test]
    fn collected_lists_are_sorted_with_their_frequencies() {
        let keys = ProfileKeys::collect(&[vec![2u32, 0, 2, 1], vec![2, 0], vec![]], |p, buf| {
            buf.extend_from_slice(p)
        });
        assert_eq!(keys.keys_of(0), &[0, 1, 2]);
        assert_eq!(keys.keys_of(1), &[0, 2]);
        assert_eq!(keys.keys_of(2), &[] as &[u32]);
        assert_eq!(keys.df(), &[2, 1, 2]);
        assert!(ProfileKeys::new().df().is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TokenId(4).to_string(), "t4");
        assert_eq!(TokenId(4).index(), 4);
    }

    #[test]
    fn builder_matches_build_and_permutes() {
        let coll = collection();
        let expected = TokenDict::build(&coll);

        let mut builder = DictBuilder::new();
        assert!(builder.is_empty());
        let mut scratch = String::new();
        let mut raw: Vec<(String, u32)> = Vec::new();
        for p in coll.profiles() {
            for a in &p.attributes {
                each_token(&a.value, &mut scratch, |t| {
                    raw.push((t.to_owned(), builder.intern(t)));
                });
            }
        }
        // Repeated tokens get the same provisional id.
        assert_eq!(builder.len(), expected.len());
        let (dict, perm) = builder.finish();
        assert_eq!(dict, expected);
        // Remapping a provisional id yields the token's lexicographic id.
        for (token, old_id) in raw {
            assert_eq!(TokenId(perm[old_id as usize]), dict.lookup(&token).unwrap());
        }
    }

    #[test]
    fn interner_keeps_its_ids_through_every_resize() {
        let mut b = DictBuilder::new();
        let tokens: Vec<String> = (0..10_000).map(|i| format!("t{i}")).collect();
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(b.intern(t), i as u32);
        }
        assert!(
            3 * b.slots.len() > 4 * tokens.len(),
            "grown past 1 024 slots"
        );
        for (i, t) in tokens.iter().enumerate().rev() {
            assert_eq!(b.intern(t), i as u32, "{t}");
        }
        assert_eq!(b.len(), tokens.len());
        let (dict, perm) = b.finish();
        let mut sorted = tokens.clone();
        sorted.sort_unstable();
        assert_eq!(dict.tokens().collect::<Vec<_>>(), sorted);
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(dict.resolve(TokenId(perm[i])), t);
        }
    }

    #[test]
    fn interner_tells_apart_tokens_that_differ_late() {
        // Equal first word, equal first two words, and equal but for length.
        let tokens = [
            "abcdefgh1",
            "abcdefgh2",
            "abcdefghijklmnop1",
            "abcdefghijklmnop2",
            "abcdefgh",
            "abcdefghijklmnop",
            "abcdefghijklmnopabcdefghijklmnop1",
            "abcdefghijklmnopabcdefghijklmnop2",
        ];
        let mut b = DictBuilder::new();
        let ids: Vec<u32> = tokens.iter().map(|t| b.intern(t)).collect();
        assert_eq!(ids, (0..tokens.len() as u32).collect::<Vec<_>>());
        let (dict, perm) = b.finish();
        let mut sorted = tokens.to_vec();
        sorted.sort_unstable();
        assert_eq!(dict.tokens().collect::<Vec<_>>(), sorted);
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(dict.lookup(t), Some(TokenId(perm[i])));
        }
    }

    #[test]
    fn interner_compares_bytes_when_hashes_collide() {
        // Every token forced onto one hash: one probe chain, and only the
        // bytes tell the tokens apart — through the resizes too.
        let mut b = DictBuilder::new();
        let tokens: Vec<String> = (0..2_000).map(|i| format!("x{i}")).collect();
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(b.intern_hashed(42, t.as_bytes()), i as u32);
        }
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(b.intern_hashed(42, t.as_bytes()), i as u32);
        }
        // Hashes equal in the bits a slot keeps but not below.
        assert_eq!(b.intern_hashed(7 << 32, b"p"), 2_000);
        assert_eq!(b.intern_hashed((7 << 32) | 1, b"q"), 2_001);
        assert_eq!(b.intern_hashed(7 << 32, b"p"), 2_000);
        let (dict, _) = b.finish();
        assert_eq!(dict.len(), 2_002);
    }

    #[test]
    fn empty_passes_finish_empty() {
        let (dict, perm) = DictBuilder::new().finish();
        assert!(dict.is_empty() && perm.is_empty());
        assert_eq!(dict.tokens().count(), 0);
        assert_eq!(dict.lookup(""), None);
        let (dict, keys) = InternedRanges { ranges: vec![] }.merge(None);
        assert!(dict.is_empty() && keys.is_empty() && keys.df().is_empty());
        // Ranges of profiles without a token.
        let mut range = RangeBuilder::default();
        range.tokens("!!! ---");
        range.end_profile();
        range.end_profile();
        let ranges = InternedRanges {
            ranges: vec![range.seal(), RangeBuilder::default().seal()],
        };
        let (dict, keys) = ranges.merge(Some(&Context::new(2)));
        assert!(dict.is_empty() && keys.df().is_empty());
        assert_eq!(keys.len(), 2);
        assert!(keys.keys_of(0).is_empty() && keys.keys_of(1).is_empty());
    }

    #[test]
    fn ranges_count_each_token_once_per_profile() {
        let profiles: Vec<Profile> = ["b a b", "A c", "", "c c c B"]
            .iter()
            .enumerate()
            .map(|(i, text)| {
                Profile::builder(SourceId(0), i.to_string())
                    .attr("t", *text)
                    .attr("u", "a")
                    .build()
            })
            .collect();
        for ctx in [None, Some(Context::new(2)), Some(Context::new(3))] {
            let (dict, keys) = intern_profiles(ctx.as_ref(), &profiles);
            assert_eq!(dict.tokens().collect::<Vec<_>>(), ["a", "b", "c"]);
            assert_eq!(keys.keys_of(0), &[0, 1]);
            assert_eq!(keys.keys_of(1), &[0, 2]);
            assert_eq!(keys.keys_of(2), &[0]);
            assert_eq!(keys.keys_of(3), &[0, 1, 2]);
            assert_eq!(keys.df(), &[4, 2, 2]);
        }
    }

    #[test]
    fn intern_tokens_matches_per_token_intern() {
        let mut a = DictBuilder::new();
        let mut b = DictBuilder::new();
        let mut scratch = String::new();
        let texts = ["Sony Bravia TV", "sony BRAVIA 40-inch", ""];
        let mut via_helper = Vec::new();
        let mut via_loop = Vec::new();
        for text in texts {
            a.intern_tokens(text, &mut scratch, &mut via_helper);
            each_token(text, &mut scratch, |t| via_loop.push(b.intern(t)));
        }
        assert_eq!(via_helper, via_loop);
        assert_eq!(a.len(), b.len());
        // Occurrence order preserved, duplicates kept: "sony" and "bravia"
        // repeat across the two texts with their original provisional ids.
        assert_eq!(via_helper[0], via_helper[3]);
        assert_eq!(via_helper[1], via_helper[4]);
    }
}
