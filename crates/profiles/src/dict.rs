//! Token dictionary: interning normalized tokens to dense integer ids.
//!
//! Every stage of the blocker keys on tokens — Token Blocking buckets by
//! them, Meta-Blocking's graph is built over the blocks they induce, TF-IDF
//! weights them. Re-hashing and re-allocating the same `String`s at each
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
use crate::tokenize::{each_token, Token};
use sparker_dataflow::{map_ranges, Context};
use std::collections::{HashMap, HashSet};
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
/// are allocation-free binary searches, resolution is a vector index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenDict {
    /// Sorted distinct tokens; the index of a token is its id.
    tokens: Vec<Token>,
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
        TokenDict { tokens }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when the dictionary holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The id of a normalized token, if present. Allocation-free.
    pub fn lookup(&self, token: &str) -> Option<TokenId> {
        self.tokens
            .binary_search_by(|t| t.as_str().cmp(token))
            .ok()
            .map(|i| TokenId(i as u32))
    }

    /// The token string behind an id — how block keys are turned back into
    /// strings for display, debugging and the materialized
    /// `BlockCollection`. Panics on ids from another dictionary.
    pub fn resolve(&self, id: TokenId) -> &str {
        &self.tokens[id.index()]
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
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
#[derive(Debug, Default)]
pub struct DictBuilder {
    ids: HashMap<Token, u32, FnvBuild>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern one normalized token, returning its provisional
    /// insertion-order id. Stable for repeated tokens.
    #[inline]
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            id
        } else {
            let id = self.ids.len() as u32;
            self.ids.insert(token.to_owned(), id);
            id
        }
    }

    /// Intern every normalized token of `text`, appending the provisional
    /// ids to `out` in occurrence order (duplicates included). `scratch` is
    /// the tokenizer's normalization buffer, reused across calls.
    pub fn intern_tokens(&mut self, text: &str, scratch: &mut String, out: &mut Vec<u32>) {
        each_token(text, scratch, |t| out.push(self.intern(t)));
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sort the vocabulary and seal it: returns the dictionary plus `perm`,
    /// where `perm[provisional_id]` is the final lexicographic id
    /// ([`TokenId`] value) of the token [`DictBuilder::intern`] handed out
    /// `provisional_id` for.
    pub fn finish(self) -> (TokenDict, Vec<u32>) {
        let mut entries: Vec<(Token, u32)> = self.ids.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut perm = vec![0u32; entries.len()];
        let mut tokens = Vec::with_capacity(entries.len());
        for (new_id, (token, old_id)) in entries.into_iter().enumerate() {
            perm[old_id as usize] = new_id as u32;
            tokens.push(token);
        }
        (TokenDict { tokens }, perm)
    }
}

/// Per-profile token-id lists in CSR form: the ids of profile `p` are
/// `ids[offsets[p]..offsets[p + 1]]`, each list sorted and deduplicated.
/// What the token pass ([`intern_profiles`]) hands to both the block
/// builder and the matcher's prepared views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileKeys {
    ids: Vec<u32>,
    offsets: Vec<u32>,
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
        }
    }

    /// Append the next profile's key list. `buf` holds its (unsorted,
    /// possibly duplicated) key ids; the list is sorted, deduplicated and
    /// adopted, and `buf` is left cleared for reuse.
    pub fn push_keys(&mut self, buf: &mut Vec<u32>) {
        buf.sort_unstable();
        buf.dedup();
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

    /// Remap every key id through `perm` (`id ← perm[id]`) and re-sort each
    /// list — how the provisional insertion-order ids a [`DictBuilder`]
    /// hands out during the single tokenization pass become final
    /// lexicographic [`TokenId`]s. `perm` must be injective over the ids
    /// present, so per-list dedup is preserved.
    pub fn remap(&mut self, perm: &[u32]) {
        for id in &mut self.ids {
            *id = perm[*id as usize];
        }
        for p in 0..self.len() {
            let (lo, hi) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            self.ids[lo..hi].sort_unstable();
        }
    }

    /// Append `other`'s lists after this table's (profile ranges
    /// concatenated in order).
    fn append(&mut self, other: &ProfileKeys) {
        let base = self.ids.len() as u32;
        self.ids.extend_from_slice(&other.ids);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
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
    intern_with(ctx, profiles, |p, builder, scratch, buf| {
        for a in &p.attributes {
            builder.intern_tokens(&a.value, scratch, buf);
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
    intern_with(ctx, profiles, |p, builder, _, buf| {
        buf.extend(key_fn(p).iter().map(|k| builder.intern(k)));
    })
}

/// The pass behind [`intern_profiles`] and [`intern_profile_keys`]:
/// `fill(profile, builder, scratch, buf)` interns one profile's keys into
/// the range's builder, appending their provisional ids to `buf`.
fn intern_with<F>(ctx: Option<&Context>, profiles: &[Profile], fill: F) -> (TokenDict, ProfileKeys)
where
    F: Fn(&Profile, &mut DictBuilder, &mut String, &mut Vec<u32>) + Sync,
{
    InternedRanges {
        ranges: map_ranges(ctx, profiles.len(), |r| intern_range(&profiles[r], &fill)),
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
    /// profile's sorted token ids, in range order: a k-way merge of the
    /// sorted range vocabularies, then one remap per range on the
    /// context's pool. The ids are lexicographic, so the result does not
    /// depend on where the ranges were cut.
    pub fn merge(self, ctx: Option<&Context>) -> (TokenDict, ProfileKeys) {
        let mut ranges = self.ranges;
        if ranges.len() == 1 {
            let RangePass {
                tokens,
                mut keys,
                perm,
            } = ranges.pop().expect("one range");
            keys.remap(&perm);
            return (TokenDict { tokens }, keys);
        }
        let mut vocab: Vec<Vec<Token>> = ranges
            .iter_mut()
            .map(|r| std::mem::take(&mut r.tokens))
            .collect();

        // k-way merge of the sorted range vocabularies: `maps[r][i]` is the
        // global id of range r's i-th token.
        let mut maps: Vec<Vec<u32>> = vocab.iter().map(|v| vec![0; v.len()]).collect();
        let mut heads = vec![0usize; vocab.len()];
        let mut tokens: Vec<Token> = Vec::new();
        loop {
            let mut min: Option<usize> = None;
            for r in 0..vocab.len() {
                if heads[r] < vocab[r].len()
                    && min.is_none_or(|m| vocab[r][heads[r]] < vocab[m][heads[m]])
                {
                    min = Some(r);
                }
            }
            let Some(m) = min else { break };
            let id = tokens.len() as u32;
            let token = std::mem::take(&mut vocab[m][heads[m]]);
            for r in 0..vocab.len() {
                if heads[r] < vocab[r].len() && (r == m || vocab[r][heads[r]] == token) {
                    maps[r][heads[r]] = id;
                    heads[r] += 1;
                }
            }
            tokens.push(token);
        }
        // Range r's provisional id i is global id `maps[r][perm_r[i]]`:
        // remap and sort every range once, in place, on the pool, through
        // that composition (each range's lock is taken by its one task
        // only).
        let ranges: Vec<Mutex<(ProfileKeys, Vec<u32>)>> = ranges
            .into_iter()
            .zip(&maps)
            .map(|(r, map)| {
                let composed = r.perm.iter().map(|&i| map[i as usize]).collect();
                Mutex::new((r.keys, composed))
            })
            .collect();
        map_ranges(ctx, ranges.len(), |rs| {
            for r in rs {
                let mut range = ranges[r].lock().unwrap_or_else(PoisonError::into_inner);
                let (local, composed) = &mut *range;
                local.remap(composed);
            }
        });
        let mut keys = ProfileKeys::new();
        for range in ranges {
            let (local, _) = range.into_inner().unwrap_or_else(PoisonError::into_inner);
            keys.append(&local);
        }
        (TokenDict { tokens }, keys)
    }
}

/// One range of the token pass: its sorted vocabulary, and its profiles'
/// provisional token ids with the map `perm` from provisional id to
/// position in that vocabulary.
#[derive(Clone, Debug)]
pub(crate) struct RangePass {
    tokens: Vec<Token>,
    keys: ProfileKeys,
    perm: Vec<u32>,
}

impl RangePass {
    /// Seal one range: its builder's vocabulary, sorted, and the key lists
    /// of provisional ids it handed out.
    pub(crate) fn seal(builder: DictBuilder, keys: ProfileKeys) -> Self {
        let (dict, perm) = builder.finish();
        RangePass {
            tokens: dict.tokens,
            keys,
            perm,
        }
    }
}

/// Intern one contiguous profile range on its own (see [`RangePass`]).
fn intern_range<F>(profiles: &[Profile], fill: &F) -> RangePass
where
    F: Fn(&Profile, &mut DictBuilder, &mut String, &mut Vec<u32>),
{
    let mut builder = DictBuilder::new();
    let mut scratch = String::new();
    let keys = ProfileKeys::collect(profiles, |p, buf| fill(p, &mut builder, &mut scratch, buf));
    RangePass::seal(builder, keys)
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
            dict.tokens(),
            &["bravia", "galaxy", "modène", "samsung", "sony", "tv"]
        );
        assert_eq!(dict.len(), 6);
        assert!(!dict.is_empty());
    }

    #[test]
    fn lookup_and_resolve_roundtrip() {
        let dict = TokenDict::build(&collection());
        for (i, t) in dict.tokens().iter().enumerate() {
            let id = dict.lookup(t).unwrap();
            assert_eq!(id, TokenId(i as u32));
            assert_eq!(dict.resolve(id), t);
        }
        assert_eq!(dict.lookup("absent"), None);
    }

    #[test]
    fn ids_sort_like_tokens() {
        let dict = TokenDict::build(&collection());
        let mut by_id: Vec<&str> = dict.tokens().iter().map(|t| t.as_str()).collect();
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
        let mut keys = ProfileKeys::collect(&[vec![0u32, 1, 2], vec![2, 0]], |p, buf| {
            buf.extend_from_slice(p)
        });
        keys.remap(&[5, 3, 4]);
        assert_eq!(keys.keys_of(0), &[3, 4, 5]);
        assert_eq!(keys.keys_of(1), &[4, 5]);
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
