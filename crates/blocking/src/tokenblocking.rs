//! Schema-agnostic Token Blocking and its keyed generalization.
//!
//! Both now run on the interned fast path: keys are mapped to dense ids
//! (tokens by the token pass, ad-hoc keys by the same pass over the
//! caller's keys — each into a lexicographic [`TokenDict`]), blocks are
//! built by counting sort into a CSR
//! [`CompactBlocks`], and strings only reappear when the result is
//! materialized. The original `HashMap<String, …>` implementation is kept
//! as [`token_blocking_string`] — it is the reference the property tests
//! compare against and the baseline the benchmarks measure the interned
//! path against.

use crate::block::Block;
use crate::collection::BlockCollection;
use crate::csr::CompactBlocks;
use sparker_dataflow::{Context, MemBudget};
use sparker_profiles::{
    intern_profile_keys, intern_profiles, ErKind, Profile, ProfileCollection, ProfileId,
    ProfileKeys, TokenDict,
};
use std::collections::HashMap;

/// Schema-agnostic Token Blocking (Figure 1(b) of the paper): each distinct
/// token appearing in any attribute value of a profile becomes a blocking
/// key; a block holds every profile containing that token.
///
/// Blocks inducing no comparison (singletons; single-source blocks in
/// clean–clean tasks) are dropped. Block order is deterministic: keys are
/// sorted. Internally this interns tokens and buckets ids in **one pass**
/// over the collection — see [`token_blocking_with_dict`] for the entry
/// point that also returns the dictionary, and [`TokenBlocks::from_pass`]
/// to build from a token pass taken elsewhere (while loading).
pub fn token_blocking(collection: &ProfileCollection) -> BlockCollection {
    let (dict, compact) = token_blocking_with_dict(collection);
    compact.materialize(&dict)
}

/// What one token (or key) pass over a collection leaves behind: the
/// dictionary, every profile's sorted key ids and the CSR blocks built from
/// them.
#[derive(Debug, Clone)]
pub struct TokenBlocks {
    /// The collection's blocking keys — its tokens, or the caller's keys
    /// for [`keyed_blocking_pass`] — interned in lexicographic order.
    pub dict: TokenDict,
    /// Each profile's sorted, deduplicated key ids. For tokens the matcher
    /// builds its prepared views from these instead of re-tokenizing; the
    /// CSR clean ([`CompactBlocks::clean`]) reads them for both.
    pub keys: ProfileKeys,
    /// The token blocks, keyed by id.
    pub blocks: CompactBlocks,
}

impl TokenBlocks {
    /// The CSR blocks of a finished token (or key) pass over `collection`
    /// — its dictionary and every profile's sorted key ids, in profile id
    /// order — counting-sorted under `budget`
    /// ([`CompactBlocks::from_profile_keys_budgeted`]). The pass may come
    /// from [`intern_profiles`] or from the loader's text-free pass
    /// ([`sparker_profiles::token_pass_from_json_lines`]); only the
    /// collection's kind, separator and size are read, so a text-free
    /// collection builds the same blocks as the full one. Panics when the
    /// pass does not cover the collection.
    pub fn from_pass(
        collection: &ProfileCollection,
        dict: TokenDict,
        keys: ProfileKeys,
        budget: &MemBudget,
    ) -> Self {
        assert_eq!(
            keys.len(),
            collection.len(),
            "a token pass must cover every profile of the collection"
        );
        let blocks = CompactBlocks::from_profile_keys_budgeted(
            collection.kind(),
            collection.separator(),
            dict.len(),
            &keys,
            budget,
        );
        TokenBlocks { dict, keys, blocks }
    }
}

/// Interned Token Blocking in one tokenization pass: every profile is
/// tokenized and interned exactly once ([`intern_profiles`] — one
/// contiguous profile range per worker when a context is given, on the
/// calling thread otherwise), then the per-profile id lists are
/// counting-sorted into the CSR [`CompactBlocks`] under `budget`
/// ([`CompactBlocks::from_profile_keys_budgeted`]). No shuffle, no
/// per-occurrence binary search, no strings hashed twice, and the output
/// is identical for any worker count and budget.
pub fn token_blocking_pass(
    ctx: Option<&Context>,
    collection: &ProfileCollection,
    budget: &MemBudget,
) -> TokenBlocks {
    let (dict, keys) = intern_profiles(ctx, collection.profiles());
    TokenBlocks::from_pass(collection, dict, keys, budget)
}

/// Single-pass interned Token Blocking on the calling thread — the
/// one-range case of [`token_blocking_pass`]. Returns the dictionary
/// alongside the blocks so downstream stages (meta-blocking, matching,
/// materialization) share the same id space.
pub fn token_blocking_with_dict(collection: &ProfileCollection) -> (TokenDict, CompactBlocks) {
    token_blocking_with_dict_budgeted(collection, &MemBudget::unlimited())
}

/// [`token_blocking_with_dict`] under a memory budget: the CSR counting
/// sort runs over bounded [`sparker_profiles::TokenId`] chunks
/// ([`CompactBlocks::from_profile_keys_budgeted`]). Bit-identical output.
pub fn token_blocking_with_dict_budgeted(
    collection: &ProfileCollection,
    budget: &MemBudget,
) -> (TokenDict, CompactBlocks) {
    let TokenBlocks { dict, blocks, .. } = token_blocking_pass(None, collection, budget);
    (dict, blocks)
}

/// The original string-keyed Token Blocking: buckets into a
/// `HashMap<String, members>` and sorts the keys. Reference implementation
/// for the interned fast path — property tests assert
/// [`token_blocking`] produces the identical collection, and the blocking
/// benchmark measures one against the other.
pub fn token_blocking_string(collection: &ProfileCollection) -> BlockCollection {
    keyed_blocking_string(collection, |p| p.token_set().into_iter().collect())
}

/// Blocking with caller-provided keys: `key_fn` maps each profile to its set
/// of blocking keys. This is the hook used by Blast's loose-schema blocking,
/// where keys are `token ⧺ "_" ⧺ attribute-partition id` (Figure 2(b)).
///
/// Duplicate keys emitted for one profile are collapsed. The one-range case
/// of [`keyed_blocking_pass`], materialized; output is identical to the
/// string-keyed reference.
pub fn keyed_blocking(
    collection: &ProfileCollection,
    key_fn: impl Fn(&Profile) -> Vec<String> + Sync,
) -> BlockCollection {
    let TokenBlocks { dict, blocks, .. } =
        keyed_blocking_pass(None, collection, key_fn, &MemBudget::unlimited());
    blocks.materialize(&dict)
}

/// The key pass of keyed blocking — [`token_blocking_pass`] with the
/// caller's keys in place of tokens: every profile's keys are interned
/// once ([`intern_profile_keys`], one contiguous profile range per worker
/// when a context is given) into a lexicographic key dictionary, and the
/// per-profile id lists are counting-sorted into the CSR blocks under
/// `budget`. No shuffle, and the output is identical for any worker count
/// and budget.
pub fn keyed_blocking_pass(
    ctx: Option<&Context>,
    collection: &ProfileCollection,
    key_fn: impl Fn(&Profile) -> Vec<String> + Sync,
    budget: &MemBudget,
) -> TokenBlocks {
    let (dict, keys) = intern_profile_keys(ctx, collection.profiles(), key_fn);
    TokenBlocks::from_pass(collection, dict, keys, budget)
}

/// The original map-based keyed blocking, kept as the reference
/// implementation behind [`token_blocking_string`].
pub fn keyed_blocking_string(
    collection: &ProfileCollection,
    key_fn: impl Fn(&Profile) -> Vec<String>,
) -> BlockCollection {
    let mut buckets: HashMap<String, [Vec<ProfileId>; 2]> = HashMap::new();
    for p in collection.profiles() {
        let mut keys = key_fn(p);
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let entry = buckets.entry(key).or_default();
            entry[p.source.0 as usize].push(p.id);
        }
    }
    let mut keys: Vec<String> = buckets.keys().cloned().collect();
    keys.sort_unstable();
    let blocks = keys
        .into_iter()
        .map(|k| {
            let [s0, s1] = buckets.remove(&k).expect("key from buckets");
            match collection.kind() {
                ErKind::Dirty => Block::dirty(k, s0),
                ErKind::CleanClean => Block::clean_clean(k, s0, s1),
            }
        })
        .collect();
    BlockCollection::new(collection.kind(), blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::{Pair, Profile, SourceId};

    /// The paper's Figure 1 toy data: four bibliographic profiles from two
    /// sources.
    pub(crate) fn figure1_collection() -> ProfileCollection {
        // Source 1: structured records p1, p2.
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
        // Source 2: BibTeX-ish records p3, p4.
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
        ProfileCollection::clean_clean(vec![p1, p2], vec![p3, p4])
    }

    fn block_members(bc: &BlockCollection, key: &str) -> Vec<u32> {
        bc.blocks()
            .iter()
            .find(|b| b.key == key)
            .map(|b| b.all_members().map(|p| p.0).collect())
            .unwrap_or_default()
    }

    #[test]
    fn figure1_blocks_match_paper() {
        // Figure 1(b): blast{p1,p3,p4}, simonini{p1,p2,p3}, blocking{p1,p2,p3},
        // gagliardelli{p2,p4}, sparker{p2,p4}. (ids: p1=0, p2=1, p3=2, p4=3)
        let bc = token_blocking(&figure1_collection());
        assert_eq!(block_members(&bc, "blast"), vec![0, 2, 3]);
        assert_eq!(block_members(&bc, "simonini"), vec![0, 1, 2]);
        assert_eq!(block_members(&bc, "blocking"), vec![0, 1, 2]);
        assert_eq!(block_members(&bc, "gagliardelli"), vec![1, 3]);
        assert_eq!(block_members(&bc, "sparker"), vec![1, 3]);
    }

    #[test]
    fn single_source_tokens_do_not_block() {
        let bc = token_blocking(&figure1_collection());
        // "2016"/"2017" appear only in source 2 (one profile each);
        // "abstract" tokens only in source 1.
        assert!(block_members(&bc, "2016").is_empty());
        assert!(block_members(&bc, "improve").is_empty());
        // "et"/"al" appear in p2 only.
        assert!(block_members(&bc, "et").is_empty());
    }

    #[test]
    fn dirty_blocking_blocks_within_source() {
        let coll = ProfileCollection::dirty(vec![
            Profile::builder(SourceId(0), "a")
                .attr("n", "alpha beta")
                .build(),
            Profile::builder(SourceId(0), "b")
                .attr("n", "beta gamma")
                .build(),
            Profile::builder(SourceId(0), "c")
                .attr("n", "delta")
                .build(),
        ]);
        let bc = token_blocking(&coll);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.blocks()[0].key, "beta");
        assert_eq!(
            bc.candidate_pairs().into_iter().collect::<Vec<_>>(),
            vec![Pair::new(ProfileId(0), ProfileId(1))]
        );
    }

    #[test]
    fn duplicate_keys_for_one_profile_collapse() {
        let coll = ProfileCollection::dirty(vec![
            Profile::builder(SourceId(0), "a")
                .attr("n", "word word word")
                .attr("m", "word")
                .build(),
            Profile::builder(SourceId(0), "b").attr("n", "word").build(),
        ]);
        let bc = token_blocking(&coll);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc.blocks()[0].size(), 2);
    }

    #[test]
    fn keyed_blocking_custom_keys() {
        let coll = figure1_collection();
        // Key every profile by its first author token suffixed with a
        // partition marker — a tiny loose-schema stand-in.
        let bc = keyed_blocking(&coll, |p| {
            p.token_set()
                .into_iter()
                .map(|t| format!("{t}_1"))
                .collect()
        });
        assert!(bc.blocks().iter().all(|b| b.key.ends_with("_1")));
        assert_eq!(bc.len(), 5);
    }

    #[test]
    fn empty_collection_yields_no_blocks() {
        let bc = token_blocking(&ProfileCollection::dirty(vec![]));
        assert!(bc.is_empty());
    }

    #[test]
    fn keys_are_sorted_deterministically() {
        let bc = token_blocking(&figure1_collection());
        let keys: Vec<&str> = bc.blocks().iter().map(|b| b.key.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn interned_matches_string_reference() {
        let coll = figure1_collection();
        assert_eq!(
            token_blocking(&coll).blocks(),
            token_blocking_string(&coll).blocks()
        );
    }

    #[test]
    fn keyed_matches_string_reference() {
        let coll = figure1_collection();
        let key_fn = |p: &Profile| {
            p.token_set()
                .into_iter()
                .map(|t| format!("{t}_9"))
                .collect()
        };
        assert_eq!(
            keyed_blocking(&coll, key_fn).blocks(),
            keyed_blocking_string(&coll, key_fn).blocks()
        );
    }

    #[test]
    fn budgeted_with_dict_is_bit_identical() {
        let coll = figure1_collection();
        let (dict, compact) = token_blocking_with_dict(&coll);
        for budget in [MemBudget::unlimited(), MemBudget::limited(1)] {
            let (bdict, bcompact) = token_blocking_with_dict_budgeted(&coll, &budget);
            assert_eq!(bdict.len(), dict.len());
            assert_eq!(bcompact, compact);
        }
    }
}
