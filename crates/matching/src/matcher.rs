//! Matchers: turn candidate pairs into a similarity graph.
//!
//! The batch matchers run a **filter–verify cascade** (the standard
//! discipline of the set-similarity-join literature): every candidate pair
//! first passes through a cheap [`ScoreBound`] computed from cached sizes
//! alone, most pairs are rejected or handed an early-abandon budget, and
//! only the survivors pay for full verification. The cascade is
//! *exact* — the retained pairs and their scores are byte-identical to the
//! naive score-everything loop, which remains available in code as
//! [`ScoringMode::Naive`], the reference the equivalence tests compare
//! against.

use crate::candidates::{filter_candidates_pool, CandidateGraph};
use crate::graph::SimilarityGraph;
use crate::similarity::{self, MatchScratch};
use sparker_dataflow::{map_ranges, Context, WorkerLocal};
use sparker_profiles::{
    intern_profiles, DictBuilder, Pair, Profile, ProfileCollection, ProfileKeys,
};
use std::sync::Arc;

/// A whole-profile similarity measure selectable by name — the paper's
/// "wide range of similarity (or distance) scores" the user can pick in the
/// entity-matching step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityMeasure {
    /// Jaccard over schema-agnostic token sets.
    Jaccard,
    /// Dice over token sets.
    Dice,
    /// Overlap coefficient over token sets.
    Overlap,
    /// Cosine over binary token vectors.
    CosineTokens,
    /// Normalized Levenshtein similarity of concatenated values.
    Levenshtein,
    /// Jaro–Winkler of concatenated values.
    JaroWinkler,
    /// Monge–Elkan (token-wise best Jaro–Winkler).
    MongeElkan,
}

impl SimilarityMeasure {
    /// All measures, for sweeps.
    pub const ALL: [SimilarityMeasure; 7] = [
        SimilarityMeasure::Jaccard,
        SimilarityMeasure::Dice,
        SimilarityMeasure::Overlap,
        SimilarityMeasure::CosineTokens,
        SimilarityMeasure::Levenshtein,
        SimilarityMeasure::JaroWinkler,
        SimilarityMeasure::MongeElkan,
    ];

    /// `true` for the string measures, which score the concatenated values
    /// instead of the token sets.
    pub fn reads_text(&self) -> bool {
        matches!(
            self,
            SimilarityMeasure::Levenshtein
                | SimilarityMeasure::JaroWinkler
                | SimilarityMeasure::MongeElkan
        )
    }

    /// Human-readable name (stable; used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            SimilarityMeasure::Jaccard => "jaccard",
            SimilarityMeasure::Dice => "dice",
            SimilarityMeasure::Overlap => "overlap",
            SimilarityMeasure::CosineTokens => "cosine",
            SimilarityMeasure::Levenshtein => "levenshtein",
            SimilarityMeasure::JaroWinkler => "jaro-winkler",
            SimilarityMeasure::MongeElkan => "monge-elkan",
        }
    }

    /// Score two profiles in `[0, 1]`.
    pub fn score(&self, a: &Profile, b: &Profile) -> f64 {
        let (pa, pb) = PreparedProfile::pair(a, b);
        self.score_prepared(&pa, &pb)
    }

    /// Score two [`PreparedProfile`]s — the allocation-light inner loop
    /// used by the batch matchers, which prepare each profile once instead
    /// of re-tokenizing it per candidate pair.
    ///
    /// Both profiles must have been prepared against the **same**
    /// [`DictBuilder`] (see [`PreparedProfile`]); ids from different
    /// interning spaces are not comparable.
    pub fn score_prepared(&self, a: &PreparedProfile, b: &PreparedProfile) -> f64 {
        self.score_prepared_with(a, b, &mut MatchScratch::default())
    }

    /// [`SimilarityMeasure::score_prepared`] with reusable kernel buffers —
    /// identical bits; the string measures stop allocating their DP rows,
    /// match bookkeeping and lowercase arenas per pair. The batch matchers
    /// keep one [`MatchScratch`] per worker slot.
    pub fn score_prepared_with(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        scratch: &mut MatchScratch,
    ) -> f64 {
        match self {
            SimilarityMeasure::Jaccard => similarity::jaccard_ids(&a.token_ids, &b.token_ids),
            SimilarityMeasure::Dice => similarity::dice_ids(&a.token_ids, &b.token_ids),
            SimilarityMeasure::Overlap => similarity::overlap_ids(&a.token_ids, &b.token_ids),
            SimilarityMeasure::CosineTokens => similarity::cosine_ids(&a.token_ids, &b.token_ids),
            SimilarityMeasure::Levenshtein => similarity::levenshtein_similarity_with(
                &a.concatenated,
                &b.concatenated,
                &mut scratch.edit,
            ),
            SimilarityMeasure::JaroWinkler => {
                similarity::jaro_winkler_with(&a.concatenated, &b.concatenated, scratch)
            }
            SimilarityMeasure::MongeElkan => {
                similarity::monge_elkan_with(&a.concatenated, &b.concatenated, scratch)
            }
        }
    }

    /// The shared set-measure formula over an intersection count — the one
    /// computation both the cascade's bound search and its verification use,
    /// so they agree with the naive scorer bit for bit.
    fn set_score_counts(&self, inter: usize, la: usize, lb: usize) -> f64 {
        match self {
            SimilarityMeasure::Jaccard => similarity::jaccard_counts(inter, la, lb),
            SimilarityMeasure::Dice => similarity::dice_counts(inter, la, lb),
            SimilarityMeasure::Overlap => similarity::overlap_counts(inter, la, lb),
            SimilarityMeasure::CosineTokens => similarity::cosine_counts(inter, la, lb),
            _ => unreachable!("set_score_counts called on a string measure"),
        }
    }

    /// The cheap pre-verification filter of the cascade, computed from the
    /// cached sizes of the two prepared views alone (no token or char
    /// comparison).
    ///
    /// The contract, which makes the cascade exact: a pair scoring
    /// `≥ threshold` under the naive scorer is never mapped to
    /// [`ScoreBound::Reject`], a [`ScoreBound::MinOverlap`]/
    /// [`ScoreBound::MaxDistance`] budget is never tight enough to abandon
    /// such a pair during verification, and every budgeted verification
    /// that completes reproduces the naive score exactly.
    pub fn score_bound(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        threshold: f64,
    ) -> ScoreBound {
        match self {
            SimilarityMeasure::Jaccard
            | SimilarityMeasure::Dice
            | SimilarityMeasure::Overlap
            | SimilarityMeasure::CosineTokens => {
                let (la, lb) = (a.token_ids.len(), b.token_ids.len());
                // Smallest intersection count whose score reaches the
                // threshold, under the exact scoring formula (monotone in
                // the count). None even at full overlap ⇒ the sizes alone
                // rule the pair out — the classic length filter.
                match required_overlap(|c| self.set_score_counts(c, la, lb), la.min(lb), threshold)
                {
                    Some(need) => ScoreBound::MinOverlap(need),
                    None => ScoreBound::Reject,
                }
            }
            SimilarityMeasure::Levenshtein => {
                let max = a.chars.max(b.chars);
                if max == 0 {
                    // Both concatenations empty: exact score is 1.0.
                    return ScoreBound::MaxDistance(0);
                }
                // Largest edit distance whose similarity still reaches the
                // threshold (same formula as verification; monotone in d,
                // and d = 0 always passes since threshold ≤ 1).
                let sim = |d: usize| 1.0 - d as f64 / max as f64;
                let k = if sim(max) >= threshold {
                    max
                } else {
                    let (mut lo, mut hi) = (0usize, max);
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        if sim(mid) >= threshold {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                };
                if a.chars.abs_diff(b.chars) > k {
                    // The length difference alone exceeds the budget.
                    ScoreBound::Reject
                } else {
                    ScoreBound::MaxDistance(k)
                }
            }
            SimilarityMeasure::JaroWinkler => {
                let (min, max) = (a.chars.min(b.chars), a.chars.max(b.chars));
                if max == 0 {
                    return ScoreBound::Verify; // both empty: exact score is 1.0
                }
                if min == 0 {
                    // One side empty: exact score is 0.0.
                    return if 0.0 >= threshold {
                        ScoreBound::Verify
                    } else {
                        ScoreBound::Reject
                    };
                }
                // Jaro matches are capped by the shorter side, so
                // jaro ≤ (2 + min/max)/3; Winkler (boost threshold 0.7,
                // prefix ≤ 4) then caps the final score at 0.6·bj + 0.4
                // when bj exceeds the boost threshold. The 1e-9 margin
                // absorbs rounding in the bound itself — verification,
                // not the bound, decides borderline pairs.
                let bj = (2.0 + min as f64 / max as f64) / 3.0;
                let bound = if bj > 0.7 { 0.6 * bj + 0.4 } else { bj };
                if bound < threshold - 1e-9 {
                    ScoreBound::Reject
                } else {
                    ScoreBound::Verify
                }
            }
            SimilarityMeasure::MongeElkan => ScoreBound::Verify,
        }
    }

    /// [`SimilarityMeasure::score_bound`] through the scratch's
    /// size-indexed table: a set measure's bound depends only on
    /// `(measure, threshold, |A|, |B|)`, so each worker slot computes it
    /// once per size pair and looks it up after that. Every entry is
    /// `score_bound`'s own result, so the two agree bit for bit; the string
    /// measures and sizes past the table's cap compute it directly.
    pub fn score_bound_with(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        threshold: f64,
        scratch: &mut MatchScratch,
    ) -> ScoreBound {
        if self.reads_text() {
            return self.score_bound(a, b, threshold);
        }
        scratch.bounds.get(
            *self,
            threshold,
            a.token_ids.len(),
            b.token_ids.len(),
            || self.score_bound(a, b, threshold),
        )
    }

    /// Run the full cascade on one pair: bound, then budgeted or plain
    /// verification. Returns `Some(score)` **iff** the naive scorer would
    /// retain the pair at `threshold`, with the exact same score bits.
    pub fn verify_prepared(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        threshold: f64,
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
    ) -> Option<f64> {
        stats.pairs += 1;
        match self.score_bound_with(a, b, threshold, scratch) {
            ScoreBound::Reject => {
                stats.bound_rejected += 1;
                None
            }
            ScoreBound::MinOverlap(need) => {
                match a.intersect_at_least(b, need) {
                    None => {
                        stats.abandoned += 1;
                        None
                    }
                    Some(inter) => {
                        // Completion implies inter ≥ need, and `need` is the
                        // smallest count that reaches the threshold — the
                        // pair is a match by construction.
                        stats.verified += 1;
                        stats.kept += 1;
                        Some(self.set_score_counts(inter, a.token_ids.len(), b.token_ids.len()))
                    }
                }
            }
            ScoreBound::MaxDistance(k) => {
                match similarity::levenshtein_within_with(
                    &a.concatenated,
                    &b.concatenated,
                    k,
                    &mut scratch.edit,
                ) {
                    None => {
                        stats.abandoned += 1;
                        None
                    }
                    Some(d) => {
                        stats.verified += 1;
                        stats.kept += 1;
                        let max = a.chars.max(b.chars);
                        Some(if max == 0 {
                            1.0
                        } else {
                            1.0 - d as f64 / max as f64
                        })
                    }
                }
            }
            ScoreBound::Verify => {
                stats.verified += 1;
                let s = self.score_prepared_with(a, b, scratch);
                if s >= threshold {
                    stats.kept += 1;
                    Some(s)
                } else {
                    None
                }
            }
        }
    }
}

/// Smallest intersection count in `0..=m` whose (monotone nondecreasing)
/// score reaches `t`, or `None` if even `m` falls short.
fn required_overlap(f: impl Fn(usize) -> f64, m: usize, t: f64) -> Option<usize> {
    if f(m) < t {
        return None;
    }
    if f(0) >= t {
        return Some(0);
    }
    // Invariant: f(lo) < t ≤ f(hi).
    let (mut lo, mut hi) = (0usize, m);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if f(mid) >= t {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// What the pre-verification filter decided for one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreBound {
    /// The sizes alone prove the score cannot reach the threshold.
    Reject,
    /// Set measure: a match needs at least this intersection count; the
    /// merge-join may abandon once the count is unreachable.
    MinOverlap(usize),
    /// Levenshtein: a match needs edit distance at most this; the banded DP
    /// may abandon once every path exceeds it.
    MaxDistance(usize),
    /// No useful bound — verify with the full kernel.
    Verify,
}

/// Sizes below this index [`BoundTable`]; a pair with a larger token set
/// computes its bound directly. `254² ≈ 63 KiB` of `u8` entries per
/// worker slot, and every `MinOverlap` need (at most the smaller size)
/// fits below the two sentinels.
const BOUND_SIZES: usize = 254;
/// [`BoundTable`] entry: not computed yet.
const BOUND_UNKNOWN: u8 = 255;
/// [`BoundTable`] entry: [`ScoreBound::Reject`].
const BOUND_REJECT: u8 = 254;

/// A set measure's [`ScoreBound`] per size pair `(|A|, |B|)`, filled lazily
/// by [`SimilarityMeasure::score_bound`] — the cascade's bound search paid
/// once per size pair instead of once per candidate. The table belongs to
/// one `(measure, threshold)` and is cleared when a call brings another,
/// so a scratch reused across matchers stays exact.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundTable {
    tag: Option<(SimilarityMeasure, u64)>,
    /// `BOUND_SIZES²` entries once a set measure has used the table: a
    /// `MinOverlap` need, [`BOUND_REJECT`] or [`BOUND_UNKNOWN`].
    entries: Vec<u8>,
}

impl BoundTable {
    /// The bound of a pair of set sizes `(la, lb)` under `(measure,
    /// threshold)`, from the table or from `compute` (which must return
    /// `measure`'s `score_bound` for these sizes).
    #[inline]
    fn get(
        &mut self,
        measure: SimilarityMeasure,
        threshold: f64,
        la: usize,
        lb: usize,
        compute: impl FnOnce() -> ScoreBound,
    ) -> ScoreBound {
        if la >= BOUND_SIZES || lb >= BOUND_SIZES {
            return compute();
        }
        let tag = Some((measure, threshold.to_bits()));
        if self.tag != tag {
            self.tag = tag;
            self.entries.clear();
            self.entries
                .resize(BOUND_SIZES * BOUND_SIZES, BOUND_UNKNOWN);
        }
        let entry = &mut self.entries[la * BOUND_SIZES + lb];
        match *entry {
            BOUND_UNKNOWN => {
                let bound = compute();
                *entry = match bound {
                    ScoreBound::Reject => BOUND_REJECT,
                    ScoreBound::MinOverlap(need) => need as u8,
                    _ => unreachable!("set measures bound by overlap"),
                };
                bound
            }
            BOUND_REJECT => ScoreBound::Reject,
            need => ScoreBound::MinOverlap(need as usize),
        }
    }
}

/// Counters of the cascade's filtering effectiveness, merged across worker
/// slots. `pairs = bound_rejected + abandoned + verified`, and
/// `kept ≤ verified`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Candidate pairs examined.
    pub pairs: u64,
    /// Rejected by the size bound alone (no token/char comparison).
    pub bound_rejected: u64,
    /// Abandoned mid-verification by an overlap or distance budget.
    pub abandoned: u64,
    /// Fully verified (budget met or no bound available).
    pub verified: u64,
    /// Retained as matches.
    pub kept: u64,
}

impl FilterStats {
    /// Accumulate another slot's counters.
    pub fn merge(&mut self, other: &FilterStats) {
        self.pairs += other.pairs;
        self.bound_rejected += other.bound_rejected;
        self.abandoned += other.abandoned;
        self.verified += other.verified;
        self.kept += other.kept;
    }

    /// Pairs that never paid for full verification.
    pub fn filtered(&self) -> u64 {
        self.bound_rejected + self.abandoned
    }
}

/// How [`ThresholdMatcher`] scores candidate pairs. Both modes retain the
/// same pairs with the same score bits; `Naive` exists as the reference
/// side of the equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Filter–verify cascade (the default).
    #[default]
    Cascade,
    /// Score every candidate pair with the full kernel.
    Naive,
}

impl ScoringMode {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScoringMode::Cascade => "cascade",
            ScoringMode::Naive => "naive",
        }
    }
}

/// A profile's derived matching views, computed once so candidate loops
/// don't re-derive them per pair: the interned, sorted token-id vector (set
/// measures become `u32` merge-joins), the concatenated values (string
/// measures) and the cached char count of the concatenation (length
/// filters).
///
/// Two views are only comparable when their ids come from the same
/// interning space: one caller-supplied [`DictBuilder`] (provisional
/// insertion-order ids) or one token pass over the collection
/// ([`PreparedProfile::prepare_from_keys`], lexicographic ids). Set-measure
/// scores depend only on intersection counts and set sizes, which any
/// injective token → id mapping preserves — so either id space serves, and
/// the collection-wide constructors are free to renumber the most frequent
/// tokens into the hot prefix the cascade counts by bitset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedProfile {
    /// Sorted, deduplicated interned token ids of the schema-agnostic
    /// token set.
    pub token_ids: Vec<u32>,
    /// All values joined by spaces.
    pub concatenated: String,
    /// Char count of `concatenated` (cached for length filters).
    pub chars: usize,
    /// The hot prefix of `token_ids` (its ids `< HOT_TOKENS`), empty
    /// unless a collection-wide constructor renumbered the tokens that way.
    /// Held in the view itself: a collection's views are built by the
    /// hundred thousand, one allocation each for their ids and none more.
    hot: HotPrefix,
}

/// The hot prefix of a prepared view's `token_ids`, mirrored as a bitset.
#[derive(Debug, Clone, Default, PartialEq)]
struct HotPrefix {
    /// Number of hot ids at the front of `token_ids`.
    len: u32,
    /// Bit `t` set iff hot id `t` is in `token_ids`.
    bits: [u64; HOT_WORDS],
}

/// How many of a collection's most frequent tokens
/// [`PreparedProfile::prepare_all`] renumbers into the bitset-counted hot
/// prefix.
const HOT_TOKENS: usize = 512;
const HOT_WORDS: usize = HOT_TOKENS / 64;

impl PreparedProfile {
    /// Derive the matching views of one profile against `dict`.
    pub fn from_profile(profile: &Profile, dict: &mut DictBuilder, scratch: &mut String) -> Self {
        let mut token_ids = Vec::new();
        for a in &profile.attributes {
            dict.intern_tokens(&a.value, scratch, &mut token_ids);
        }
        token_ids.sort_unstable();
        token_ids.dedup();
        let concatenated = profile.concatenated_values();
        let chars = concatenated.chars().count();
        PreparedProfile {
            token_ids,
            concatenated,
            chars,
            ..PreparedProfile::default()
        }
    }

    /// Prepare two profiles against a fresh shared interner — the
    /// convenience path for one-off [`SimilarityMeasure::score`] calls.
    pub fn pair(a: &Profile, b: &Profile) -> (Self, Self) {
        let mut dict = DictBuilder::new();
        let mut scratch = String::new();
        (
            Self::from_profile(a, &mut dict, &mut scratch),
            Self::from_profile(b, &mut dict, &mut scratch),
        )
    }

    /// Prepare every profile of a collection (index = profile id) from one
    /// token pass ([`intern_profiles`]), with the collection's 512 most
    /// frequent tokens renumbered into a bitset-mirrored hot prefix — see
    /// [`PreparedProfile::prepare_from_keys`]. Builds the text views too,
    /// so the result serves every measure.
    pub fn prepare_all(collection: &ProfileCollection) -> Vec<PreparedProfile> {
        assert!(
            collection.has_text(),
            "matcher views cannot be prepared from a text-free collection"
        );
        let (_, keys) = intern_profiles(None, collection.profiles());
        Self::from_keys(None, collection, &keys, true)
    }

    /// The prepared views of a collection built from the per-profile token
    /// ids a token pass already produced (blocking's, on the fused
    /// backend), so the matcher tokenizes nothing again. The concatenated
    /// text and its char count are built only when `measure` reads them.
    ///
    /// The hot tokens take ids `0..512` ranked by document frequency
    /// (carried by the lists, [`ProfileKeys::df`]) descending, then token
    /// id, and every other token moves past them. The renumbering is
    /// injective, so every score is unchanged; what it buys is that the
    /// cascade counts the shared hot tokens — the long, mostly-shared head
    /// of skewed token sets — with AND + popcount and merge-joins only the
    /// tails.
    ///
    /// With a context, the views are built over one contiguous profile
    /// range per worker on its pool; they are identical for any worker
    /// count.
    pub fn prepare_from_keys(
        ctx: Option<&Context>,
        collection: &ProfileCollection,
        keys: &ProfileKeys,
        measure: SimilarityMeasure,
    ) -> Vec<PreparedProfile> {
        Self::from_keys(ctx, collection, keys, measure.reads_text())
    }

    fn from_keys(
        ctx: Option<&Context>,
        collection: &ProfileCollection,
        keys: &ProfileKeys,
        with_text: bool,
    ) -> Vec<PreparedProfile> {
        debug_assert_eq!(keys.len(), collection.len(), "one id list per profile");
        assert!(
            !with_text || collection.has_text(),
            "a text-reading view cannot be prepared from a text-free collection"
        );
        let n = keys.len();
        let remap = hot_remap(keys.df());
        let profiles = collection.profiles();
        let views = map_ranges(ctx, n, |range| {
            range
                .map(|p| {
                    let mut view = PreparedProfile {
                        token_ids: keys.keys_of(p).to_vec(),
                        ..PreparedProfile::default()
                    };
                    if with_text {
                        view.concatenated = profiles[p].concatenated_values();
                        view.chars = view.concatenated.chars().count();
                    }
                    view.adopt_hot_ids(&remap);
                    view
                })
                .collect::<Vec<_>>()
        });
        let mut views = views.into_iter();
        let mut all = views.next().unwrap_or_default();
        for range in views {
            all.extend(range);
        }
        all
    }

    /// Renumber this view's ids through `remap` (see [`hot_remap`]): the
    /// hot ids become a sorted prefix mirrored in a [`HotPrefix`], the
    /// others keep their order, shifted past it.
    fn adopt_hot_ids(&mut self, remap: &[u32]) {
        let ids = &mut self.token_ids;
        let mut bits = [0u64; HOT_WORDS];
        let mut cold = 0;
        for i in 0..ids.len() {
            let t = remap[ids[i] as usize];
            if (t as usize) < HOT_TOKENS {
                bits[t as usize / 64] |= 1 << (t % 64);
            } else {
                ids[cold] = t;
                cold += 1;
            }
        }
        let hot = ids.len() - cold;
        if hot == 0 {
            return;
        }
        ids.copy_within(..cold, hot);
        let mut k = 0;
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                ids[k] = (w * 64) as u32 + rest.trailing_zeros();
                rest &= rest - 1;
                k += 1;
            }
        }
        self.hot = HotPrefix {
            len: hot as u32,
            bits,
        };
    }

    /// `Some(|A∩B|)` iff the two token sets share at least `need` tokens —
    /// [`similarity::intersect_ids_at_least`] with the hot prefixes counted
    /// by AND + popcount and only the tails merge-joined, under the
    /// remaining budget. Hot and tail ids are disjoint (`< HOT_TOKENS` vs
    /// `≥`), so the count is exact and `None` means exactly what it means
    /// for the plain merge-join; views without a hot prefix merge-join in
    /// full.
    fn intersect_at_least(&self, other: &PreparedProfile, need: usize) -> Option<usize> {
        let hot = if self.hot.len > 0 && other.hot.len > 0 {
            shared_hot(&self.hot.bits, &other.hot.bits)
        } else {
            0
        };
        let a = &self.token_ids[self.hot_len()..];
        let b = &other.token_ids[other.hot_len()..];
        if hot + a.len().min(b.len()) < need {
            return None;
        }
        similarity::intersect_ids_at_least(a, b, need.saturating_sub(hot)).map(|tail| hot + tail)
    }

    /// Length of the hot prefix of `token_ids` (0 without one).
    fn hot_len(&self) -> usize {
        self.hot.len as usize
    }
}

/// Hot ids two bitsets share: AND + popcount, with the CPU's `popcnt`
/// instruction where it has one (the portable `count_ones` is a dozen
/// instructions per word, and the cascade runs this once per candidate).
#[inline]
fn shared_hot(a: &[u64; HOT_WORDS], b: &[u64; HOT_WORDS]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: the CPU supports `popcnt`, checked just above.
        return unsafe { shared_hot_popcnt(a, b) };
    }
    and_count(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn shared_hot_popcnt(a: &[u64; HOT_WORDS], b: &[u64; HOT_WORDS]) -> usize {
    and_count(a, b)
}

#[inline(always)]
fn and_count(a: &[u64; HOT_WORDS], b: &[u64; HOT_WORDS]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// The renumbering [`PreparedProfile::prepare_from_keys`] applies, from
/// each token id's document frequency: `remap[t]` is `t`'s rank among the
/// [`HOT_TOKENS`] most frequent tokens (df descending, ties by token id —
/// a deterministic set), or `t + HOT_TOKENS` for every other token.
fn hot_remap(df: &[u32]) -> Vec<u32> {
    let rank = |t: &u32| (std::cmp::Reverse(df[*t as usize]), *t);
    let mut hot: Vec<u32> = (0..df.len() as u32).collect();
    if hot.len() > HOT_TOKENS {
        hot.select_nth_unstable_by_key(HOT_TOKENS - 1, rank);
        hot.truncate(HOT_TOKENS);
    }
    hot.sort_unstable_by_key(rank);
    let mut remap: Vec<u32> = (0..df.len() as u32)
        .map(|t| t + HOT_TOKENS as u32)
        .collect();
    for (rank, &t) in hot.iter().enumerate() {
        remap[t as usize] = rank as u32;
    }
    remap
}

/// Anything that scores candidate pairs and retains matches.
pub trait Matcher {
    /// Similarity score of a candidate pair, in `[0, 1]`.
    fn score(&self, a: &Profile, b: &Profile) -> f64;

    /// Decision threshold: pairs scoring `≥` it are matches.
    fn threshold(&self) -> f64;

    /// Run over candidate pairs, returning the similarity graph of
    /// *retained* (matching) pairs.
    fn match_pairs(
        &self,
        collection: &ProfileCollection,
        candidates: impl IntoIterator<Item = Pair>,
    ) -> SimilarityGraph {
        let t = self.threshold();
        SimilarityGraph::new(candidates.into_iter().filter_map(|pair| {
            let s = self.score(collection.get(pair.first), collection.get(pair.second));
            (s >= t).then_some((pair, s))
        }))
    }
}

/// The unsupervised matcher: one similarity measure plus one threshold.
///
/// Scoring runs the filter–verify cascade by default; see [`ScoringMode`].
#[derive(Debug, Clone)]
pub struct ThresholdMatcher {
    /// Measure to apply to each candidate pair.
    pub measure: SimilarityMeasure,
    /// Minimum score to call a pair a match.
    pub threshold: f64,
    mode: ScoringMode,
}

impl ThresholdMatcher {
    /// Create a matcher scoring through the filter–verify cascade;
    /// `threshold` must be in `[0, 1]`.
    pub fn new(measure: SimilarityMeasure, threshold: f64) -> Self {
        Self::with_mode(measure, threshold, ScoringMode::Cascade)
    }

    /// Create a matcher with an explicit scoring mode.
    pub fn with_mode(measure: SimilarityMeasure, threshold: f64, mode: ScoringMode) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1], got {threshold}"
        );
        ThresholdMatcher {
            measure,
            threshold,
            mode,
        }
    }

    /// The active scoring mode.
    pub fn mode(&self) -> ScoringMode {
        self.mode
    }

    /// Score one prepared pair under the configured mode: `Some(score)` iff
    /// the pair is retained at the matcher's threshold.
    pub(crate) fn decide(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
    ) -> Option<f64> {
        match self.mode {
            ScoringMode::Cascade => {
                self.measure
                    .verify_prepared(a, b, self.threshold, scratch, stats)
            }
            ScoringMode::Naive => {
                stats.pairs += 1;
                stats.verified += 1;
                let s = self.measure.score_prepared_with(a, b, scratch);
                if s >= self.threshold {
                    stats.kept += 1;
                    Some(s)
                } else {
                    None
                }
            }
        }
    }

    /// Public entry point for the matcher's per-pair decision: score one
    /// prepared pair, returning `Some(score)` iff it clears the threshold.
    /// This is the per-pair unit the online resolver calls when an edge is
    /// (re)retained — identical decisions to the batch drivers, including
    /// the filter–verify cascade, because it *is* the same code path.
    pub fn decide_prepared(
        &self,
        a: &PreparedProfile,
        b: &PreparedProfile,
        scratch: &mut MatchScratch,
        stats: &mut FilterStats,
    ) -> Option<f64> {
        self.decide(a, b, scratch, stats)
    }

    /// Pool-parallel batch scoring over a [`CandidateGraph`]: candidates
    /// stream out of the graph's per-profile neighbor lists (no global pair
    /// vector), the prepared profile views are broadcast once, and ids are
    /// cost-partitioned by candidate degree into dynamically claimed
    /// morsels with per-worker kernel scratch. Byte-identical to
    /// [`Matcher::match_pairs`] over the same pair set at any worker count;
    /// returns the cascade's merged [`FilterStats`] beside the graph.
    pub fn match_candidates_pool_stats(
        &self,
        ctx: &Context,
        collection: &ProfileCollection,
        graph: &Arc<CandidateGraph>,
    ) -> (SimilarityGraph, FilterStats) {
        let prepared = ctx.broadcast(PreparedProfile::prepare_all(collection));
        let matcher = self.clone();
        let locals = Arc::new(WorkerLocal::new(ctx.workers(), || {
            (MatchScratch::default(), FilterStats::default())
        }));
        let graph_out = filter_candidates_pool(ctx, graph, &locals, move |state, a, b| {
            let (scratch, stats) = state;
            matcher.decide(&prepared[a.index()], &prepared[b.index()], scratch, stats)
        });
        let stats = match Arc::try_unwrap(locals) {
            Ok(locals) => {
                let mut merged = FilterStats::default();
                for (_, slot) in locals.into_inner() {
                    merged.merge(&slot);
                }
                merged
            }
            Err(_) => FilterStats::default(),
        };
        (graph_out, stats)
    }

    /// [`Matcher::match_pairs`] plus the cascade's [`FilterStats`].
    pub fn match_pairs_stats(
        &self,
        collection: &ProfileCollection,
        candidates: impl IntoIterator<Item = Pair>,
    ) -> (SimilarityGraph, FilterStats) {
        // Prepare each profile once; candidate sets typically reference the
        // same profiles many times, and tokenization dominates the naive
        // per-pair loop.
        let prepared = PreparedProfile::prepare_all(collection);
        let mut scratch = MatchScratch::default();
        let mut stats = FilterStats::default();
        let graph = SimilarityGraph::new(candidates.into_iter().filter_map(|pair| {
            self.decide(
                &prepared[pair.first.index()],
                &prepared[pair.second.index()],
                &mut scratch,
                &mut stats,
            )
            .map(|s| (pair, s))
        }));
        (graph, stats)
    }

    /// Parallel variant of [`ThresholdMatcher::match_pairs_stats`]:
    /// distribute the candidate pairs on the dataflow engine with the
    /// prepared profile views broadcast to every task — the way SparkER
    /// runs matching on Spark. The [`FilterStats`] are merged across
    /// partitions (a sum, so independent of the order partitions finish in).
    pub fn match_pairs_dataflow_stats(
        &self,
        ctx: &Context,
        collection: &ProfileCollection,
        candidates: Vec<Pair>,
    ) -> (SimilarityGraph, FilterStats) {
        // Broadcast the prepared views instead of the raw collection: every
        // task scores from the shared cache. Partition-granular mapping
        // gives each task one scratch warmed across its whole slice.
        let prepared = ctx.broadcast(PreparedProfile::prepare_all(collection));
        let merged = std::sync::Mutex::new(FilterStats::default());
        let ds = ctx.parallelize_default(candidates);
        let scored = ds.map_partitions(|_, pairs| {
            let mut scratch = MatchScratch::default();
            let mut stats = FilterStats::default();
            let kept = pairs
                .iter()
                .filter_map(|pair| {
                    self.decide(
                        &prepared[pair.first.index()],
                        &prepared[pair.second.index()],
                        &mut scratch,
                        &mut stats,
                    )
                    .map(|s| (*pair, s))
                })
                .collect();
            merged
                .lock()
                .expect("no task panics while merging its counters")
                .merge(&stats);
            kept
        });
        let graph = SimilarityGraph::new(scored.collect());
        let stats = merged
            .into_inner()
            .expect("no task panics while merging its counters");
        (graph, stats)
    }
}

impl Matcher for ThresholdMatcher {
    fn score(&self, a: &Profile, b: &Profile) -> f64 {
        self.measure.score(a, b)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn match_pairs(
        &self,
        collection: &ProfileCollection,
        candidates: impl IntoIterator<Item = Pair>,
    ) -> SimilarityGraph {
        self.match_pairs_stats(collection, candidates).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_profiles::{ProfileId, SourceId};

    fn collection() -> ProfileCollection {
        ProfileCollection::clean_clean(
            vec![
                Profile::builder(SourceId(0), "a1")
                    .attr("name", "Sony Bravia KDL40 TV")
                    .attr("price", "699.99")
                    .build(),
                Profile::builder(SourceId(0), "a2")
                    .attr("name", "Samsung Galaxy S9")
                    .attr("price", "899.00")
                    .build(),
            ],
            vec![
                Profile::builder(SourceId(1), "b1")
                    .attr("title", "Sony BRAVIA KDL40 television")
                    .attr("cost", "689.99")
                    .build(),
                Profile::builder(SourceId(1), "b2")
                    .attr("title", "Apple iPhone X")
                    .attr("cost", "999.00")
                    .build(),
            ],
        )
    }

    fn all_candidates(coll: &ProfileCollection) -> Vec<Pair> {
        let mut out = Vec::new();
        for i in 0..coll.separator() {
            for j in coll.separator()..coll.len() as u32 {
                out.push(Pair::new(ProfileId(i), ProfileId(j)));
            }
        }
        out
    }

    #[test]
    fn threshold_matcher_keeps_true_match() {
        let coll = collection();
        let m = ThresholdMatcher::new(SimilarityMeasure::Jaccard, 0.4);
        let g = m.match_pairs(&coll, all_candidates(&coll));
        assert_eq!(g.len(), 1);
        assert_eq!(g.pairs(), vec![Pair::new(ProfileId(0), ProfileId(2))]);
    }

    #[test]
    fn measure_sweep_is_sane() {
        let coll = collection();
        let dup = (coll.get(ProfileId(0)), coll.get(ProfileId(2)));
        let non = (coll.get(ProfileId(0)), coll.get(ProfileId(3)));
        for measure in SimilarityMeasure::ALL {
            let s_dup = measure.score(dup.0, dup.1);
            let s_non = measure.score(non.0, non.1);
            assert!((0.0..=1.0).contains(&s_dup), "{}: {s_dup}", measure.name());
            assert!(
                s_dup > s_non,
                "{}: duplicate {s_dup} ≤ non-match {s_non}",
                measure.name()
            );
        }
    }

    #[test]
    fn cascade_equals_naive_on_every_measure_and_threshold() {
        let coll = collection();
        for measure in SimilarityMeasure::ALL {
            for threshold in [0.0, 0.3, 0.5, 0.8, 1.0] {
                let naive = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Naive)
                    .match_pairs(&coll, all_candidates(&coll));
                let cascade = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Cascade)
                    .match_pairs(&coll, all_candidates(&coll));
                assert_eq!(naive, cascade, "{} @ {threshold}", measure.name());
            }
        }
    }

    #[test]
    fn cascade_handles_blank_profiles() {
        // Blank profiles prepare to empty token sets and empty
        // concatenations — the bound paths must reproduce each measure's
        // empty-input convention exactly.
        let coll = ProfileCollection::clean_clean(
            vec![
                Profile::builder(SourceId(0), "a1").build(),
                Profile::builder(SourceId(0), "a2")
                    .attr("name", "sony tv")
                    .build(),
            ],
            vec![
                Profile::builder(SourceId(1), "b1").build(),
                Profile::builder(SourceId(1), "b2")
                    .attr("title", "sony tv")
                    .build(),
            ],
        );
        for measure in SimilarityMeasure::ALL {
            for threshold in [0.0, 0.5, 1.0] {
                let naive = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Naive)
                    .match_pairs(&coll, all_candidates(&coll));
                let cascade = ThresholdMatcher::with_mode(measure, threshold, ScoringMode::Cascade)
                    .match_pairs(&coll, all_candidates(&coll));
                assert_eq!(naive, cascade, "{} @ {threshold}", measure.name());
            }
        }
    }

    /// Ten profiles of 60 tokens each, every token in exactly one profile
    /// (df ties throughout), plus `common` in all of them when asked. Token
    /// names count down (`t599` … `t000`), so the lexicographic order of the
    /// tokens runs against the order they are first met in.
    fn tied_collection(common: bool) -> ProfileCollection {
        ProfileCollection::dirty(
            (0..10)
                .map(|p| {
                    let mut text: Vec<String> = (0..60)
                        .map(|t| format!("t{:03}", 599 - (p * 60 + t)))
                        .collect();
                    if common {
                        text.push("common".to_string());
                    }
                    Profile::builder(SourceId(0), p.to_string())
                        .attr("text", text.join(" "))
                        .build()
                })
                .collect(),
        )
    }

    #[test]
    fn df_ties_select_a_deterministic_hot_set() {
        // All 600 tokens tie at df 1: the hot set is the 512 lexicographically
        // smallest (lowest token ids), not the first met — profiles 9–2
        // entirely, 32 tokens of profile 1, none of profile 0 — in token-id
        // order.
        let prepared = PreparedProfile::prepare_all(&tied_collection(false));
        let hot: Vec<usize> = prepared.iter().map(PreparedProfile::hot_len).collect();
        assert_eq!(hot, [0, 32, 60, 60, 60, 60, 60, 60, 60, 60]);
        assert_eq!(
            prepared[0].hot,
            HotPrefix::default(),
            "no hot tokens, no prefix"
        );
        assert_eq!(prepared[9].token_ids, (0..60).collect::<Vec<u32>>());
        assert_eq!(
            prepared[1].token_ids[..32],
            (480..512).collect::<Vec<u32>>()
        );
        assert!(prepared[0].token_ids.iter().all(|&t| t >= 512));
        // A token in every profile outranks the ties and takes hot id 0,
        // pushing the last tied token out of the hot set.
        let prepared = PreparedProfile::prepare_all(&tied_collection(true));
        let hot: Vec<usize> = prepared.iter().map(PreparedProfile::hot_len).collect();
        assert_eq!(hot, [1, 32, 61, 61, 61, 61, 61, 61, 61, 61]);
        assert!(prepared.iter().all(|p| p.token_ids[0] == 0));
        // The same collection always prepares to the same bits.
        let again = PreparedProfile::prepare_all(&tied_collection(true));
        for (a, b) in prepared.iter().zip(&again) {
            assert_eq!((&a.token_ids, &a.hot), (&b.token_ids, &b.hot));
        }
    }

    #[test]
    fn hot_prefix_is_sorted_and_mirrored_by_the_bitset() {
        let prepared = PreparedProfile::prepare_all(&tied_collection(true));
        for p in &prepared {
            assert!(p.token_ids.windows(2).all(|w| w[0] < w[1]), "unsorted");
            let prefix = &p.hot;
            let hot = p.hot_len();
            assert!(hot > 0, "every profile holds `common`");
            assert!(p.token_ids[..hot].iter().all(|&t| t < HOT_TOKENS as u32));
            assert!(p.token_ids[hot..].iter().all(|&t| t >= HOT_TOKENS as u32));
            let ones: u32 = prefix.bits.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, hot);
            for &t in &p.token_ids[..hot] {
                assert_ne!(prefix.bits[t as usize / 64] & (1 << (t % 64)), 0);
            }
        }
        // Views prepared one by one carry no hot prefix.
        let (a, _) = PreparedProfile::pair(
            tied_collection(false).get(ProfileId(0)),
            tied_collection(false).get(ProfileId(1)),
        );
        assert_eq!(a.hot, HotPrefix::default());
    }

    #[test]
    fn views_built_on_the_pool_equal_the_one_range_build() {
        // Over 512 tokens with df ties, so the hot set depends on the merged
        // df; both the set measure (no text) and a string measure.
        for coll in [tied_collection(true), collection()] {
            let (_, keys) = intern_profiles(None, coll.profiles());
            for measure in [SimilarityMeasure::Jaccard, SimilarityMeasure::Levenshtein] {
                let serial = PreparedProfile::prepare_from_keys(None, &coll, &keys, measure);
                for workers in [1, 2, 3, 8] {
                    let ctx = Context::new(workers);
                    let pooled =
                        PreparedProfile::prepare_from_keys(Some(&ctx), &coll, &keys, measure);
                    assert_eq!(pooled, serial, "{workers} workers, {}", measure.name());
                }
            }
        }
    }

    #[test]
    fn filter_stats_account_for_every_pair() {
        let coll = collection();
        let candidates = all_candidates(&coll);
        let ctx = Context::new(2);
        let graph = Arc::new(CandidateGraph::from_pairs(
            coll.len(),
            candidates.iter().copied(),
        ));
        let m = ThresholdMatcher::with_mode(SimilarityMeasure::Jaccard, 0.4, ScoringMode::Cascade);
        let (g, stats) = m.match_candidates_pool_stats(&ctx, &coll, &graph);
        assert_eq!(stats.pairs, candidates.len() as u64);
        assert_eq!(stats.kept, g.len() as u64);
        assert_eq!(
            stats.pairs,
            stats.bound_rejected + stats.abandoned + stats.verified
        );
        assert!(stats.kept <= stats.verified);
        // At threshold 0.4 the dissimilar pairs are size-filterable or
        // abandoned: the cascade must actually filter something here.
        assert!(stats.filtered() > 0, "cascade filtered nothing: {stats:?}");
    }

    #[test]
    fn scoring_mode_defaults_to_cascade() {
        assert_eq!(ScoringMode::default(), ScoringMode::Cascade);
        assert_eq!(
            ThresholdMatcher::new(SimilarityMeasure::Dice, 0.3).mode(),
            ScoringMode::Cascade
        );
        assert_eq!(ScoringMode::Cascade.name(), "cascade");
        assert_eq!(ScoringMode::Naive.name(), "naive");
        let m = ThresholdMatcher::with_mode(SimilarityMeasure::Dice, 0.3, ScoringMode::Naive);
        assert_eq!(m.mode(), ScoringMode::Naive);
    }

    #[test]
    fn dataflow_matching_equals_sequential() {
        let coll = collection();
        let m = ThresholdMatcher::new(SimilarityMeasure::Dice, 0.3);
        let seq = m.match_pairs(&coll, all_candidates(&coll));
        let ctx = Context::new(4);
        let par = m
            .match_pairs_dataflow_stats(&ctx, &coll, all_candidates(&coll))
            .0;
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        ThresholdMatcher::new(SimilarityMeasure::Jaccard, 1.5);
    }
}
