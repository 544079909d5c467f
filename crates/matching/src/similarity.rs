//! Similarity and distance measures on token sets and strings.
//!
//! All measures return values in `[0, 1]` with 1 = identical for non-empty
//! inputs, so matchers can swap them freely under a common threshold
//! semantics. Empty inputs are where the measures disagree, and each
//! function documents its own convention:
//!
//! - [`jaccard`], [`dice`]: empty-vs-empty scores **0** (no shared
//!   evidence), empty-vs-non-empty scores 0.
//! - [`overlap`], [`cosine_tokens`]: **0** whenever either side is empty
//!   (the denominator would vanish).
//! - [`levenshtein_similarity`], [`jaro`], [`jaro_winkler`],
//!   [`monge_elkan`]: empty-vs-empty scores **1** (zero edits apart),
//!   empty-vs-non-empty scores 0 (except `levenshtein_similarity`, which
//!   degrades smoothly: `1 − |b|/|b| = 0`).
//!
//! The token-set measures come in two shapes: `BTreeSet<String>` versions
//! for ad-hoc use, and sorted-`u32` id-slice versions (`*_ids`) that the
//! batch matchers drive off interned [`PreparedProfile`] token views —
//! merge-joins over dense ids instead of re-comparing full strings per
//! pair. Both shapes funnel into shared `*_counts` kernels so their float
//! arithmetic is identical bit for bit.
//!
//! [`PreparedProfile`]: crate::PreparedProfile

use crate::matcher::BoundTable;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Token-set measures.
// ---------------------------------------------------------------------------

/// Jaccard similarity `|A∩B| / |A∪B|`. Empty-vs-empty is 0 (no evidence).
pub fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    jaccard_counts(a.intersection(b).count(), a.len(), b.len())
}

/// Dice coefficient `2|A∩B| / (|A| + |B|)`. Empty-vs-empty is 0.
pub fn dice(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    dice_counts(a.intersection(b).count(), a.len(), b.len())
}

/// Overlap coefficient `|A∩B| / min(|A|, |B|)`. 0 if either side is empty.
pub fn overlap(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    overlap_counts(a.intersection(b).count(), a.len(), b.len())
}

/// Cosine similarity of the binary token vectors:
/// `|A∩B| / sqrt(|A|·|B|)`. 0 if either side is empty.
pub fn cosine_tokens(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    cosine_counts(a.intersection(b).count(), a.len(), b.len())
}

// ---------------------------------------------------------------------------
// Count-based kernels: one implementation of each set-measure formula, used
// by both the `BTreeSet` and the interned id-slice entry points (and by the
// matcher's bound computation, which must agree with them exactly).
// ---------------------------------------------------------------------------

/// [`jaccard`] from an intersection count and the two set sizes.
#[inline]
pub fn jaccard_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 0.0;
    }
    inter as f64 / (la + lb - inter) as f64
}

/// [`dice`] from an intersection count and the two set sizes.
#[inline]
pub fn dice_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 0.0;
    }
    2.0 * inter as f64 / (la + lb) as f64
}

/// [`overlap`] from an intersection count and the two set sizes.
#[inline]
pub fn overlap_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 || lb == 0 {
        return 0.0;
    }
    inter as f64 / la.min(lb) as f64
}

/// [`cosine_tokens`] from an intersection count and the two set sizes.
#[inline]
pub fn cosine_counts(inter: usize, la: usize, lb: usize) -> f64 {
    if la == 0 || lb == 0 {
        return 0.0;
    }
    inter as f64 / ((la as f64) * (lb as f64)).sqrt()
}

// ---------------------------------------------------------------------------
// Interned id-slice measures: allocation-free merge-joins over sorted,
// deduplicated token-id vectors.
// ---------------------------------------------------------------------------

/// Size of the intersection of two sorted, deduplicated id slices.
pub fn intersect_ids(a: &[u32], b: &[u32]) -> usize {
    intersect_ids_at_least(a, b, 0).expect("need = 0 always reachable")
}

/// Early-exit intersection: `Some(|A∩B|)` iff the intersection size reaches
/// `need`, `None` as soon as even matching every remaining element could
/// not. Both slices must be sorted and deduplicated.
pub fn intersect_ids_at_least(a: &[u32], b: &[u32], need: usize) -> Option<usize> {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        // Abandon once the remaining elements cannot close the gap.
        if inter + (a.len() - i).min(b.len() - j) < need {
            return None;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (inter >= need).then_some(inter)
}

/// [`jaccard`] over sorted interned token ids.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    jaccard_counts(intersect_ids(a, b), a.len(), b.len())
}

/// [`dice`] over sorted interned token ids.
pub fn dice_ids(a: &[u32], b: &[u32]) -> f64 {
    dice_counts(intersect_ids(a, b), a.len(), b.len())
}

/// [`overlap`] over sorted interned token ids.
pub fn overlap_ids(a: &[u32], b: &[u32]) -> f64 {
    overlap_counts(intersect_ids(a, b), a.len(), b.len())
}

/// [`cosine_tokens`] over sorted interned token ids.
pub fn cosine_ids(a: &[u32], b: &[u32]) -> f64 {
    cosine_counts(intersect_ids(a, b), a.len(), b.len())
}

// ---------------------------------------------------------------------------
// String (edit-based) measures.
// ---------------------------------------------------------------------------

/// Reusable buffers for [`levenshtein_with`]: the decoded char runs and the
/// two DP rows. One `EditScratch` per worker slot keeps the batch matchers'
/// edit-distance inner loop allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub struct EditScratch {
    a: Vec<char>,
    b: Vec<char>,
    prev: Vec<usize>,
    curr: Vec<usize>,
}

impl EditScratch {
    /// Decode both strings into the char buffers (the single decode all
    /// entry points share).
    fn decode(&mut self, a: &str, b: &str) {
        self.a.clear();
        self.a.extend(a.chars());
        self.b.clear();
        self.b.extend(b.chars());
    }
}

/// Levenshtein edit distance (two-row dynamic program, O(|a|·|b|) time,
/// O(min) space).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_with(a, b, &mut EditScratch::default())
}

/// [`levenshtein`] over caller-provided buffers — identical result, no
/// allocation once the scratch has grown to the working size.
pub fn levenshtein_with(a: &str, b: &str, scratch: &mut EditScratch) -> usize {
    scratch.decode(a, b);
    lev_full(scratch)
}

/// The full (unbanded) DP over already-decoded buffers.
fn lev_full(scratch: &mut EditScratch) -> usize {
    let EditScratch {
        a: ca,
        b: cb,
        prev,
        curr,
    } = scratch;
    let (short, long) = if ca.len() <= cb.len() {
        (&*ca, &*cb)
    } else {
        (&*cb, &*ca)
    };
    if short.is_empty() {
        return long.len();
    }
    prev.clear();
    prev.extend(0..=short.len());
    curr.clear();
    curr.resize(short.len() + 1, 0);
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(prev, curr);
    }
    prev[short.len()]
}

/// Levenshtein similarity: `1 − distance / max(|a|, |b|)`; 1 for two empty
/// strings, 0 when one side is empty and the other is not.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    levenshtein_similarity_with(a, b, &mut EditScratch::default())
}

/// [`levenshtein_similarity`] over caller-provided buffers.
pub fn levenshtein_similarity_with(a: &str, b: &str, scratch: &mut EditScratch) -> f64 {
    // Single decode: max length falls out of the char buffers instead of a
    // second `chars().count()` pass over both strings.
    scratch.decode(a, b);
    let max_len = scratch.a.len().max(scratch.b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - lev_full(scratch) as f64 / max_len as f64
}

/// Banded Levenshtein with early abandon: `Some(d)` iff the edit distance
/// `d` is at most `budget`, `None` otherwise (decided without completing
/// the DP whenever a full row exceeds the budget). O(min(|a|,|b|)·budget)
/// time instead of O(|a|·|b|).
pub fn levenshtein_within(a: &str, b: &str, budget: usize) -> Option<usize> {
    levenshtein_within_with(a, b, budget, &mut EditScratch::default())
}

/// [`levenshtein_within`] over caller-provided buffers.
pub fn levenshtein_within_with(
    a: &str,
    b: &str,
    budget: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    scratch.decode(a, b);
    lev_banded(scratch, budget)
}

/// Banded DP over already-decoded buffers. Cells with `|i − j| > k` cannot
/// lie on a path of cost ≤ k, so each row only evaluates a `2k + 1` window;
/// `INF` sentinels seal the window edges and a row whose minimum exceeds
/// the budget abandons the whole computation.
fn lev_banded(scratch: &mut EditScratch, k: usize) -> Option<usize> {
    const INF: usize = usize::MAX / 2;
    let n = scratch.a.len().min(scratch.b.len());
    let m = scratch.a.len().max(scratch.b.len());
    if m - n > k {
        return None; // length difference alone exceeds the budget
    }
    if n == 0 {
        return Some(m); // m ≤ k by the check above
    }
    // A band of half-width k only skips work when it is narrower than a
    // row: at 2k + 1 > n the window covers every column and the sentinel
    // bookkeeping just drags on the tight full-DP loop (measurably — low
    // thresholds give budgets past half the string). Same
    // `Some(d) iff d ≤ k` answer either way.
    if 2 * k >= n {
        let d = lev_full(scratch);
        return (d <= k).then_some(d);
    }
    let EditScratch {
        a: ca,
        b: cb,
        prev,
        curr,
    } = scratch;
    let (short, long) = if ca.len() <= cb.len() {
        (&*ca, &*cb)
    } else {
        (&*cb, &*ca)
    };
    prev.clear();
    prev.resize(n + 1, INF);
    curr.clear();
    curr.resize(n + 1, INF);
    for (j, slot) in prev.iter_mut().take(n.min(k) + 1).enumerate() {
        *slot = j;
    }
    for i in 1..=m {
        let lo = i.saturating_sub(k);
        if lo > n {
            return None;
        }
        let hi = (i + k).min(n);
        if lo > 0 {
            curr[lo - 1] = INF; // seal the left window edge for the ins read
        }
        let mut row_min = INF;
        for j in lo..=hi {
            let v = if j == 0 {
                i
            } else {
                let sub = prev[j - 1].saturating_add(usize::from(long[i - 1] != short[j - 1]));
                let del = prev[j].saturating_add(1);
                let ins = curr[j - 1].saturating_add(1);
                sub.min(del).min(ins)
            };
            curr[j] = v;
            row_min = row_min.min(v);
        }
        if hi < n {
            curr[hi + 1] = INF; // seal the right edge for the next row's del read
        }
        if row_min > k {
            return None;
        }
        std::mem::swap(prev, curr);
    }
    (prev[n] <= k).then_some(prev[n])
}

// ---------------------------------------------------------------------------
// Jaro / Jaro–Winkler / Monge–Elkan.
// ---------------------------------------------------------------------------

/// Buffers for one [`jaro`] evaluation: decoded chars, the taken-flags of
/// the second string and the two match sequences.
#[derive(Debug, Clone, Default)]
struct JaroScratch {
    a: Vec<char>,
    b: Vec<char>,
    taken: Vec<bool>,
    matches_a: Vec<char>,
    matches_b: Vec<char>,
}

/// Reusable buffers for the string-measure kernels: edit-distance rows,
/// Jaro match bookkeeping and the Monge–Elkan lowercase token arenas — plus
/// the set measures' size-indexed bound table (see
/// [`crate::SimilarityMeasure::score_bound_with`]). One `MatchScratch` per
/// worker slot makes batch scoring allocation-free after warm-up; the free
/// functions ([`jaro`], [`monge_elkan`], …) are thin wrappers over the
/// `_with` variants with a fresh scratch, so both paths produce
/// bit-identical scores.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Levenshtein buffers (shared with [`levenshtein_with`] and friends).
    pub edit: EditScratch,
    pub(crate) bounds: BoundTable,
    jaro: JaroScratch,
    arena_a: String,
    spans_a: Vec<(u32, u32)>,
    arena_b: String,
    spans_b: Vec<(u32, u32)>,
}

/// Jaro similarity. 1 for two empty strings, 0 when exactly one is empty.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_core(a, b, &mut JaroScratch::default())
}

/// [`jaro`] over caller-provided buffers.
pub fn jaro_with(a: &str, b: &str, scratch: &mut MatchScratch) -> f64 {
    jaro_core(a, b, &mut scratch.jaro)
}

fn jaro_core(a: &str, b: &str, scratch: &mut JaroScratch) -> f64 {
    let JaroScratch {
        a: ca,
        b: cb,
        taken,
        matches_a,
        matches_b,
    } = scratch;
    ca.clear();
    ca.extend(a.chars());
    cb.clear();
    cb.extend(b.chars());
    if ca.is_empty() && cb.is_empty() {
        return 1.0;
    }
    if ca.is_empty() || cb.is_empty() {
        return 0.0;
    }
    let window = (ca.len().max(cb.len()) / 2).saturating_sub(1);
    taken.clear();
    taken.resize(cb.len(), false);
    matches_a.clear();
    for (i, &cha) in ca.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(cb.len());
        for j in lo..hi {
            if !taken[j] && cb[j] == cha {
                taken[j] = true;
                matches_a.push(cha);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    matches_b.clear();
    matches_b.extend(
        cb.iter()
            .zip(taken.iter())
            .filter(|(_, &t)| t)
            .map(|(&c, _)| c),
    );
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / ca.len() as f64 + m / cb.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity (prefix scale 0.1, max prefix 4). The Winkler
/// prefix boost only applies when the Jaro score exceeds the canonical 0.7
/// boost threshold — below it the score is plain Jaro, so dissimilar
/// strings that merely share a prefix are not inflated. Empty semantics
/// follow [`jaro`].
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_core(a, b, &mut JaroScratch::default())
}

/// [`jaro_winkler`] over caller-provided buffers.
pub fn jaro_winkler_with(a: &str, b: &str, scratch: &mut MatchScratch) -> f64 {
    jaro_winkler_core(a, b, &mut scratch.jaro)
}

fn jaro_winkler_core(a: &str, b: &str, scratch: &mut JaroScratch) -> f64 {
    let j = jaro_core(a, b, scratch);
    if j <= 0.7 {
        return j;
    }
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Append the lowercase form of `tok` to `arena`. Pure-ASCII tokens (the
/// overwhelmingly common case) are folded byte-wise with no allocation;
/// anything else defers to `str::to_lowercase` for exact Unicode casing,
/// including its context-sensitive mappings.
fn push_lower(arena: &mut String, tok: &str) {
    if tok.is_ascii() {
        arena.extend(tok.bytes().map(|b| b.to_ascii_lowercase() as char));
    } else {
        let low = tok.to_lowercase();
        arena.push_str(&low);
    }
}

/// Split `text` on whitespace and lowercase every token once into `arena`,
/// recording each token's byte span.
fn fill_lower(arena: &mut String, spans: &mut Vec<(u32, u32)>, text: &str) {
    arena.clear();
    spans.clear();
    for tok in text.split_whitespace() {
        let start = arena.len() as u32;
        push_lower(arena, tok);
        spans.push((start, arena.len() as u32));
    }
}

/// Monge–Elkan similarity: for each token of the shorter side, the best
/// Jaro–Winkler match on the other side, averaged; on equal token counts,
/// the better of the two directions (making the measure symmetric, a
/// property the matcher-level tests pin). Robust to token reordering
/// ("Sony Bravia TV" vs "TV Sony BRAVIA"). 1 for two empty (or
/// all-whitespace) strings, 0 when exactly one is empty.
pub fn monge_elkan(a: &str, b: &str) -> f64 {
    monge_elkan_with(a, b, &mut MatchScratch::default())
}

/// [`monge_elkan`] over caller-provided buffers.
pub fn monge_elkan_with(a: &str, b: &str, scratch: &mut MatchScratch) -> f64 {
    // Lowercase every token exactly once up front; the former per-pair
    // inner-loop `to_lowercase` cost two heap allocations per token
    // comparison, O(|ta|·|tb|) of them.
    let MatchScratch {
        jaro,
        arena_a,
        spans_a,
        arena_b,
        spans_b,
        ..
    } = scratch;
    fill_lower(arena_a, spans_a, a);
    fill_lower(arena_b, spans_b, b);
    if spans_a.is_empty() && spans_b.is_empty() {
        return 1.0;
    }
    if spans_a.is_empty() || spans_b.is_empty() {
        return 0.0;
    }
    fn directed(
        outer: &[(u32, u32)],
        oa: &str,
        inner: &[(u32, u32)],
        ia: &str,
        jaro: &mut JaroScratch,
    ) -> f64 {
        let mut sum = 0.0;
        for &(s, e) in outer {
            let x = &oa[s as usize..e as usize];
            let mut best = 0.0f64;
            for &(s2, e2) in inner {
                best = best.max(jaro_winkler_core(x, &ia[s2 as usize..e2 as usize], jaro));
            }
            sum += best;
        }
        sum / outer.len() as f64
    }
    match spans_a.len().cmp(&spans_b.len()) {
        std::cmp::Ordering::Less => directed(spans_a, arena_a, spans_b, arena_b, jaro),
        std::cmp::Ordering::Greater => directed(spans_b, arena_b, spans_a, arena_a, jaro),
        std::cmp::Ordering::Equal => directed(spans_a, arena_a, spans_b, arena_b, jaro)
            .max(directed(spans_b, arena_b, spans_a, arena_a, jaro)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_cases() {
        assert_eq!(jaccard(&set(&["a", "b"]), &set(&["b", "c"])), 1.0 / 3.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&["a"])), 1.0);
        assert_eq!(jaccard(&set(&[]), &set(&[])), 0.0);
        assert_eq!(jaccard(&set(&["a"]), &set(&["b"])), 0.0);
    }

    #[test]
    fn dice_overlap_cosine_cases() {
        let (a, b) = (set(&["a", "b", "c"]), set(&["b", "c", "d"]));
        assert!((dice(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((overlap(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cosine_tokens(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        // Subset: overlap saturates at 1.
        let sub = set(&["a", "b"]);
        assert_eq!(overlap(&a, &sub), 1.0);
        assert!(dice(&a, &sub) < 1.0);
        assert_eq!(overlap(&a, &set(&[])), 0.0);
        assert_eq!(cosine_tokens(&set(&[]), &b), 0.0);
    }

    #[test]
    fn measures_bounded_and_symmetric() {
        let sets = [set(&["x"]), set(&["x", "y"]), set(&["z"]), set(&[])];
        for a in &sets {
            for b in &sets {
                for f in [jaccard, dice, overlap, cosine_tokens] {
                    let s = f(a, b);
                    assert!((0.0..=1.0).contains(&s));
                    assert_eq!(s, f(b, a));
                }
            }
        }
    }

    #[test]
    fn empty_input_semantics_per_measure() {
        // Set measures: empty-vs-empty is 0 for jaccard/dice (explicit
        // special case) and 0 for overlap/cosine (vanishing denominator).
        for f in [jaccard, dice, overlap, cosine_tokens] {
            assert_eq!(f(&set(&[]), &set(&[])), 0.0);
            assert_eq!(f(&set(&["a"]), &set(&[])), 0.0);
        }
        // String measures: empty-vs-empty is 1.
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(
            monge_elkan("   ", ""),
            1.0,
            "all-whitespace tokenizes empty"
        );
        // Empty vs non-empty is 0 for all string measures.
        assert_eq!(levenshtein_similarity("", "abc"), 0.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro_winkler("", "abc"), 0.0);
        assert_eq!(monge_elkan("", "abc"), 0.0);
    }

    #[test]
    fn id_measures_match_string_measures() {
        // The id-slice kernels must agree bit for bit with the BTreeSet
        // versions under any injective token → id mapping.
        let cases: &[(&[&str], &[&str])] = &[
            (&["a", "b", "c"], &["b", "c", "d"]),
            (&["a"], &["a"]),
            (&[], &[]),
            (&["a"], &[]),
            (&["x", "y", "z"], &["q"]),
        ];
        for (ta, tb) in cases {
            let (sa, sb) = (set(ta), set(tb));
            // Map token -> id by position in the sorted union.
            let union: Vec<&String> = sa.union(&sb).collect();
            let id_of = |t: &String| union.iter().position(|u| *u == t).unwrap() as u32;
            let ia: Vec<u32> = sa.iter().map(id_of).collect();
            let ib: Vec<u32> = sb.iter().map(id_of).collect();
            let mut ia = ia;
            let mut ib = ib;
            ia.sort_unstable();
            ib.sort_unstable();
            assert_eq!(jaccard_ids(&ia, &ib).to_bits(), jaccard(&sa, &sb).to_bits());
            assert_eq!(dice_ids(&ia, &ib).to_bits(), dice(&sa, &sb).to_bits());
            assert_eq!(overlap_ids(&ia, &ib).to_bits(), overlap(&sa, &sb).to_bits());
            assert_eq!(
                cosine_ids(&ia, &ib).to_bits(),
                cosine_tokens(&sa, &sb).to_bits()
            );
        }
    }

    #[test]
    fn intersect_at_least_early_exit_and_exact_count() {
        let a: Vec<u32> = vec![1, 3, 5, 7, 9];
        let b: Vec<u32> = vec![3, 4, 5, 6, 9];
        assert_eq!(intersect_ids(&a, &b), 3);
        for need in 0..=3 {
            assert_eq!(intersect_ids_at_least(&a, &b, need), Some(3));
        }
        assert_eq!(intersect_ids_at_least(&a, &b, 4), None);
        assert_eq!(intersect_ids_at_least(&[], &[], 0), Some(0));
        assert_eq!(intersect_ids_at_least(&[], &b, 1), None);
        assert_eq!(intersect_ids_at_least(&a, &a, a.len()), Some(a.len()));
    }

    #[test]
    fn levenshtein_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("café", "cafe"), 1, "unicode is per-char");
    }

    #[test]
    fn levenshtein_scratch_reuse_is_identical() {
        // One scratch across pairs of very different lengths: stale buffer
        // contents must never leak into a later distance.
        let mut scratch = EditScratch::default();
        for (a, b) in [
            ("kitten", "sitting"),
            ("", "abc"),
            ("abcdefghij", "x"),
            ("abc", ""),
            ("same", "same"),
            ("café", "cafe"),
        ] {
            assert_eq!(
                levenshtein_with(a, b, &mut scratch),
                levenshtein(a, b),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn levenshtein_similarity_cases() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn banded_levenshtein_agrees_with_full_dp() {
        let words = [
            "", "a", "ab", "kitten", "sitting", "abcdefgh", "xbcdefgi", "café", "cafe",
        ];
        let mut scratch = EditScratch::default();
        for a in words {
            for b in words {
                let d = levenshtein(a, b);
                for budget in 0..=(d + 2) {
                    let got = levenshtein_within_with(a, b, budget, &mut scratch);
                    if budget >= d {
                        assert_eq!(got, Some(d), "{a:?} vs {b:?} budget {budget}");
                    } else {
                        assert_eq!(got, None, "{a:?} vs {b:?} budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook values.
        assert!((jaro("MARTHA", "MARHTA") - 0.944444).abs() < 1e-5);
        assert!((jaro("DIXON", "DICKSONX") - 0.766667).abs() < 1e-5);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.961111).abs() < 1e-5);
        assert!(jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes"));
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaro_winkler_boost_only_above_threshold() {
        // Shared 2-char prefix but jaro exactly 0.5: two matches in windows,
        // zero transpositions -> (2/8 + 2/8 + 2/2) / 3 = 0.5 ≤ 0.7, so no
        // boost — jaro_winkler must equal jaro exactly.
        let (a, b) = ("abcxxxxx", "abyyyyyy");
        let j = jaro(a, b);
        assert_eq!(j, 0.5);
        assert_eq!(jaro_winkler(a, b).to_bits(), j.to_bits());
        // Just above the threshold the boost kicks in: DIXON/DICKSONX has
        // jaro ≈ 0.767 > 0.7 and a 2-char prefix.
        let j = jaro("DIXON", "DICKSONX");
        let jw = jaro_winkler("DIXON", "DICKSONX");
        assert!(j > 0.7);
        let expected = j + 2.0 * 0.1 * (1.0 - j);
        assert_eq!(jw.to_bits(), expected.to_bits());
        assert!((jw - 0.813333).abs() < 1e-5);
    }

    #[test]
    fn scratch_variants_are_bit_identical() {
        let mut scratch = MatchScratch::default();
        let pairs = [
            ("MARTHA", "MARHTA"),
            ("Sony Bravia TV", "TV sony BRAVIA"),
            ("", "abc"),
            ("", ""),
            ("café au lait", "CAFÉ AU LAIT"),
            ("abcxxxxx", "abyyyyyy"),
        ];
        for (a, b) in pairs {
            assert_eq!(
                jaro_with(a, b, &mut scratch).to_bits(),
                jaro(a, b).to_bits()
            );
            assert_eq!(
                jaro_winkler_with(a, b, &mut scratch).to_bits(),
                jaro_winkler(a, b).to_bits()
            );
            assert_eq!(
                monge_elkan_with(a, b, &mut scratch).to_bits(),
                monge_elkan(a, b).to_bits()
            );
            assert_eq!(
                levenshtein_similarity_with(a, b, &mut scratch.edit).to_bits(),
                levenshtein_similarity(a, b).to_bits()
            );
        }
    }

    #[test]
    fn monge_elkan_handles_reordering() {
        let s = monge_elkan("Sony Bravia TV", "TV sony BRAVIA");
        assert!(s > 0.99, "reordered tokens should score ~1, got {s}");
        assert_eq!(monge_elkan("", ""), 1.0);
        assert_eq!(monge_elkan("a", ""), 0.0);
        let partial = monge_elkan("Sony Bravia", "Sony Walkman");
        assert!((0.5..1.0).contains(&partial));
    }

    #[test]
    fn monge_elkan_lowercases_once_regression() {
        // The hoisted lowercase pass must reproduce the former
        // per-comparison `to_lowercase` scores bit for bit — including on
        // non-ASCII tokens that take the Unicode fallback path.
        fn reference(a: &str, b: &str) -> f64 {
            let ta: Vec<&str> = a.split_whitespace().collect();
            let tb: Vec<&str> = b.split_whitespace().collect();
            if ta.is_empty() && tb.is_empty() {
                return 1.0;
            }
            if ta.is_empty() || tb.is_empty() {
                return 0.0;
            }
            let directed = |outer: &[&str], inner: &[&str]| -> f64 {
                let sum: f64 = outer
                    .iter()
                    .map(|x| {
                        inner
                            .iter()
                            .map(|y| jaro_winkler(&x.to_lowercase(), &y.to_lowercase()))
                            .fold(0.0, f64::max)
                    })
                    .sum();
                sum / outer.len() as f64
            };
            match ta.len().cmp(&tb.len()) {
                std::cmp::Ordering::Less => directed(&ta, &tb),
                std::cmp::Ordering::Greater => directed(&tb, &ta),
                std::cmp::Ordering::Equal => directed(&ta, &tb).max(directed(&tb, &ta)),
            }
        }
        let pairs = [
            ("Sony Bravia TV", "TV sony BRAVIA"),
            ("Sony Bravia", "Sony Walkman"),
            ("CAFÉ crème Brûlée", "cafe creme brulee"),
            ("ΣΊΣΥΦΟΣ myth", "σίσυφος MYTH"),
            ("one", "one two three"),
            ("", "x"),
        ];
        for (a, b) in pairs {
            assert_eq!(
                monge_elkan(a, b).to_bits(),
                reference(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }
}
