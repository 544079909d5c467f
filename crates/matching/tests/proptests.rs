//! Property-based tests of the similarity measures: bounds, symmetry,
//! identity, and known orderings — at the raw-function level and at the
//! [`SimilarityMeasure`] level the matchers use — plus the filter–verify
//! cascade's exactness contract against the naive scorer.

use proptest::prelude::*;
use sparker_matching::similarity::*;
use sparker_matching::{
    FilterStats, PreparedProfile, ScoringMode, SimilarityMeasure, ThresholdMatcher,
};
use sparker_profiles::{DictBuilder, Profile, ProfileCollection, ProfileId, SourceId};
use std::cell::RefCell;
use std::collections::BTreeSet;

fn profile(values: &[String]) -> Profile {
    let mut b = Profile::builder(SourceId(0), "p");
    for (i, v) in values.iter().enumerate() {
        b = b.attr(format!("a{i}"), v.clone());
    }
    b.build()
}

/// Two prepared profiles built from generated attribute values against one
/// shared interner (possibly empty — empty values produce an empty token
/// set and empty concatenation, the degenerate shape real datasets
/// contain).
fn prepared_pair(a: &[String], b: &[String]) -> (PreparedProfile, PreparedProfile) {
    let mut dict = DictBuilder::new();
    let mut scratch = String::new();
    (
        PreparedProfile::from_profile(&profile(a), &mut dict, &mut scratch),
        PreparedProfile::from_profile(&profile(b), &mut dict, &mut scratch),
    )
}

thread_local! {
    /// The scratch `cascade_verify_equals_naive_threshold` reuses across
    /// all of its cases.
    static REUSED_SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::default());
}

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z ]{0,12}", 1..4)
}

fn token_set() -> impl Strategy<Value = BTreeSet<String>> {
    prop::collection::btree_set("[a-z]{1,6}", 0..12)
}

/// Two probe token sets over words `w0`..`w699`, drawn around a shared core
/// (so matches happen) from the whole vocabulary, from the hot words
/// `w0`..`w511` only, or from the cold words only; any set may be empty.
fn hot_probe_pair() -> impl Strategy<Value = (BTreeSet<u32>, BTreeSet<u32>)> {
    let ids = |range: std::ops::Range<u32>, max: usize| prop::collection::btree_set(range, 0..max);
    prop_oneof![Just(0u32..700), Just(0u32..512), Just(512u32..700)]
        .prop_flat_map(move |r| (ids(r.clone(), 40), ids(r.clone(), 8), ids(r, 8)))
        .prop_map(|(shared, only_a, only_b)| (&shared | &only_a, &shared | &only_b))
}

/// Three filler profiles holding all of `w0`..`w511` (df ≥ 3) followed by
/// the two probes (ids 3 and 4): a cold word's df is at most 2, so the
/// collection's 512 hot tokens are exactly `w0`..`w511`.
fn hot_collection(a: &BTreeSet<u32>, b: &BTreeSet<u32>) -> ProfileCollection {
    let words = |ids: &mut dyn Iterator<Item = u32>| {
        ids.map(|k| format!("w{k}")).collect::<Vec<_>>().join(" ")
    };
    let filler = words(&mut (0..512));
    let texts = [
        filler.clone(),
        filler.clone(),
        filler,
        words(&mut a.iter().copied()),
        words(&mut b.iter().copied()),
    ];
    ProfileCollection::dirty(
        texts
            .into_iter()
            .enumerate()
            .map(|(i, text)| {
                Profile::builder(SourceId(0), i.to_string())
                    .attr("text", text)
                    .build()
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_measures_bounded_symmetric(a in token_set(), b in token_set()) {
        for f in [jaccard, dice, overlap, cosine_tokens] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{s}");
            prop_assert_eq!(s, f(&b, &a));
        }
    }

    #[test]
    fn set_measures_empty_semantics(a in token_set()) {
        // Documented empty-input conventions: every set measure scores 0
        // against an empty set — including empty-vs-empty — while the
        // string measures (covered below) score empty-vs-empty as 1.
        let empty = BTreeSet::new();
        for f in [jaccard, dice, overlap, cosine_tokens] {
            prop_assert_eq!(f(&a, &empty), 0.0);
            prop_assert_eq!(f(&empty, &a), 0.0);
            prop_assert_eq!(f(&empty, &empty), 0.0);
        }
    }

    #[test]
    fn set_measures_identity(a in token_set()) {
        prop_assume!(!a.is_empty());
        prop_assert_eq!(jaccard(&a, &a), 1.0);
        prop_assert_eq!(dice(&a, &a), 1.0);
        prop_assert_eq!(overlap(&a, &a), 1.0);
        prop_assert!((cosine_tokens(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_le_dice_le_overlap(a in token_set(), b in token_set()) {
        // Known pointwise ordering of the set measures.
        let j = jaccard(&a, &b);
        let d = dice(&a, &b);
        let o = overlap(&a, &b);
        prop_assert!(j <= d + 1e-12, "jaccard {j} > dice {d}");
        prop_assert!(d <= o + 1e-12, "dice {d} > overlap {o}");
    }

    #[test]
    fn levenshtein_is_a_metric(a in "[a-z]{0,12}", b in "[a-z]{0,12}", c in "[a-z]{0,12}") {
        let ab = levenshtein(&a, &b);
        let ba = levenshtein(&b, &a);
        prop_assert_eq!(ab, ba, "symmetry");
        prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
        // Triangle inequality.
        let ac = levenshtein(&a, &c);
        let cb = levenshtein(&c, &b);
        prop_assert!(ab <= ac + cb, "triangle: d({a},{b})={ab} > {ac}+{cb}");
        // Bounded by the longer string.
        prop_assert!(ab <= a.chars().count().max(b.chars().count()));
        // At least the length difference.
        prop_assert!(ab >= a.chars().count().abs_diff(b.chars().count()));
    }

    #[test]
    fn banded_levenshtein_matches_full(a in "[a-z]{0,12}", b in "[a-z]{0,12}", budget in 0usize..14) {
        // The early-abandon band answers exactly: Some(d) iff d ≤ budget.
        let d = levenshtein(&a, &b);
        let got = levenshtein_within(&a, &b, budget);
        if budget >= d {
            prop_assert_eq!(got, Some(d));
        } else {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn intersect_at_least_is_exact(a in prop::collection::btree_set(0u32..40, 0..20),
                                   b in prop::collection::btree_set(0u32..40, 0..20),
                                   need in 0usize..12) {
        let va: Vec<u32> = a.iter().copied().collect();
        let vb: Vec<u32> = b.iter().copied().collect();
        let true_inter = a.intersection(&b).count();
        let got = intersect_ids_at_least(&va, &vb, need);
        if true_inter >= need {
            prop_assert_eq!(got, Some(true_inter));
        } else {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn string_similarities_bounded_and_reflexive(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
        for f in [levenshtein_similarity, jaro, jaro_winkler, monge_elkan] {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "{s}");
        }
        prop_assert!((levenshtein_similarity(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaro_winkler_dominates_jaro(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assert!(jaro_winkler(&a, &b) >= jaro(&a, &b) - 1e-12);
    }

    #[test]
    fn jaro_winkler_boost_gated_on_07(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        // At or below the 0.7 boost threshold, Winkler is exactly Jaro.
        let j = jaro(&a, &b);
        let jw = jaro_winkler(&a, &b);
        if j <= 0.7 {
            prop_assert_eq!(jw.to_bits(), j.to_bits());
        } else {
            prop_assert!(jw >= j);
        }
    }

    #[test]
    fn single_edit_decreases_levenshtein_similarity_slightly(s in "[a-z]{2,15}") {
        let mut edited: Vec<char> = s.chars().collect();
        edited[0] = if edited[0] == 'z' { 'a' } else { 'z' };
        let edited: String = edited.into_iter().collect();
        prop_assert_eq!(levenshtein(&s, &edited), 1);
        let sim = levenshtein_similarity(&s, &edited);
        prop_assert!(sim >= 1.0 - 1.0 / s.chars().count() as f64 - 1e-12);
    }

    #[test]
    fn measures_bounded_and_symmetric(a in values_strategy(), b in values_strategy()) {
        // Every selectable measure is symmetric and lands in [0, 1], even on
        // degenerate (empty-valued) profiles.
        let (pa, pb) = prepared_pair(&a, &b);
        for measure in SimilarityMeasure::ALL {
            let ab = measure.score_prepared(&pa, &pb);
            let ba = measure.score_prepared(&pb, &pa);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ab), "{}: {ab}", measure.name());
            prop_assert!((ab - ba).abs() < 1e-12, "{}: {ab} != {ba}", measure.name());
        }
    }

    #[test]
    fn measures_identity_on_nonempty_profiles(a in prop::collection::vec("[a-z]{1,8}", 1..4)) {
        let (p, q) = prepared_pair(&a, &a);
        for measure in SimilarityMeasure::ALL {
            let s = measure.score_prepared(&p, &q);
            prop_assert!((s - 1.0).abs() < 1e-12, "{}: self-score {s}", measure.name());
        }
    }

    #[test]
    fn scratch_scoring_is_bit_identical(a in values_strategy(), b in values_strategy()) {
        // The per-worker-scratch path the pool matcher uses must produce the
        // same bits as the allocating path, for every measure.
        let (pa, pb) = prepared_pair(&a, &b);
        let mut scratch = MatchScratch::default();
        for measure in SimilarityMeasure::ALL {
            let plain = measure.score_prepared(&pa, &pb);
            let with = measure.score_prepared_with(&pa, &pb, &mut scratch);
            prop_assert_eq!(plain.to_bits(), with.to_bits(), "{}", measure.name());
        }
    }

    #[test]
    fn cascade_verify_equals_naive_threshold(a in values_strategy(),
                                             b in values_strategy(),
                                             threshold in 0.0f64..=1.0) {
        // The cascade's whole contract: verify_prepared returns Some(score)
        // iff the naive score passes the threshold, with identical bits —
        // on randomized profiles, for every measure, at any threshold. The
        // same decisions and counters come from a fresh scratch and from
        // one reused across every case, whose bound table sees measure
        // and threshold change under it and is read back on a second call.
        let (pa, pb) = prepared_pair(&a, &b);
        let mut stats = sparker_matching::FilterStats::default();
        let mut reused_stats = sparker_matching::FilterStats::default();
        for measure in SimilarityMeasure::ALL {
            let naive = measure.score_prepared(&pa, &pb);
            let expected = (naive >= threshold).then_some(naive.to_bits());
            let got = measure
                .verify_prepared(&pa, &pb, threshold, &mut MatchScratch::default(), &mut stats)
                .map(f64::to_bits);
            prop_assert_eq!(got, expected, "{} @ {}", measure.name(), threshold);
            for _ in 0..2 {
                let reused = REUSED_SCRATCH.with(|scratch| {
                    measure.verify_prepared(
                        &pa,
                        &pb,
                        threshold,
                        &mut scratch.borrow_mut(),
                        &mut reused_stats,
                    )
                });
                prop_assert_eq!(reused.map(f64::to_bits), expected, "{} @ {}", measure.name(), threshold);
            }
        }
        prop_assert_eq!(
            stats.pairs,
            stats.bound_rejected + stats.abandoned + stats.verified
        );
        let mut twice = stats;
        twice.merge(&stats);
        prop_assert_eq!(reused_stats, twice);
    }

    #[test]
    fn hot_prefix_cascade_equals_naive(pair in hot_probe_pair()) {
        // The cascade on `prepare_all` views — hot prefix counted by
        // bitset, tail merge-joined — decides every set measure exactly
        // like the naive scorer on plain `pair` views, with the same score
        // bits, and with the same filter counters as the plain cascade.
        let (a, b) = pair;
        let coll = hot_collection(&a, &b);
        let prepared = PreparedProfile::prepare_all(&coll);
        let (hot_a, hot_b) = (&prepared[3], &prepared[4]);
        prop_assert_eq!(
            hot_a.token_ids.iter().filter(|&&t| t < 512).count(),
            a.range(..512).count(),
            "the hot set is w0..w511"
        );
        let (plain_a, plain_b) = PreparedProfile::pair(coll.get(ProfileId(3)), coll.get(ProfileId(4)));
        let mut scratch = MatchScratch::default();
        for measure in &SimilarityMeasure::ALL[..4] {
            for threshold in [0.3, 0.5, 0.8] {
                let naive = ThresholdMatcher::with_mode(*measure, threshold, ScoringMode::Naive);
                let cascade = ThresholdMatcher::new(*measure, threshold);
                let (mut naive_stats, mut hot_stats, mut plain_stats) =
                    (FilterStats::default(), FilterStats::default(), FilterStats::default());
                let expected = naive
                    .decide_prepared(&plain_a, &plain_b, &mut scratch, &mut naive_stats)
                    .map(f64::to_bits);
                let hot = cascade
                    .decide_prepared(hot_a, hot_b, &mut scratch, &mut hot_stats)
                    .map(f64::to_bits);
                let plain = cascade
                    .decide_prepared(&plain_a, &plain_b, &mut scratch, &mut plain_stats)
                    .map(f64::to_bits);
                prop_assert_eq!(hot, expected, "{} @ {}", measure.name(), threshold);
                prop_assert_eq!(plain, expected, "{} @ {}", measure.name(), threshold);
                prop_assert_eq!(hot_stats, plain_stats, "{} @ {}", measure.name(), threshold);
            }
        }
    }

    #[test]
    fn edit_based_measures_tolerate_empty_strings(s in "[a-z ]{0,15}") {
        // Monge–Elkan and Jaro–Winkler must not panic on empty inputs and
        // must stay bounded; both directions and the empty–empty case.
        for f in [monge_elkan, jaro_winkler] {
            for (x, y) in [(s.as_str(), ""), ("", s.as_str()), ("", "")] {
                let v = f(x, y);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "{v}");
            }
        }
        prop_assert_eq!(monge_elkan("", ""), 1.0);
        prop_assert_eq!(jaro_winkler("", ""), 1.0);
    }
}

#[test]
fn bound_table_equals_score_bound() {
    // The cascade's size-indexed bound table (`score_bound_with`) against
    // `score_bound` itself, for every set measure, on sizes 0..=300 on
    // both sides — across the table's cap — at thresholds 0 and 1 and at,
    // just below and just above size ratios, where the bound search flips.
    let views: Vec<PreparedProfile> = (0..=300u32)
        .map(|n| {
            let mut view = PreparedProfile::default();
            view.token_ids = (0..n).collect();
            view
        })
        .collect();
    let mut thresholds = vec![0.0, 1.0];
    for (num, den) in [(1u32, 3u32), (1, 2), (5, 7), (3, 4), (250, 253), (299, 300)] {
        let ratio = f64::from(num) / f64::from(den);
        thresholds.extend([ratio, ratio.next_down(), ratio.next_up()]);
    }
    let mut scratch = MatchScratch::default();
    for measure in &SimilarityMeasure::ALL[..4] {
        for &t in &thresholds {
            for a in &views {
                for b in &views {
                    let expected = measure.score_bound(a, b, t);
                    // The first call fills the entry, the second reads it.
                    for _ in 0..2 {
                        assert_eq!(
                            measure.score_bound_with(a, b, t, &mut scratch),
                            expected,
                            "{} @ {t}: |A|={} |B|={}",
                            measure.name(),
                            a.token_ids.len(),
                            b.token_ids.len()
                        );
                    }
                }
            }
        }
    }
}
