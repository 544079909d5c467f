//! Property-based tests of the data-model crate: CSV/JSON round trips,
//! tokenization invariants, pair normalization.

use proptest::prelude::*;
use sparker_profiles::{parse_csv, parse_json, tokenize, write_csv, JsonValue, Pair, ProfileId};

fn json_value_strategy() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-1e9f64..1e9).prop_map(|n| JsonValue::Number((n * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 \\\\\"\n\t]{0,20}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(3, 32, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(JsonValue::Object),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csv_roundtrip(rows in prop::collection::vec(
        prop::collection::vec("[ -~]{0,15}", 1..5),
        0..10,
    )) {
        // Normalize: all rows same width (CSV has no ragged-row contract here),
        // and the last field of the last row non-empty is not required — the
        // parser treats a trailing newline canonically.
        let width = rows.iter().map(Vec::len).max().unwrap_or(1);
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            // A row of all-empty fields serializes to an empty line, which
            // the parser cannot distinguish from no row; keep a marker.
            .map(|mut r| {
                if r.iter().all(String::is_empty) {
                    r[0] = "x".to_string();
                }
                r
            })
            .collect();
        let text = write_csv(&rows, ',');
        let parsed = parse_csv(&text, ',').unwrap();
        prop_assert_eq!(parsed, rows);
    }

    #[test]
    fn json_roundtrip(value in json_value_strategy()) {
        let text = value.to_string();
        let parsed = parse_json(&text).unwrap();
        prop_assert_eq!(parsed, value);
    }

    #[test]
    fn tokens_are_lowercase_alphanumeric_nonempty(s in "\\PC{0,60}") {
        for t in tokenize(&s) {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(t.clone(), t.to_lowercase());
        }
    }

    #[test]
    fn tokenize_is_idempotent_on_its_output(s in "[a-zA-Z0-9 ,.;-]{0,60}") {
        let once: Vec<String> = tokenize(&s).collect();
        let again: Vec<String> = tokenize(&once.join(" ")).collect();
        prop_assert_eq!(once, again);
    }

    #[test]
    fn pair_normalization(a in 0u32..1000, b in 0u32..1000) {
        prop_assume!(a != b);
        let p = Pair::new(ProfileId(a), ProfileId(b));
        let q = Pair::new(ProfileId(b), ProfileId(a));
        prop_assert_eq!(p, q);
        prop_assert!(p.first < p.second);
        prop_assert!(p.contains(ProfileId(a)) && p.contains(ProfileId(b)));
        prop_assert_eq!(p.other(ProfileId(a)), Some(ProfileId(b)));
    }
}
