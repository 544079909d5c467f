//! The JSON-lines profile loader against its reference: `parse_json` on
//! every line plus the object → profile mapping, as the loader was first
//! written. Random JSONL (escapes and surrogate pairs, raw multi-byte and
//! uppercase text, nested values, duplicate keys, nulls and numbers,
//! missing ids, blank and CRLF lines, truncated lines) must load
//! identically — same profiles or the same error — serially and on 1, 2, 3
//! and 8 workers, and no input, however malformed, may panic the loader.
//!
//! The text-free pass (`token_pass_from_json_lines`) is held to the loader
//! the same way: the same bare profiles and the same error, and after the
//! merge the same dictionary and key lists as `intern_profiles` over the
//! loaded profiles — per source and over two sources at once.

use proptest::prelude::*;
use sparker_dataflow::Context;
use sparker_profiles::{
    intern_profiles, parse_json, profiles_from_json_lines, profiles_from_json_lines_on,
    token_pass_from_json_lines, Error, JsonValue, Profile, ProfileCollection, Result, SourceId,
};
use std::sync::OnceLock;

/// The loader's reference semantics: parse each non-blank line into a
/// `JsonValue` tree, then map the object to a profile.
fn reference_loader(text: &str, source: SourceId, id_key: &str) -> Result<Vec<Profile>> {
    let mut profiles = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let JsonValue::Object(map) = parse_json(line)? else {
            return Err(Error::Json {
                message: format!("line {} is not a JSON object", lineno + 1),
                offset: 0,
            });
        };
        let original_id = map
            .get(id_key)
            .map(JsonValue::to_text)
            .unwrap_or_else(|| lineno.to_string());
        let mut b = Profile::builder(source, original_id);
        for (k, v) in &map {
            if k == id_key {
                continue;
            }
            match v {
                JsonValue::Array(items) => {
                    for item in items {
                        b = b.attr(k.clone(), item.to_text());
                    }
                }
                other => b = b.attr(k.clone(), other.to_text()),
            }
        }
        profiles.push(b.build());
    }
    Ok(profiles)
}

/// Engine contexts at the worker counts under test, built once.
fn contexts() -> &'static [Context] {
    static CONTEXTS: OnceLock<Vec<Context>> = OnceLock::new();
    CONTEXTS.get_or_init(|| [1, 2, 3, 8].into_iter().map(Context::new).collect())
}

/// Every loader entry point must agree with the reference, errors
/// included (compared by their rendering).
fn assert_loads_like_reference(text: &str) -> std::result::Result<(), TestCaseError> {
    let render = |r: Result<Vec<Profile>>| r.map_err(|e| e.to_string());
    let expected = render(reference_loader(text, SourceId(1), "id"));
    prop_assert_eq!(
        render(profiles_from_json_lines(text, SourceId(1), "id")),
        expected.clone()
    );
    for ctx in contexts() {
        prop_assert_eq!(
            render(profiles_from_json_lines_on(ctx, text, SourceId(1), "id")),
            expected.clone(),
            "{} workers",
            ctx.workers()
        );
    }
    Ok(())
}

/// A JSON string literal: plain runs, raw multi-byte text, simple escapes,
/// `\u` escapes and surrogate pairs, and the traps of the text-free pass's
/// byte-level scanner and tokenizer.
fn json_string() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-z0-9 ]{0,6}",
        Just("é".to_string()),
        Just("中文".to_string()),
        Just("😀".to_string()),
        Just("\\n".to_string()),
        Just("\\\"".to_string()),
        Just("\\\\".to_string()),
        Just("\\/".to_string()),
        Just("\\t".to_string()),
        Just("\\u00e9".to_string()),
        Just("\\u4E2D".to_string()),
        Just("\\ud83d\\ude00".to_string()),
        Just("Sony BRAVIA".to_string()),
        Just("ÉCOLE Straße".to_string()),
        Just("   ".to_string()),
        // Scanner and tokenizer traps: an escaped letter inside a token and
        // an escaped separator between two,
        Just("ab\\u0043d".to_string()),
        Just("a\\u002db".to_string()),
        // tokens past one, two and four words, and one that spans the
        // tokenizer's 64-byte blocks with uppercase on both sides,
        Just("abcdefghij".to_string()),
        Just("abcdefghijklmnopqr".to_string()),
        Just("abcdefghijklmnopqrstuvwxyz0123456789".to_string()),
        Just("LongTokenSpanningBlocks".repeat(4)),
        // uppercase ASCII runs,
        Just("SONY BRAVIA KDL40".to_string()),
        // Unicode case folding that ASCII rules would get wrong (KELVIN
        // SIGN, dotted capital I, a titlecase digraph),
        Just("\u{212A}elvin".to_string()),
        Just("\u{130}stanbul".to_string()),
        Just("\u{1C5}ungla".to_string()),
        // and a non-ASCII digit between ASCII letters.
        Just("ab\u{663}cd".to_string()),
    ];
    prop::collection::vec(piece, 0..5).prop_map(|pieces| format!("\"{}\"", pieces.concat()))
}

fn json_number() -> impl Strategy<Value = String> {
    prop_oneof![
        (-1000i64..1000).prop_map(|n| n.to_string()),
        (-1e6f64..1e6).prop_map(|f| format!("{f}")),
        Just("1e3".to_string()),
        Just("-0.0".to_string()),
        Just("2.5E-3".to_string()),
    ]
}

/// Optional whitespace between tokens.
fn ws() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["", "", " ", "\t", "  "]).prop_map(str::to_string)
}

/// Any JSON value as text, nested up to three levels.
fn json_value() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        json_string(),
        json_number(),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("false".to_string()),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (prop::collection::vec(inner.clone(), 0..4), ws())
                .prop_map(|(items, w)| format!("[{w}{}{w}]", items.join(","))),
            prop::collection::vec((json_key(), inner), 0..3).prop_map(|members| {
                let body: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                format!("{{{}}}", body.join(","))
            }),
        ]
    })
}

/// Object keys from a small pool, so duplicates and the id key are common.
fn json_key() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "\"id\"",
        "\"name\"",
        "\"a\"",
        "\"b\"",
        "\"x y\"",
        "\"é\"",
        "\"i\\u0064\"",
    ])
    .prop_map(str::to_string)
}

/// One object line.
fn object_line() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((json_key(), json_value(), ws()), 0..6),
        ws(),
    )
        .prop_map(|(members, w)| {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v, w)| format!("{w}{k}{w}:{w}{v}{w}"))
                .collect();
            format!("{w}{{{}}}{w}", body.join(","))
        })
}

/// One line of a JSONL file: mostly objects, sometimes blank, a
/// non-object value, or an object cut short.
fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        object_line(),
        object_line(),
        object_line(),
        prop::sample::select(vec!["", " ", "\t \t"]).prop_map(str::to_string),
        json_value(),
        (object_line(), 0usize..80).prop_map(|(line, cut)| line.chars().take(cut).collect()),
    ]
}

/// Lines joined by `\n` or `\r\n`, with or without a final newline.
fn jsonl() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((line(), any::<bool>()), 0..12),
        any::<bool>(),
    )
        .prop_map(|(lines, trailing)| {
            let mut text = String::new();
            for (i, (line, crlf)) in lines.iter().enumerate() {
                text.push_str(line);
                if i + 1 < lines.len() || trailing {
                    text.push_str(if *crlf { "\r\n" } else { "\n" });
                }
            }
            text
        })
}

/// The text-free pass must load what the loader loads — the same
/// profiles stripped to id and source, or the same error — and its merged
/// pass must equal the token pass over the loaded profiles, serially and
/// at every worker count.
fn assert_token_pass_like_loader(text: &str) -> std::result::Result<(), TestCaseError> {
    let loaded = profiles_from_json_lines(text, SourceId(1), "id").map_err(|e| e.to_string());
    let expected = loaded
        .as_ref()
        .map(|profiles| intern_profiles(None, profiles));
    for ctx in std::iter::once(None).chain(contexts().iter().map(Some)) {
        let workers = ctx.map_or(0, |c| c.workers());
        match (
            token_pass_from_json_lines(ctx, text, SourceId(1), "id"),
            &loaded,
        ) {
            (Ok((bare, ranges)), Ok(full)) => {
                prop_assert_eq!(bare.len(), full.len(), "{} workers", workers);
                for (b, f) in bare.iter().zip(full) {
                    prop_assert_eq!((b.source, &b.original_id), (f.source, &f.original_id));
                    prop_assert!(b.attributes.is_empty());
                }
                let pass = ranges.merge(ctx);
                prop_assert_eq!(&pass, expected.as_ref().unwrap(), "{} workers", workers);
            }
            (Err(e), Err(reference)) => {
                prop_assert_eq!(&e.to_string(), reference, "{} workers", workers)
            }
            (got, reference) => prop_assert!(
                false,
                "{} workers: text-free pass {:?} vs loader {:?}",
                workers,
                got.map(|(p, _)| p.len()).map_err(|e| e.to_string()),
                reference.as_ref().map(Vec::len)
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn token_pass_equals_loader_then_intern(text in jsonl()) {
        assert_token_pass_like_loader(&text)?;
    }

    #[test]
    fn token_pass_over_two_sources_is_one_dictionary(
        a in prop::collection::vec(object_line(), 0..8),
        b in prop::collection::vec(object_line(), 0..8),
    ) {
        let (a, b) = (a.join("\n"), b.join("\r\n"));
        let full = ProfileCollection::clean_clean(
            profiles_from_json_lines(&a, SourceId(0), "id").unwrap(),
            profiles_from_json_lines(&b, SourceId(1), "id").unwrap(),
        );
        let expected = intern_profiles(None, full.profiles());
        for ctx in std::iter::once(None).chain(contexts().iter().map(Some)) {
            let (bare_a, mut ranges) = token_pass_from_json_lines(ctx, &a, SourceId(0), "id").unwrap();
            let (bare_b, ranges_b) = token_pass_from_json_lines(ctx, &b, SourceId(1), "id").unwrap();
            ranges.append(ranges_b);
            let bare = ProfileCollection::clean_clean(bare_a, bare_b).without_text();
            prop_assert_eq!(bare.separator(), full.separator());
            prop_assert_eq!(ranges.merge(ctx), expected.clone());
        }
    }

    #[test]
    fn loader_equals_reference_at_every_worker_count(text in jsonl()) {
        assert_loads_like_reference(&text)?;
    }

    #[test]
    fn valid_object_lines_always_load(
        lines in prop::collection::vec(object_line(), 1..10),
    ) {
        let text = lines.join("\n");
        let loaded = profiles_from_json_lines(&text, SourceId(0), "id");
        prop_assert!(loaded.is_ok(), "{:?}", loaded.err());
        assert_loads_like_reference(&text)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Byte soup biased towards JSON punctuation.
        const PUNCT: &[u8] = b"{}[]\":,\\ \n\r0123456789-eE.tfnu";
        let text: String = String::from_utf8_lossy(
            &bytes
                .iter()
                .map(|&b| if b % 2 == 0 { PUNCT[(b as usize / 2) % PUNCT.len()] } else { b })
                .collect::<Vec<u8>>(),
        )
        .into_owned();
        assert_loads_like_reference(&text)?;
        assert_token_pass_like_loader(&text)?;
    }
}

#[test]
fn token_pass_reads_every_value_kind() {
    // Last duplicate wins (the first "name" is dropped, and with it
    // "dropped"), arrays give one value per element, nested objects and
    // numbers become their text, null and blank values give no token,
    // escapes decode before tokenizing, and tokens are case-folded —
    // ASCII and not. The id is no attribute.
    let text = concat!(
        "{\"name\":\"Dropped\",\"id\":\"r1\",\"name\":\"Sony BRAVIA\",\"tags\":[\"TV\",null,\"  \",7],",
        "\"spec\":{\"w\":2.5,\"c\":\"ÉCOLE\"},\"note\":\"caf\\u00e9\\tbar\",\"blank\":\"   \",\"none\":null}\n",
        "\n",
        "   \n",
        "{\"title\":\"Straße 40\",\"year\":2017}\n",
    );
    let full = profiles_from_json_lines(text, SourceId(0), "id").unwrap();
    let (dict, keys) = intern_profiles(None, &full);
    assert_eq!(
        dict.tokens().collect::<Vec<_>>(),
        ["2", "2017", "40", "5", "7", "bar", "bravia", "café", "sony", "straße", "tv", "école"]
    );
    for ctx in std::iter::once(None).chain(contexts().iter().map(Some)) {
        let (bare, ranges) = token_pass_from_json_lines(ctx, text, SourceId(0), "id").unwrap();
        let ids: Vec<&str> = bare.iter().map(|p| p.original_id.as_str()).collect();
        assert_eq!(ids, ["r1", "3"], "blank lines are counted, not loaded");
        assert_eq!(ranges.merge(ctx), (dict.clone(), keys.clone()));
    }
}

#[test]
fn token_pass_fails_like_the_loader() {
    // The first bad line wins at every worker count, with its line number.
    let mut text = String::new();
    for i in 0..40 {
        text.push_str(&format!("{{\"n\":\"V{i}\"}}\n"));
    }
    let bad = format!("{text}\"just a string\"\n{text}{{\"broken\":\n");
    let expected = profiles_from_json_lines(&bad, SourceId(0), "id")
        .unwrap_err()
        .to_string();
    assert!(
        expected.contains("line 41 is not a JSON object"),
        "{expected}"
    );
    for ctx in std::iter::once(None).chain(contexts().iter().map(Some)) {
        let err = token_pass_from_json_lines(ctx, &bad, SourceId(0), "id").unwrap_err();
        assert_eq!(err.to_string(), expected);
    }
    let (_, empty) = token_pass_from_json_lines(None, "", SourceId(0), "id").unwrap();
    let (dict, keys) = empty.merge(None);
    assert!(dict.is_empty() && keys.is_empty());
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = format!("{{\"a\":{}1{}}}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(profiles_from_json_lines(&deep, SourceId(0), "id").is_err());
    assert!(parse_json(&"[".repeat(100_000)).is_err());
}

#[test]
fn chunked_load_keeps_line_numbers_and_first_error() {
    // Missing ids fall back to the global line number, blank lines counted,
    // wherever the chunk boundaries fall.
    let mut text = String::new();
    for i in 0..50 {
        if i % 7 == 0 {
            text.push_str("  \r\n");
        } else {
            text.push_str(&format!("{{\"n\":\"v{i}\"}}\n"));
        }
    }
    let serial = profiles_from_json_lines(&text, SourceId(0), "id").unwrap();
    assert_eq!(serial[0].original_id, "1");
    assert_eq!(serial.last().unwrap().original_id, "48");
    for ctx in contexts() {
        assert_eq!(
            profiles_from_json_lines_on(ctx, &text, SourceId(0), "id").unwrap(),
            serial
        );
    }
    // Two bad lines: every worker count reports the first.
    let bad = format!("{text}[1]\n{text}{{\"broken\"\n");
    let expected = profiles_from_json_lines(&bad, SourceId(0), "id")
        .unwrap_err()
        .to_string();
    assert!(
        expected.contains("line 51 is not a JSON object"),
        "{expected}"
    );
    for ctx in contexts() {
        let err = profiles_from_json_lines_on(ctx, &bad, SourceId(0), "id").unwrap_err();
        assert_eq!(err.to_string(), expected);
    }
}
