//! Parsers of outside input never panic: CSV text, pipeline config files,
//! `--weight-filter` expressions and supervised-model JSON answer any
//! input — arbitrary bytes read as lossy UTF-8, or a soup of the tokens
//! each grammar is built from — with `Ok` or `Err`.

use proptest::prelude::*;
use sparker::metablocking::LinearModel;
use sparker::profiles::parse_csv;
use sparker::{PipelineConfig, WeightFilter};

/// Arbitrary bytes, every other one swapped for a byte of `punct`, read as
/// lossy UTF-8.
fn byte_soup(punct: &'static [u8]) -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..200).prop_map(move |bytes| {
        let mixed: Vec<u8> = bytes
            .iter()
            .map(|&b| {
                if b % 2 == 0 {
                    punct[(b as usize / 2) % punct.len()]
                } else {
                    b
                }
            })
            .collect();
        String::from_utf8_lossy(&mixed).into_owned()
    })
}

/// Tokens of a grammar, concatenated in any order and number.
fn token_soup(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(tokens.to_vec()), 0..40).prop_map(|t| t.concat())
}

const CSV_PUNCT: &[u8] = b"\",;\n\r a1";
const CSV_TOKENS: &[&str] = &[
    "\"", "\"\"", ",", ";", "\n", "\r\n", "\r", " ", "id", "x", "é",
];

const CONFIG_PUNCT: &[u8] = b"=#\n .-0123456789abcdefghilmnoprstuwxyzABCEFNOPRSW";
const CONFIG_TOKENS: &[&str] = &[
    "\n",
    " ",
    "=",
    "#",
    "loose_schema",
    "lsh.num_hashes",
    "lsh.bands",
    "lsh.threshold",
    "lsh.seed",
    "purge",
    "filter",
    "meta_blocking",
    "mb.scheme",
    "mb.model",
    "mb.entropy",
    "mb.pruning",
    "matcher.measure",
    "matcher.threshold",
    "clustering",
    "on",
    "off",
    "oversized",
    "comparison",
    "WEP",
    "CEP",
    "WNP",
    "CNP",
    "auto",
    "reciprocal",
    "SUPERVISED",
    "CBS",
    "ARCS",
    "true",
    "false",
    "0",
    "1",
    "0.5",
    "-1",
    "1e309",
    "NaN",
    "inf",
    "18446744073709551616",
    "{\"bias\":0,\"weights\":[]}",
];

/// `key = value` lines drawn from the config grammar's own tokens, so the
/// per-key value parsers (not only the line splitter) see odd input.
fn config_lines() -> impl Strategy<Value = String> {
    let token = || prop::sample::select(CONFIG_TOKENS.to_vec());
    prop::collection::vec((token(), token(), token()), 0..12).prop_map(|lines| {
        lines
            .iter()
            .map(|(k, v, w)| format!("{k} = {v} {w}\n"))
            .collect()
    })
}

const FILTER_PUNCT: &[u8] = b"w<>=!. -+0123456789eEinfaN";
const FILTER_TOKENS: &[&str] = &[
    "w", " ", ">=", ">", "<=", "<", "==", "!=", "=", "0.2", "-1", "1e309", "NaN", "inf", "x",
];

const JSON_PUNCT: &[u8] = b"{}[]\":, \n-+.0123456789eE";
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\"bias\"",
    "\"weights\"",
    "bias",
    "weights",
    "0",
    "1.5",
    "-2e3",
    "1e309",
    "NaN",
    "null",
    "\\",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_csv_never_panics(bytes in byte_soup(CSV_PUNCT), soup in token_soup(CSV_TOKENS)) {
        for text in [&bytes, &soup] {
            for separator in [',', ';'] {
                let _ = parse_csv(text, separator);
            }
        }
    }

    #[test]
    fn config_parser_never_panics(
        bytes in byte_soup(CONFIG_PUNCT),
        soup in token_soup(CONFIG_TOKENS),
        lines in config_lines(),
    ) {
        for text in [&bytes, &soup, &lines] {
            let _ = PipelineConfig::from_config_string(text);
        }
    }

    #[test]
    fn weight_filter_parser_never_panics(
        bytes in byte_soup(FILTER_PUNCT),
        soup in token_soup(FILTER_TOKENS),
    ) {
        let _ = WeightFilter::parse(&bytes);
        let _ = WeightFilter::parse(&soup);
    }

    #[test]
    fn model_json_parser_never_panics(
        bytes in byte_soup(JSON_PUNCT),
        soup in token_soup(JSON_TOKENS),
    ) {
        let _ = LinearModel::from_json(&bytes);
        let _ = LinearModel::from_json(&soup);
    }
}
