//! Tokenization: the schema-agnostic "bag of words" view of values.
//!
//! The paper's schema-agnostic Token Blocking treats *every token appearing
//! anywhere in a profile* as a blocking key. Tokens here are produced the
//! way SparkER produces them: case-folded, split on any non-alphanumeric
//! character, empty fragments dropped.

/// A normalized token. Plain `String` alias kept for readability of
/// signatures across the workspace.
pub type Token = String;

/// `true` when the fragment is already a normalized token: pure ASCII with
/// no uppercase letters. Such fragments (the overwhelming majority in real
/// data) can be used verbatim, skipping Unicode case mapping.
#[inline]
fn is_lower_ascii(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

/// Lowercase one raw fragment with the cheapest applicable path: a plain
/// copy for lowercase ASCII, a byte map for other ASCII, full Unicode case
/// mapping only when needed.
fn normalize_token(s: &str) -> Token {
    if is_lower_ascii(s) {
        s.to_string()
    } else if s.is_ascii() {
        s.to_ascii_lowercase()
    } else {
        s.to_lowercase()
    }
}

/// Split `text` into normalized tokens: lower-cased maximal runs of
/// alphanumeric characters.
///
/// ```
/// use sparker_profiles::tokenize;
/// let t: Vec<_> = tokenize("SparkER: parallel Blast (2017)").collect();
/// assert_eq!(t, vec!["sparker", "parallel", "blast", "2017"]);
/// ```
pub fn tokenize(text: &str) -> impl Iterator<Item = Token> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(normalize_token)
}

/// Zero-allocation token visitor: calls `f` with each normalized token of
/// `text` as a borrowed `&str`.
///
/// Already-lowercase ASCII fragments are passed through as sub-slices of
/// `text` without copying; fragments that need case folding are normalized
/// into `scratch` (reused across calls, so a loop over many values settles
/// into zero allocations). This is the hot path behind
/// [`crate::TokenDict`] and interned blocking, where tokens are looked up
/// by `&str` and never need to be owned.
pub fn each_token(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    for frag in text.split(|c: char| !c.is_alphanumeric()) {
        if frag.is_empty() {
            continue;
        }
        if is_lower_ascii(frag) {
            f(frag);
        } else if frag.is_ascii() {
            scratch.clear();
            scratch.extend(frag.bytes().map(|b| b.to_ascii_lowercase() as char));
            f(scratch);
        } else {
            scratch.clear();
            scratch.push_str(&frag.to_lowercase());
            f(scratch);
        }
    }
}

/// The interner's hash of a normalized token's bytes: a few overlapping
/// word loads folded by 128-bit multiplies, so a token costs a handful of
/// multiplies whatever its length. Equal bytes hash equal; the interner
/// compares bytes only when two hashes match.
#[inline]
pub(crate) fn token_hash(bytes: &[u8]) -> u64 {
    const K0: u64 = 0xa076_1d64_78bd_642f;
    const K1: u64 = 0xe703_7ed1_a0b4_28db;
    let n = bytes.len();
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    let half = |i: usize| {
        u64::from(u32::from_le_bytes(
            bytes[i..i + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut seed = K0 ^ n as u64;
    let (a, b) = match n {
        0 => (0, 0),
        1..=3 => {
            let (first, mid, last) = (bytes[0], bytes[n / 2], bytes[n - 1]);
            (
                (u64::from(first) << 16) | (u64::from(mid) << 8) | u64::from(last),
                0,
            )
        }
        4..=7 => (half(0), half(n - 4)),
        8..=16 => (word(0), word(n - 8)),
        _ => {
            let mut i = 0;
            while i + 16 < n {
                seed = fold(word(i) ^ K1, word(i + 8) ^ seed);
                i += 16;
            }
            (word(n - 16), word(n - 8))
        }
    };
    fold(a ^ K1, b ^ seed) ^ seed
}

/// The folded multiply: both halves of the 128-bit product xor-ed.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a).wrapping_mul(u128::from(b));
    (p as u64) ^ ((p >> 64) as u64)
}

/// [`each_token`] for the interner: calls `f(hash, token)` with each
/// normalized token of `text` as bytes and its [`token_hash`].
///
/// The value is classified 64 bytes at a time into bitmaps — alphanumeric
/// bytes, uppercase bytes — eight bytes per word operation
/// ([`classify`]), and the tokens are read off the alphanumeric bitmap by
/// counting trailing zeros: no branch per byte. A token is copied
/// (lower-cased) into `scratch` only when the uppercase bitmap has a bit
/// inside it, and is otherwise handed over as a slice of `text`. At the
/// first block holding a non-ASCII byte, the rest of the value — from the
/// start of the token still open, or from the block's start, both just
/// after an ASCII byte — goes through [`each_token`], so Unicode
/// `is_alphanumeric` and `to_lowercase` decide there exactly as they do
/// everywhere else (U+212A KELVIN SIGN folds to `k`). Both paths split
/// ASCII the same way, so the tokens are [`each_token`]'s, in order.
#[inline]
pub(crate) fn each_token_hashed(text: &str, scratch: &mut String, mut f: impl FnMut(u64, &[u8])) {
    let bytes = text.as_bytes();
    let n = bytes.len();
    // The token still open at a block's end: its start, and whether it
    // holds an uppercase byte so far.
    let mut open: Option<(usize, bool)> = None;
    let mut base = 0;
    while base < n {
        let len = (n - base).min(64);
        let Some((mut alnum, upper)) = classify(&bytes[base..base + len]) else {
            let from = open.map_or(base, |(start, _)| start);
            each_token(&text[from..], scratch, |t| {
                f(token_hash(t.as_bytes()), t.as_bytes())
            });
            return;
        };
        if let Some((start, up)) = open {
            let run = (!alnum).trailing_zeros() as usize;
            let up = up || upper & below(run) != 0;
            if run == len {
                open = Some((start, up));
                base += len;
                continue;
            }
            emit(bytes, scratch, &mut f, start, base + run, up);
            open = None;
            alnum &= !below(run);
        }
        while alnum != 0 {
            let start = alnum.trailing_zeros() as usize;
            let end = start + (!(alnum >> start)).trailing_zeros() as usize;
            let up = upper & below(end) & !below(start) != 0;
            if end == len {
                open = Some((base + start, up));
                break;
            }
            emit(bytes, scratch, &mut f, base + start, base + end, up);
            alnum &= !below(end);
        }
        base += len;
    }
    if let Some((start, up)) = open {
        emit(bytes, scratch, &mut f, start, n, up);
    }
}

/// Hand `f` the token `bytes[start..end]` and its hash, lower-cased into
/// `scratch` first when it holds an uppercase byte.
#[inline(always)]
fn emit(
    bytes: &[u8],
    scratch: &mut String,
    f: &mut impl FnMut(u64, &[u8]),
    start: usize,
    end: usize,
    upper: bool,
) {
    let token = &bytes[start..end];
    if upper {
        scratch.clear();
        scratch.extend(token.iter().map(|&b| char::from(b.to_ascii_lowercase())));
        f(token_hash(scratch.as_bytes()), scratch.as_bytes());
    } else {
        f(token_hash(token), token);
    }
}

/// The bits below bit `k` (all 64 from `k = 64` on).
#[inline(always)]
fn below(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
    }
}

/// One block of at most 64 bytes as bitmaps — bit `k` of the first set
/// when byte `k` is ASCII alphanumeric, of the second when it is ASCII
/// uppercase — or `None` when the block holds a non-ASCII byte.
#[inline(always)]
fn classify(block: &[u8]) -> Option<(u64, u64)> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    // Per byte of an ASCII word: the high bit set iff the byte is in
    // `lo..=hi` (no byte carries into the next, as every byte is < 0x80).
    let within = |x: u64, lo: u8, hi: u8| {
        x.wrapping_add(LO * u64::from(0x80 - lo)) & !x.wrapping_add(LO * u64::from(0x7f - hi)) & HI
    };
    // The high bit of every byte, gathered into the low eight bits.
    let gather = |m: u64| (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
    let (mut alnum, mut upper, mut wide) = (0u64, 0u64, 0u64);
    let words = block.chunks_exact(8);
    let tail = words.remainder();
    let padded = (!tail.is_empty()).then(|| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(word)
    });
    let words = words.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    for (k, x) in words.chain(padded).enumerate() {
        wide |= x;
        let letter = within(x | (LO * 0x20), b'a', b'z');
        let digit = within(x, b'0', b'9');
        alnum |= gather(letter | digit) << (8 * k);
        upper |= gather(within(x, b'A', b'Z')) << (8 * k);
    }
    (wide & HI == 0).then_some((alnum, upper))
}

/// Like [`tokenize`] but drops tokens shorter than `min_len` characters.
///
/// Blocking on one-character tokens (initials, units) creates huge,
/// uninformative blocks; loaders and generators use `min_len = 1` (keep
/// everything, the paper's block purging handles stop words), while some
/// matchers prefer `min_len = 2`.
pub fn tokenize_filtered(text: &str, min_len: usize) -> impl Iterator<Item = Token> + '_ {
    tokenize(text).filter(move |t| t.chars().count() >= min_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_folds_case() {
        let t: Vec<Token> = tokenize("L. Gagliardelli, Simonini et-al").collect();
        assert_eq!(t, vec!["l", "gagliardelli", "simonini", "et", "al"]);
    }

    #[test]
    fn empty_and_symbol_only_strings_yield_nothing() {
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("!!! --- ???").count(), 0);
    }

    #[test]
    fn digits_are_tokens() {
        let t: Vec<Token> = tokenize("year = {2017}").collect();
        assert_eq!(t, vec!["year", "2017"]);
    }

    #[test]
    fn unicode_words_survive() {
        let t: Vec<Token> = tokenize("Modène café").collect();
        assert_eq!(t, vec!["modène", "café"]);
    }

    #[test]
    fn filtered_drops_short_tokens() {
        let t: Vec<Token> = tokenize_filtered("a bc def", 2).collect();
        assert_eq!(t, vec!["bc", "def"]);
    }

    /// Collect `each_token` output to compare against the iterator path.
    fn visit(text: &str) -> Vec<Token> {
        let mut scratch = String::new();
        let mut out = Vec::new();
        each_token(text, &mut scratch, |t| out.push(t.to_string()));
        out
    }

    #[test]
    fn each_token_matches_tokenize() {
        for text in [
            "Sony BRAVIA kdl-40 (2014)",
            "already lowercase ascii",
            "Modène CAFÉ mixed ÉTÉ",
            "",
            "!!! --- ???",
            "ǅungla mixed Titlecase",
        ] {
            assert_eq!(visit(text), tokenize(text).collect::<Vec<_>>(), "{text:?}");
        }
    }

    #[test]
    fn hashed_tokens_are_each_tokens_with_their_hashes() {
        let long = "LongTokenSpanningBlocks".repeat(4);
        let texts = [
            String::new(),
            "Sony BRAVIA kdl-40 (2014)".to_string(),
            "plain tokens 123".to_string(),
            "ALL CAPS RUN".to_string(),
            "\u{212A}elvin \u{130}stanbul \u{1C5}ungla".to_string(),
            "ab\u{663}cd ef".to_string(),
            format!("{long} tail"),
            format!("x {long}"),
            // A token ending exactly at a block's end, and one starting at
            // the next block's start.
            format!("{} b", "a".repeat(63)),
            format!("{} {}", "a".repeat(63), "B".repeat(70)),
            format!("{}é{}", "a".repeat(70), "Z".repeat(10)),
            format!("{} É{}", "A".repeat(64), "z"),
            " ".repeat(130),
        ];
        for text in &texts {
            let mut scratch = String::new();
            let mut hashed = Vec::new();
            each_token_hashed(text, &mut scratch, |h, t| {
                assert_eq!(h, token_hash(t), "{text:?}");
                hashed.push(String::from_utf8(t.to_vec()).unwrap());
            });
            assert_eq!(hashed, visit(text), "{text:?}");
        }
    }

    #[test]
    fn token_hash_reads_every_byte() {
        // Tokens that differ in one byte, at every position of every
        // length up to 40, hash apart.
        for len in 1..=40 {
            let base = vec![b'a'; len];
            for i in 0..len {
                let mut other = base.clone();
                other[i] = b'b';
                assert_ne!(token_hash(&base), token_hash(&other), "len {len} byte {i}");
            }
        }
        assert_ne!(token_hash(b"a"), token_hash(b"aa"));
    }

    #[test]
    fn ascii_fast_path_is_verbatim() {
        // A lowercase-ASCII-only string must come through unchanged
        // (exercises the no-allocation borrow path).
        assert_eq!(visit("plain tokens 123"), vec!["plain", "tokens", "123"]);
        // Mixed-case ASCII takes the byte-map path.
        assert_eq!(visit("MiXeD"), vec!["mixed"]);
    }
}
