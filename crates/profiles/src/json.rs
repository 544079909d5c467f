//! Minimal JSON parser and profile loader.
//!
//! SparkER's loaders accept JSON datasets (one object per line). To keep the
//! workspace on the allowed dependency set, this is a small hand-rolled
//! recursive-descent parser covering the full JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null).
//!
//! Loading is on the critical path of a batch run, so the scan touches
//! every byte a bounded number of times: the end of a string is found
//! eight bytes at a time, a string with no escape is kept as a span of the
//! line (only strings holding a `\` and non-string values are decoded
//! into a buffer), and [`profiles_from_json_lines`] walks each line's
//! object straight into a [`Profile`] instead of building a [`JsonValue`]
//! tree first. [`profiles_from_json_lines_on`] splits the text at newline
//! boundaries and parses the chunks on the engine's worker pool.
//! [`token_pass_from_json_lines`] runs the same chunks as the token pass
//! of a run that reads no attribute text: each value is tokenized and
//! interned straight from its span, and only the profiles' ids and sources
//! are kept.

use crate::dict::{InternedRanges, RangeBuilder, RangePass};
use crate::error::{Error, Result};
use crate::profile::{Profile, SourceId};
use sparker_dataflow::Context;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Mutex;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so
/// serialization and iteration are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value as attribute text: strings verbatim, scalars via
    /// `Display`, arrays/objects recursively space-joined. ER treats all
    /// values as text.
    pub fn to_text(&self) -> String {
        match self {
            JsonValue::Null => String::new(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) => format_number(*n),
            JsonValue::String(s) => s.clone(),
            JsonValue::Array(items) => items
                .iter()
                .map(JsonValue::to_text)
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" "),
            JsonValue::Object(map) => map
                .values()
                .map(JsonValue::to_text)
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for JsonValue {
    /// Serialize back to JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write!(f, "{}", format_number(*n)),
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Nesting depth at which the parser gives up with an error instead of
/// recursing further, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: &str) -> Error {
        Error::Json {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the value just parsed.
    fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Consume the opening bracket `b` of an object or array, one level
    /// deeper; [`Parser::leave`] undoes the level.
    fn enter(&mut self, b: u8) -> Result<()> {
        self.expect(b)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// After a member or element: `true` on `,` (another one follows),
    /// `false` on the closing bracket `close`, an error otherwise.
    fn next_member(&mut self, close: u8, message: &str) -> Result<bool> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(message)),
        }
    }

    /// `true` (and the bracket consumed) when the container just opened is
    /// empty.
    fn closes_empty(&mut self, close: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        let mut map = BTreeMap::new();
        let mut decoded = String::new();
        self.members(&mut decoded, |p, decoded, key| {
            let key = key.text(p.text, decoded).to_string();
            decoded.clear();
            let value = p.value()?;
            map.insert(key, value);
            Ok(())
        })?;
        Ok(JsonValue::Object(map))
    }

    /// Walk one object, handing each key to `member`, which must consume
    /// the member's value. The one object grammar both [`parse_json`] and
    /// the profile loader run; a key that holds an escape is decoded into
    /// `decoded`, any other is a span of the text.
    fn members(
        &mut self,
        decoded: &mut String,
        mut member: impl FnMut(&mut Self, &mut String, Span) -> Result<()>,
    ) -> Result<()> {
        self.enter(b'{')?;
        if !self.closes_empty(b'}') {
            loop {
                self.skip_ws();
                let key = self.string_span(decoded)?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                member(self, decoded, key)?;
                if !self.next_member(b'}', "expected ',' or '}' in object")? {
                    break;
                }
            }
        }
        self.leave();
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue> {
        let mut items = Vec::new();
        self.elements(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// Walk one array, calling `element` to consume each element.
    fn elements(&mut self, mut element: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.enter(b'[')?;
        if !self.closes_empty(b']') {
            loop {
                self.skip_ws();
                element(self)?;
                if !self.next_member(b']', "expected ',' or ']' in array")? {
                    break;
                }
            }
        }
        self.leave();
        Ok(())
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<String> {
        let mut out = String::new();
        self.expect(b'"')?;
        self.string_rest(&mut out)?;
        Ok(out)
    }

    /// A string literal as a [`Span`]: of the text when it holds no
    /// escape — nothing is copied — and otherwise of `decoded`, where it is
    /// unescaped.
    fn string_span(&mut self, decoded: &mut String) -> Result<Span> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = quote_or_backslash(self.bytes, start);
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Ok(Span::raw(start, self.pos - 1))
            }
            None => Err(self.err("unterminated string")),
            Some(_) => {
                let from = decoded.len();
                decoded.push_str(&self.text[start..self.pos]);
                self.escape(decoded)?;
                self.string_rest(decoded)?;
                Ok(Span::decoded(from, decoded.len()))
            }
        }
    }

    /// The rest of a string literal from just inside its quotes (or just
    /// after an escape), unescaped and appended to `out`. Runs free of `"`
    /// and `\` are copied as whole slices: both are ASCII, so a run always
    /// ends on a char boundary and the scan stays linear in the input.
    fn string_rest(&mut self, out: &mut String) -> Result<()> {
        loop {
            let start = self.pos;
            self.pos = quote_or_backslash(self.bytes, start);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.escape(out)?,
            }
        }
    }

    /// One backslash escape, appended to `out`.
    fn escape(&mut self, out: &mut String) -> Result<()> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pair handling for non-BMP chars.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| self.err("bad codepoint"))?
                } else {
                    char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?
                };
                out.push(c);
                return Ok(()); // hex4 already advanced pos
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }

    /// A value as attribute text — [`JsonValue::to_text`] without
    /// building a tree for the common string case: a string is read as
    /// its [`Span`], any other value rendered into `decoded`.
    fn text_span(&mut self, decoded: &mut String) -> Result<Span> {
        if self.peek() == Some(b'"') {
            self.string_span(decoded)
        } else {
            let from = decoded.len();
            decoded.push_str(&self.value()?.to_text());
            Ok(Span::decoded(from, decoded.len()))
        }
    }
}

/// The index of the first `"` or `\` in `bytes` at or after `from`, or
/// `bytes.len()`: eight bytes per step, each word tested for both bytes at
/// once (a byte equal to the sought one is a zero byte of the xor, and the
/// lowest zero byte of a word is the lowest one flagged).
#[inline]
fn quote_or_backslash(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |x: u64| x.wrapping_sub(LO) & !x & HI;
    let mut i = from;
    while let Some(word) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let hit = zero_bytes(w ^ (LO * u64::from(b'"'))) | zero_bytes(w ^ (LO * u64::from(b'\\')));
        if hit != 0 {
            return i + hit.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != b'"' && bytes[i] != b'\\' {
        i += 1;
    }
    i
}

/// Load profiles from JSON-lines text: one object per non-empty line; every
/// key becomes an attribute (arrays become one attribute per element), with
/// `id_key` (when present) used as the original id.
///
/// Attributes come out in key order, and a repeated key keeps its last
/// value; a nested value becomes its [`JsonValue::to_text`], `null` an
/// empty (dropped) value. A line without `id_key` takes its 0-based line
/// number, blank lines counted. Each line is scanned once, straight into
/// the profile — no [`JsonValue`] tree is built for it.
pub fn profiles_from_json_lines(
    text: &str,
    source: SourceId,
    id_key: &str,
) -> Result<Vec<Profile>> {
    json_lines_from(text, 0, source, id_key)
}

/// [`profiles_from_json_lines`] on the context's worker pool: the text is
/// cut at newline boundaries into one chunk per worker, the chunks are
/// parsed concurrently and concatenated in order. Identical output (and
/// the same first error) at any worker count.
pub fn profiles_from_json_lines_on(
    ctx: &Context,
    text: &str,
    source: SourceId,
    id_key: &str,
) -> Result<Vec<Profile>> {
    let chunks = on_line_chunks(Some(ctx), text, |chunk, first_line| {
        json_lines_from(chunk, first_line, source, id_key)
    })?;
    Ok(chunks.concat())
}

/// The token pass of a JSON-lines source, fused into its parse, for a run
/// that reads no attribute text: the same lines, grammar, key order,
/// last-duplicate-wins rule, ids and errors as [`profiles_from_json_lines`],
/// but every attribute value is tokenized and interned into its chunk's
/// [`crate::DictBuilder`] straight from its span of the line, each token
/// counted once per profile, and no value is kept. Returns
/// the *bare* profiles — original id and source, no attributes — and the
/// chunks' unmerged pass; [`InternedRanges::merge`] (after
/// [`InternedRanges::append`]ing a second source's) gives exactly what
/// [`crate::intern_profiles`] gives over the profiles
/// [`profiles_from_json_lines`] loads. With a context the chunks are cut
/// and parsed as in [`profiles_from_json_lines_on`].
pub fn token_pass_from_json_lines(
    ctx: Option<&Context>,
    text: &str,
    source: SourceId,
    id_key: &str,
) -> Result<(Vec<Profile>, InternedRanges)> {
    let chunks = on_line_chunks(ctx, text, |chunk, first_line| {
        token_lines_from(chunk, first_line, source, id_key)
    })?;
    let mut profiles = Vec::new();
    let mut ranges = Vec::with_capacity(chunks.len());
    for (mut chunk, range) in chunks {
        // The first chunk's vector is grown rather than copied.
        if profiles.is_empty() {
            profiles = chunk;
        } else {
            profiles.append(&mut chunk);
        }
        ranges.push(range);
    }
    Ok((profiles, InternedRanges { ranges }))
}

/// Run `parse(chunk, first_line)` over the text cut into one chunk per
/// worker of `ctx` (the whole text on the calling thread without a
/// context or with one worker), returning the chunks' outputs in order,
/// or the first chunk's error.
fn on_line_chunks<T: Send>(
    ctx: Option<&Context>,
    text: &str,
    parse: impl Fn(&str, usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let (ctx, chunks) = match ctx {
        Some(ctx) if ctx.workers() > 1 => (ctx, line_chunks(text, ctx.workers())),
        _ => return Ok(vec![parse(text, 0)?]),
    };
    if chunks.len() < 2 {
        return Ok(vec![parse(text, 0)?]);
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    ctx.parallelize((0..chunks.len()).collect(), chunks.len())
        .for_each(|&i| {
            let (chunk, first_line) = chunks[i];
            let parsed = parse(chunk, first_line);
            *slots[i].lock().expect("no chunk panics holding its slot") = Some(parsed);
        });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no chunk panics holding its slot")
                .expect("every chunk ran")
        })
        .collect()
}

/// Cut `text` into at most `parts` chunks, each ending just after a
/// newline (the last at the end of the text), paired with the 0-based
/// line number the chunk starts at.
fn line_chunks(text: &str, parts: usize) -> Vec<(&str, usize)> {
    let bytes = text.as_bytes();
    let mut chunks = Vec::with_capacity(parts);
    let (mut start, mut line) = (0usize, 0usize);
    for k in 1..=parts {
        let target = (bytes.len() * k / parts).max(start);
        let end = if k == parts {
            bytes.len()
        } else {
            match bytes[target..].iter().position(|&b| b == b'\n') {
                Some(i) => target + i + 1,
                None => bytes.len(),
            }
        };
        if end > start {
            chunks.push((&text[start..end], line));
            line += bytes[start..end].iter().filter(|&&b| b == b'\n').count();
            start = end;
        }
    }
    chunks
}

/// The loader over one chunk of lines, the first numbered `first_line`.
fn json_lines_from(
    text: &str,
    first_line: usize,
    source: SourceId,
    id_key: &str,
) -> Result<Vec<Profile>> {
    let mut fields = LineFields::default();
    let mut profiles = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = first_line + i;
        let line = fields.read(line, lineno)?;
        let mut b = Profile::builder(source, line.original_id(id_key, lineno));
        for (key, value) in line.attributes(id_key) {
            b = b.attr(key, value);
        }
        profiles.push(b.build());
    }
    Ok(profiles)
}

/// The text-free loader over one chunk of lines (see
/// [`token_pass_from_json_lines`]): bare profiles, and the chunk's token
/// pass sealed as one range.
fn token_lines_from(
    text: &str,
    first_line: usize,
    source: SourceId,
    id_key: &str,
) -> Result<(Vec<Profile>, RangePass)> {
    let mut fields = LineFields::default();
    let mut range = RangeBuilder::default();
    let mut profiles = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = first_line + i;
        let line = fields.read(line, lineno)?;
        profiles.push(Profile::builder(source, line.original_id(id_key, lineno)).build());
        for (_, value) in line.attributes(id_key) {
            range.tokens(value);
        }
        range.end_profile();
    }
    Ok((profiles, range.seal()))
}

/// A key or value text of a line: a span of the line itself when the
/// string holds no escape, else of [`LineFields::decoded`].
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    end: usize,
    raw: bool,
}

impl Span {
    fn raw(start: usize, end: usize) -> Self {
        Span {
            start,
            end,
            raw: true,
        }
    }

    fn decoded(start: usize, end: usize) -> Self {
        Span {
            start,
            end,
            raw: false,
        }
    }

    /// The text behind the span: of `line` when raw, of `decoded`
    /// otherwise.
    fn text<'s>(self, line: &'s str, decoded: &'s str) -> &'s str {
        let from = if self.raw { line } else { decoded };
        &from[self.start..self.end]
    }
}

/// One object member of a line: its key and value texts (an array has one
/// value text per element).
struct Member {
    key: Span,
    items: Range<usize>,
    array: bool,
}

/// One JSON-lines object reduced to attribute texts, in buffers reused
/// from line to line: every key and value as a [`Span`] — of the line
/// itself, or of `decoded` for the strings that hold an escape and the
/// values that are no string — and the members that survive the
/// duplicate-key rule in key order. What both the profile loader and the
/// text-free pass read a line into.
#[derive(Default)]
struct LineFields {
    decoded: String,
    /// Value texts, member after member.
    items: Vec<Span>,
    members: Vec<Member>,
    /// Indices into `members` of the last member of each key, key-sorted.
    kept: Vec<usize>,
}

/// A line read by [`LineFields::read`], with the buffers it was read into.
#[derive(Clone, Copy)]
struct Line<'a> {
    line: &'a str,
    fields: &'a LineFields,
}

impl LineFields {
    /// Read one non-blank line (0-based number `lineno`), or fail with the
    /// error the loader reports for it.
    fn read<'a>(&'a mut self, line: &'a str, lineno: usize) -> Result<Line<'a>> {
        let LineFields {
            decoded,
            items,
            members,
            kept,
        } = self;
        decoded.clear();
        items.clear();
        members.clear();
        let mut p = Parser::new(line);
        p.skip_ws();
        if p.peek() != Some(b'{') {
            // Malformed JSON reports its own error; valid JSON is no object.
            parse_json(line)?;
            return Err(Error::Json {
                message: format!("line {} is not a JSON object", lineno + 1),
                offset: 0,
            });
        }
        p.members(decoded, |p, decoded, key| {
            let first = items.len();
            let array = p.peek() == Some(b'[');
            if array {
                p.elements(|p| {
                    items.push(p.text_span(decoded)?);
                    Ok(())
                })?;
            } else {
                items.push(p.text_span(decoded)?);
            }
            members.push(Member {
                key,
                items: first..items.len(),
                array,
            });
            Ok(())
        })?;
        p.finish()?;

        // Key order, the last of a repeated key winning: a stable sort keeps
        // equal keys in input order, and only the last of each run is kept.
        // Distinct keys written in order (the common case) are kept as
        // they are.
        let key = |m: usize| members[m].key.text(line, decoded);
        kept.clear();
        kept.extend(0..members.len());
        if kept.is_sorted_by(|&a, &b| key(a) < key(b)) {
            return Ok(Line { line, fields: self });
        }
        kept.sort_by(|&a, &b| key(a).cmp(key(b)));
        let mut w = 0;
        for r in 0..kept.len() {
            if kept
                .get(r + 1)
                .is_none_or(|&next| key(next) != key(kept[r]))
            {
                kept[w] = kept[r];
                w += 1;
            }
        }
        kept.truncate(w);
        Ok(Line { line, fields: self })
    }
}

impl<'a> Line<'a> {
    fn text(self, span: Span) -> &'a str {
        span.text(self.line, &self.fields.decoded)
    }

    /// The original id: the `id_key` member's text (an array's non-empty
    /// element texts space-joined), else the line number.
    fn original_id(self, id_key: &str, lineno: usize) -> String {
        let Some(m) = self.kept_members().find(|m| self.text(m.key) == id_key) else {
            return lineno.to_string();
        };
        let texts = self.fields.items[m.items.clone()]
            .iter()
            .map(|&item| self.text(item));
        if m.array {
            texts
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join(" ")
        } else {
            texts.collect()
        }
    }

    /// The attributes as `(key, value text)`: every value of every kept
    /// member but the id, in key order.
    fn attributes(self, id_key: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        self.kept_members()
            .filter(move |m| self.text(m.key) != id_key)
            .flat_map(move |m| {
                self.fields.items[m.items.clone()]
                    .iter()
                    .map(move |&item| (self.text(m.key), self.text(item)))
            })
    }

    fn kept_members(self) -> impl Iterator<Item = &'a Member> + 'a {
        let fields = self.fields;
        fields.kept.iter().map(move |&i| &fields.members[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse_json("-3.5e2").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            JsonValue::String("hi".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        let JsonValue::Object(map) = &v else { panic!() };
        assert_eq!(map.len(), 2);
        let JsonValue::Array(items) = &map["a"] else {
            panic!()
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let input = r#""line\nbreak \"quoted\" tab\t back\\slash""#;
        let v = parse_json(input).unwrap();
        assert_eq!(
            v.as_str().unwrap(),
            "line\nbreak \"quoted\" tab\t back\\slash"
        );
        // Display re-escapes; reparsing gives the same value.
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_incl_surrogates() {
        assert_eq!(parse_json(r#""é""#).unwrap().as_str().unwrap(), "é");
        assert_eq!(parse_json(r#""😀""#).unwrap().as_str().unwrap(), "😀");
        assert!(parse_json(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_json("{\"a\": }").unwrap_err();
        assert!(matches!(err, Error::Json { .. }));
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("12 34").is_err(), "trailing data");
        assert!(parse_json("").is_err());
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse_json(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        let JsonValue::Object(map) = v else { panic!() };
        assert_eq!(
            map["a"],
            JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)])
        );
    }

    #[test]
    fn display_serializes_sorted_keys() {
        let v = parse_json(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn to_text_flattens() {
        let v = parse_json(r#"{"authors":["A. One","B. Two"],"year":2017,"ok":true}"#).unwrap();
        assert_eq!(v.to_text(), "A. One B. Two true 2017");
        assert_eq!(JsonValue::Null.to_text(), "");
        assert_eq!(JsonValue::Number(2.5).to_text(), "2.5");
    }

    #[test]
    fn profiles_from_json_lines_basic() {
        let text = concat!(
            "{\"realId\":\"b1\",\"title\":\"Blast\",\"authors\":[\"Simonini\",\"Bergamaschi\"]}\n",
            "\n",
            "{\"title\":\"SparkER\",\"year\":2017}\n",
        );
        let ps = profiles_from_json_lines(text, SourceId(0), "realId").unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].original_id, "b1");
        let authors: Vec<&str> = ps[0].values_of("authors").collect();
        assert_eq!(authors, vec!["Simonini", "Bergamaschi"]);
        assert_eq!(
            ps[1].original_id, "2",
            "missing id falls back to line number"
        );
        assert_eq!(ps[1].value_of("year"), Some("2017"));
    }

    #[test]
    fn non_object_line_is_error() {
        assert!(profiles_from_json_lines("[1,2]\n", SourceId(0), "id").is_err());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(2.0), "2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(-0.0), "0");
    }
}
