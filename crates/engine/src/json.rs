//! Minimal JSON support: a value type, a streaming writer and a
//! recursive-descent parser.
//!
//! The engine persists cache entries and emits event logs as JSON, and the
//! daemon speaks it on the wire; the build container has no crates.io
//! access for `serde`, so this module implements the subset they need: the
//! full JSON value grammar, compact rendering with correct string
//! escaping, and strict parsing with byte-offset error reporting. Numbers
//! are kept as `i64` when written as integers (cache counters are
//! integral) and `f64` otherwise.
//!
//! [`JsonWriter`] is the one writer: [`Json::render`] walks a tree through
//! it, and hot serializers (event lines, cache entries, daemon responses)
//! drive it directly, without building a tree first. It copies escape-free
//! runs of a string in one step and formats integers without allocating.
//! The parser slices escape-free strings straight out of its `&str` input
//! (one allocation each, no UTF-8 re-validation), accumulates integers
//! digit by digit, and rejects nesting deeper than [`MAX_DEPTH`] so a
//! hostile line cannot exhaust the parsing thread's stack.

use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`parse`] accepts. Every document the
/// repository writes nests fewer than ten levels; the bound only stops
/// hostile input from recursing the parser off its thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer-valued number.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A member of an object, by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, when this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.value(self);
        w.finish()
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A streaming writer of compact JSON text.
///
/// Calls mirror the document: `begin_object`, then `key` and one value per
/// member, then `end_object`; arrays likewise without keys. The writer
/// places the separating commas itself. It does not check that the calls
/// are balanced — callers emit fixed shapes.
///
/// ```
/// use oolong_engine::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object().key("n").int(-3).key("xs").begin_array();
/// w.str("a\"b").null().end_array().end_object();
/// assert_eq!(w.finish(), r#"{"n":-3,"xs":["a\"b",null]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or array element follows a sibling and so
    /// needs a comma first.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// An empty writer whose buffer already holds `bytes`.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Writes a scalar token and marks a value as written.
    fn token(&mut self, text: &str) -> &mut Self {
        self.separate();
        self.out.push_str(text);
        self.comma = true;
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object member's key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        push_escaped(&mut self.out, key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.token("null")
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.token(if b { "true" } else { "false" })
    }

    /// Writes an integer.
    pub fn int(&mut self, n: i64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = n.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.separate();
        if n < 0 {
            self.out.push('-');
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
        self.comma = true;
        self
    }

    /// Writes a number. Integral values keep a `.0` so they parse back
    /// as floats; non-finite values, which JSON cannot express, become
    /// `null`.
    pub fn float(&mut self, x: f64) -> &mut Self {
        if !x.is_finite() {
            return self.null();
        }
        self.separate();
        let start = self.out.len();
        write!(self.out, "{x}").expect("writing to a String cannot fail");
        // `{}` prints integral floats without a point (and never uses an
        // exponent); keep the value re-parseable as a float.
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
        self.comma = true;
        self
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        push_escaped(&mut self.out, s);
        self.comma = true;
        self
    }

    /// Splices in one complete value rendered earlier by a `JsonWriter`,
    /// so a value that appears in several places is serialized once.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        self.token(rendered)
    }

    /// Writes a value tree.
    pub fn value(&mut self, value: &Json) -> &mut Self {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(n) => self.int(*n),
            Json::Float(x) => self.float(*x),
            Json::Str(s) => self.str(s),
            Json::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Json::Object(members) => {
                self.begin_object();
                for (key, value) in members {
                    self.key(key).value(value);
                }
                self.end_object()
            }
        }
    }
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no escape
/// are copied whole; the bytes that do are all ASCII, so every run ends on
/// a character boundary.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = inner(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        // `"` and `\` are ASCII, so every slice below starts and ends on
        // a character boundary of the (already valid UTF-8) input.
        let start = self.pos;
        let Some(len) = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
        else {
            self.pos = self.bytes.len();
            return Err(self.error("unterminated string"));
        };
        self.pos += len;
        if self.bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(self.input[start..self.pos - 1].to_string());
        }
        let mut out = String::with_capacity(len + 16);
        out.push_str(&self.input[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                }
                Some(_) => {
                    let run = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.input[run..self.pos]);
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `pos` (just past the `\`).
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let start = self.pos + 1;
                let hex = self
                    .input
                    .get(start..start + 4)
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                // Surrogate pairs are not needed by our own output; reject
                // rather than mis-decode.
                let c = char::from_u32(hex).ok_or_else(|| self.error("bad \\u escape"))?;
                out.push(c);
                self.pos += 4;
            }
            _ => return Err(self.error("bad escape")),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        // The magnitude, while it fits; `None` once it overflows.
        let mut magnitude = Some(0u64);
        while let Some(c @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(c - b'0')));
            self.pos += 1;
        }
        let has_digits = self.pos > digits_start;
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if !is_float && has_digits {
            match (negative, magnitude) {
                (false, Some(m)) if m <= i64::MAX as u64 => return Ok(Json::Int(m as i64)),
                (true, Some(m)) if m <= i64::MIN.unsigned_abs() => {
                    return Ok(Json::Int((m as i64).wrapping_neg()))
                }
                _ => {} // out of `i64` range: read as a float below
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError {
                message: "bad number".to_string(),
                offset: start,
            })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let value = Json::Object(vec![
            (
                "name".to_string(),
                Json::Str("push \"quoted\"\n".to_string()),
            ),
            ("count".to_string(), Json::Int(42)),
            ("ratio".to_string(), Json::Float(1.5)),
            (
                "flags".to_string(),
                Json::Array(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty".to_string(), Json::Object(vec![])),
        ]);
        let rendered = value.render();
        assert_eq!(parse(&rendered).expect("parses"), value);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let rendered = Json::Float(2.0).render();
        assert_eq!(parse(&rendered).expect("parses"), Json::Float(2.0));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} {}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2], "b": "x", "n": 7}"#).expect("parses");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn raw_splices_a_rendered_value() {
        let inner = Json::Array(vec![Json::Int(1), Json::Str("é".to_string())]).render();
        let mut w = JsonWriter::new();
        w.begin_array().raw(&inner).raw(&inner).end_array();
        assert_eq!(w.finish(), r#"[[1,"é"],[1,"é"]]"#);
    }
}
