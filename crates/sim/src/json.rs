//! Minimal JSON document model with a writer and a recursive-descent
//! parser.
//!
//! The build environment has no registry access, so the observability
//! layer (trace export, run snapshots) serialises through this module
//! instead of serde. It supports the full JSON grammar with two
//! deliberate simplifications: numbers are carried as `f64` (exact for
//! integers up to 2^53, far beyond any counter this simulator produces
//! in practice), and object key order is preserved as written rather
//! than hashed, so output is deterministic and diffs are stable.
//!
//! Records that are written far more often than they are read — trace
//! events, telemetry windows, audit entries, one JSONL line each — skip
//! the document model on the way out: a [`JsonWriter`] appends the same
//! bytes [`JsonValue::to_compact`] would produce straight into a reused
//! buffer, through the same number and string formatters, so a line
//! costs its bytes and no allocation.
//!
//! Both write bytes: integers come two digits at a time from a table, and
//! the text is checked to be UTF-8 once, when a whole document or buffer
//! becomes a `String`, not once per number.

use std::fmt;
use std::io::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object value from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, None, 0);
        utf8(out)
    }

    /// Serialise with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(2), 0);
        utf8(out)
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.extend_from_slice(b"null"),
            JsonValue::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            JsonValue::Num(n) => write_num(out, *n),
            JsonValue::Str(s) => write_str(out, s),
            JsonValue::Array(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(b']');
            }
            JsonValue::Object(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(b'}');
            }
        }
    }

    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Num(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<u32> for JsonValue {
    fn from(n: u32) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Num(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

/// The written bytes as text. Every formatter here appends either ASCII
/// or the bytes of a `&str`, so this cannot fail; it is the one UTF-8
/// check a document or buffer pays.
fn utf8(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("JSON text is UTF-8")
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push(b'\n');
        out.resize(out.len() + w * depth, b' ');
    }
}

/// The largest magnitude below which every integer is an exact `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

fn write_num(out: &mut Vec<u8>, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.extend_from_slice(b"null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
        write_int(out, n as i64);
    } else {
        write!(out, "{n}").expect("writing to a Vec cannot fail");
    }
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Decimal digits of `n`, as `{}` prints them, without the `fmt`
/// machinery — nearly every number the observers write is a counter.
fn write_int(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_digits(out, n.unsigned_abs());
}

/// Decimal digits of `n`, two per division.
fn write_digits(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n;
    while rest >= 100 {
        let pair = 2 * (rest % 100) as usize;
        rest /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = 2 * rest as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Whether `b` cannot appear as itself inside a JSON string. Every such
/// byte is ASCII, so cutting a `str` around one stays on character
/// boundaries.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Runs that need no escaping are copied whole — for the names and
    // labels this crate writes, that is the entire string.
    let mut rest = s.as_bytes();
    while let Some(i) = rest.iter().position(|&b| needs_escape(b)) {
        out.extend_from_slice(&rest[..i]);
        match rest[i] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
        }
        rest = &rest[i + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

/// A scalar a [`JsonWriter`] can emit. Integers print as their `From`
/// conversions into [`JsonValue`] would — widened to `f64`, so above 2^53
/// both routes round the same way.
pub trait JsonScalar {
    /// Appends the value's compact JSON form to `out`.
    fn write_json(self, out: &mut Vec<u8>);
}

impl JsonScalar for f64 {
    fn write_json(self, out: &mut Vec<u8>) {
        write_num(out, self);
    }
}

impl JsonScalar for u64 {
    fn write_json(self, out: &mut Vec<u8>) {
        // Up to 2^53 the widening is exact and `write_num` would print
        // these same digits; past it, let it round as a document would.
        if self <= MAX_EXACT_INT as u64 {
            write_digits(out, self);
        } else {
            write_num(out, self as f64);
        }
    }
}

impl JsonScalar for u32 {
    fn write_json(self, out: &mut Vec<u8>) {
        write_digits(out, u64::from(self));
    }
}

impl JsonScalar for usize {
    fn write_json(self, out: &mut Vec<u8>) {
        (self as u64).write_json(out);
    }
}

impl JsonScalar for &str {
    fn write_json(self, out: &mut Vec<u8>) {
        write_str(out, self);
    }
}

/// 10¹⁵. Two decimals of at most 15 significant digits (`f64::DIGITS`)
/// never round to the same `f64`, so one that short is the shortest
/// round-trip form of the float it rounds to — what `{}` prints.
const RATIO_SCALE: u64 = 1_000_000_000_000_000;

/// Streams compact JSON into a buffer it owns, token by token: the bytes
/// of `JsonValue::obj(..).to_compact()` without building the value.
///
/// The writer only tracks where commas go; the caller is trusted to
/// balance `begin_*` / `end_*` and to alternate keys and values inside
/// objects (each record type's unit tests compare its streamed bytes with
/// its tree form). A record whose shape is fixed may instead spell its
/// punctuation and keys out whole with [`JsonWriter::raw`] between
/// [`JsonWriter::value`]s. The buffer is meant to be reused:
/// [`JsonWriter::clear`] keeps the capacity, so after the first few
/// records a line allocates nothing.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: Vec<u8>,
    /// Whether the next key or element must be preceded by a comma.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` without reallocating.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: Vec::with_capacity(bytes),
            comma: false,
        }
    }

    fn open(&mut self, bracket: u8) {
        if self.comma {
            self.out.push(b',');
        }
        self.out.push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// Opens an object, as an array element or after [`JsonWriter::key`].
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array, as an array element or after [`JsonWriter::key`].
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Writes an object key; the next call supplies its value. Keys are
    /// this crate's own field names and are copied as they are: one that
    /// needed escaping would be a bug here, not data (debug builds check).
    pub fn key(&mut self, key: &str) {
        debug_assert!(!key.bytes().any(needs_escape), "key {key:?} needs escaping");
        if self.comma {
            self.out.push(b',');
        }
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        self.comma = false;
    }

    /// Writes one `key: scalar` pair of the innermost object.
    pub fn field(&mut self, key: &str, value: impl JsonScalar) {
        self.key(key);
        self.value(value);
    }

    /// Writes `key: num / den` — byte for byte what
    /// `field(key, num as f64 / den as f64)` writes — with integer
    /// arithmetic wherever the quotient is a short exact decimal: when
    /// `num <= den` and `den` divides 10¹⁵, `num / den` is `q / 10¹⁵` with
    /// `q = num · (10¹⁵ / den)`, at most 15 significant digits, so `{}`
    /// prints exactly those digits — `0.` and `q` zero-padded to 15 places,
    /// trailing zeros dropped (`0` and `1` as integers). Any other ratio
    /// goes through the float.
    pub fn field_ratio(&mut self, key: &str, num: u64, den: u64) {
        if den == 0 || num > den || !RATIO_SCALE.is_multiple_of(den) {
            return self.field(key, num as f64 / den as f64);
        }
        self.key(key);
        if num == 0 || num == den {
            self.out.push(if num == 0 { b'0' } else { b'1' });
        } else {
            let (mut q, mut places) = (num * (RATIO_SCALE / den), 15);
            while q.is_multiple_of(10) {
                q /= 10;
                places -= 1;
            }
            self.out.extend_from_slice(b"0.");
            let zeros = places - (q.ilog10() + 1) as usize;
            self.out.resize(self.out.len() + zeros, b'0');
            write_digits(&mut self.out, q);
        }
        self.comma = true;
    }

    /// Appends `text` exactly as given: a run of fixed JSON — punctuation,
    /// quoted keys with their colons, string literals — that a record of
    /// fixed shape writes whole instead of key by key. Commas are part of
    /// `text`: this neither writes one nor records that one is due.
    pub fn raw(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
    }

    /// Writes a scalar where a value is due — after [`JsonWriter::key`]
    /// or [`JsonWriter::raw`] text ending in a key's colon.
    pub fn value(&mut self, value: impl JsonScalar) {
        value.write_json(&mut self.out);
        self.comma = true;
    }

    /// Ends a JSONL line: a newline, and the next value starts afresh.
    pub fn end_line(&mut self) {
        self.out.push(b'\n');
        self.comma = false;
    }

    /// Everything written since the last [`JsonWriter::clear`].
    pub fn as_bytes(&self) -> &[u8] {
        &self.out
    }

    /// [`JsonWriter::as_bytes`] as text (checked, so meant for tests and
    /// diagnostics, not for every line).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.out).expect("JSON text is UTF-8")
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.out.clear();
        self.comma = false;
    }

    /// The buffer itself, as text.
    pub fn into_string(self) -> String {
        utf8(self.out)
    }
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    /// 1-based `(line, column)` of the failure inside `text` (the same
    /// document that was parsed). Columns count bytes, which matches
    /// what an editor shows for the ASCII config files this crate
    /// reads.
    pub fn line_col(&self, text: &str) -> (usize, usize) {
        let at = self.at.min(text.len());
        let prefix = &text.as_bytes()[..at];
        let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + at
            - prefix
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
        (line, col)
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not combined; snapshots never
                            // emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::str("chain \"3\"\n")),
            ("count", JsonValue::from(42u64)),
            ("ratio", JsonValue::from(0.25)),
            ("ok", JsonValue::from(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]),
            ),
            ("empty", JsonValue::Array(vec![])),
            ("empty_obj", JsonValue::Object(vec![])),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn accessors_navigate() {
        let doc = JsonValue::parse(r#"{"a": {"b": [10, 2.5, "x", false]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(10));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[1].as_u64(), None, "fractional is not a u64");
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3].as_bool(), Some(false));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parses_escapes_and_exponents() {
        let v = JsonValue::parse(r#"["A\t\"q\"", -1.5e3, 1e-2]"#).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0].as_str(), Some("A\t\"q\""));
        assert_eq!(arr[1].as_f64(), Some(-1500.0));
        assert_eq!(arr[2].as_f64(), Some(0.01));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"open", "1 2", ""] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = JsonValue::parse("[1, @]").unwrap_err();
        assert_eq!(err.at, 4);
    }

    #[test]
    fn errors_locate_line_and_column() {
        let text = "{\n  \"a\": 1,\n  \"b\": @\n}";
        let err = JsonValue::parse(text).unwrap_err();
        assert_eq!(err.line_col(text), (3, 8));
        let flat = "[1, @]";
        let err = JsonValue::parse(flat).unwrap_err();
        assert_eq!(err.line_col(flat), (1, 5));
    }

    #[test]
    fn writer_streams_the_bytes_of_the_compact_tree() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::str("chain \"3\"\n\u{1}\\ é")),
            ("count", JsonValue::from(42u64)),
            ("huge", JsonValue::from(u64::MAX)),
            ("ratio", JsonValue::from(0.25)),
            ("nan", JsonValue::from(f64::NAN)),
            (
                "items",
                JsonValue::Array(vec![
                    JsonValue::obj(vec![("id", JsonValue::from(0usize))]),
                    JsonValue::obj(vec![("id", JsonValue::from(1usize))]),
                    JsonValue::Array(vec![]),
                ]),
            ),
            ("empty", JsonValue::Object(vec![])),
            ("last", JsonValue::from(7u32)),
        ]);
        let mut w = JsonWriter::new();
        for _ in 0..2 {
            w.begin_object();
            w.field("name", "chain \"3\"\n\u{1}\\ é");
            w.field("count", 42u64);
            w.field("huge", u64::MAX);
            w.field("ratio", 0.25);
            w.field("nan", f64::NAN);
            w.key("items");
            w.begin_array();
            for id in 0..2usize {
                w.begin_object();
                w.field("id", id);
                w.end_object();
            }
            w.begin_array();
            w.end_array();
            w.end_array();
            w.key("empty");
            w.begin_object();
            w.end_object();
            w.field("last", 7u32);
            w.end_object();
            w.end_line();
        }
        let line = doc.to_compact() + "\n";
        assert_eq!(w.as_str(), format!("{line}{line}"));
        w.clear();
        assert_eq!(w.as_str(), "");
    }

    /// `field_ratio`'s bytes against `field`'s for one ratio.
    fn ratio_matches_float(num: u64, den: u64) -> Result<(), String> {
        let (mut fast, mut slow) = (JsonWriter::new(), JsonWriter::new());
        fast.field_ratio("f", num, den);
        slow.field("f", num as f64 / den as f64);
        if fast.as_bytes() == slow.as_bytes() {
            Ok(())
        } else {
            Err(format!(
                "{num}/{den}: {} vs {}",
                fast.as_str(),
                slow.as_str()
            ))
        }
    }

    #[test]
    fn ratio_prints_every_fraction_of_a_100_ms_window_as_the_float_does() {
        for num in 0..=100_000 {
            ratio_matches_float(num, 100_000).unwrap();
        }
    }

    #[test]
    fn ratio_falls_back_to_the_float_off_the_integer_path() {
        // Denominators with a prime factor other than 2 and 5, one past
        // the scale, and the degenerate cases: numerators above the
        // denominator, and a zero denominator (`null`, like NaN and inf).
        for den in [3, 7, 300_000, 1_000_000_000_000_000_000] {
            for num in [0, 1, 2, den / 3, den / 2, den - 1, den] {
                ratio_matches_float(num, den).unwrap();
            }
        }
        for (num, den) in [(2, 1), (100_001, 100_000), (u64::MAX, 4), (0, 0), (5, 0)] {
            ratio_matches_float(num, den).unwrap();
        }
        let mut w = JsonWriter::new();
        w.field_ratio("f", 5, 0);
        assert_eq!(w.as_str(), r#""f":null"#);
    }

    proptest::proptest! {
        /// Every divisor of 10^m, m ≤ 15 — `2^a · 5^b`, a, b ≤ 15 — with
        /// numerators across `0..=den`.
        #[test]
        fn ratio_over_a_divisor_of_a_power_of_ten_equals_the_float(
            a in 0u32..=15,
            b in 0u32..=15,
            pick in proptest::prelude::any::<u64>()
        ) {
            let den = 2u64.pow(a) * 5u64.pow(b);
            let num = pick % (den + 1);
            proptest::prelude::prop_assert_eq!(ratio_matches_float(num, den), Ok(()));
        }
    }

    #[test]
    fn integer_digits_match_display() {
        for n in [
            0i64,
            -1,
            9,
            10,
            -10,
            99,
            100,
            -101,
            12_345,
            1_234_567_890,
            1 << 53,
            -(1 << 53),
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = Vec::new();
            write_int(&mut out, n);
            assert_eq!(utf8(out), n.to_string());
        }
        // Both sides of the exact-integer boundary, as a document prints
        // them: 2^53 + 1 rounds to 2^53, the next values leave the
        // integer branch.
        for n in [
            (1u64 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 2,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            n.write_json(&mut out);
            assert_eq!(utf8(out), JsonValue::from(n).to_compact(), "{n}");
        }
        assert_eq!(JsonValue::Num(-0.0).to_compact(), "0");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::from(7u64).to_compact(), "7");
        assert_eq!(JsonValue::from(0.5).to_compact(), "0.5");
        assert_eq!(JsonValue::Num(f64::NAN).to_compact(), "null");
    }
}
