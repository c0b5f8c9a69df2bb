//! A minimal, dependency-free JSON value type with a parser and printer.
//!
//! Reports produced by the checking service ([`crate::session::CheckReport`])
//! must cross process boundaries — a worker answering over a socket, a batch
//! runner archiving results, CI diffing recorded verdicts — and this
//! workspace builds offline, so a hand-rolled JSON layer replaces `serde`.
//! The surface is deliberately small: the [`Json`] tree and [`Json::parse`]
//! for reading, one streaming [`JsonWriter`] for writing (reports encode
//! through it without building a tree; [`Json`]'s [`fmt::Display`] uses it
//! too), and typed accessors for destructuring.  Numbers are kept as
//! `i64`/`f64` (every quantity the reports carry — counters, indices,
//! nanoseconds — fits `i64`; means and rates use `f64`), strings support the
//! standard escapes including UTF-16 surrogate pairs, and object keys keep
//! their insertion order so output is stable and diff-friendly.

use std::fmt::{self, Write as _};

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (serialized without a decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved on both parse and print.
    Object(Vec<(String, Json)>),
}

/// What class of failure a [`JsonError`] reports.
///
/// Network input fails in two distinguishable ways: the bytes are not JSON
/// at all ([`JsonErrorKind::Syntax`] — the parser stopped at a specific byte
/// offset), or they are well-formed JSON of the wrong shape
/// ([`JsonErrorKind::Shape`] — a missing field, a wrong type, an unknown
/// enum string).  A service answering a malformed body wants to say which,
/// and for syntax errors *where*, so the client can fix its payload instead
/// of guessing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not syntactically valid JSON; [`JsonError::offset`]
    /// carries the byte position at which parsing failed.
    Syntax,
    /// The input parsed but does not have the expected structure (missing or
    /// mistyped fields, unknown discriminants, out-of-range values).
    Shape,
}

/// A parse or shape error raised by [`Json::parse`] and the typed accessors.
///
/// Syntax errors (built with [`JsonError::at`]) carry the byte offset in the
/// original input at which the parser stopped; shape errors (built with
/// [`JsonError::new`]) describe a structural mismatch in an
/// already-parsed document, where a byte offset no longer exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: Option<usize>,
    kind: JsonErrorKind,
}

impl JsonError {
    /// A shape error with the given description (no byte position: the
    /// document parsed; its structure is what's wrong).
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: None, kind: JsonErrorKind::Shape }
    }

    /// A syntax error at the given byte offset of the input.
    pub fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: Some(offset), kind: JsonErrorKind::Syntax }
    }

    /// The byte offset in the original input at which parsing failed —
    /// always `Some` for [`JsonErrorKind::Syntax`] errors, `None` for shape
    /// errors.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// Whether this is a syntax or a shape error.
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }

    /// The human-readable description (without the position prefix
    /// [`fmt::Display`] adds).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "JSON error at byte {offset}: {}", self.message),
            None => write!(f, "JSON error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object builder, used with [`Json::field`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a field to an object (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: impl Into<String>, value: Json) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.into(), value)),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// The value of `key`, if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// Like [`Json::get`], but a missing key is a [`JsonError`] naming it.
    pub fn require(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as a float (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the full input must be one value plus
    /// whitespace).  Containers may nest at most [`MAX_DEPTH`] levels —
    /// deeper documents are rejected with a [`JsonError`], so adversarial
    /// input (this layer parses data that crossed a process boundary) cannot
    /// overflow the stack of the recursive-descent parser.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::at(
                parser.pos,
                format!("trailing input ({} bytes total)", parser.bytes.len()),
            ));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut writer = JsonWriter::with_capacity(64);
        writer.value(self);
        f.write_str(writer.as_str())
    }
}

/// The one JSON serializer: appends compact JSON text to a pre-sized
/// `String`.
///
/// Every response body the workspace emits — reports, error bodies, the
/// service's job and metrics documents — is streamed through this writer
/// field by field, and [`Json`]'s [`fmt::Display`] delegates to
/// [`JsonWriter::value`], so a tree and a streamed document of the same
/// shape print the same bytes.  Callers supply structure as literal text
/// ([`JsonWriter::raw`]: braces, commas and `"key":` prefixes, whose field
/// order is the wire contract) and values through the typed methods:
///
/// - integers are written without `fmt` machinery;
/// - floats keep a decimal point or exponent, so they parse back as floats
///   (non-finite values become `null`, JSON having no NaN/Infinity);
/// - strings escape only what JSON requires: `"`, `\`, and the control
///   characters below U+0020 (`\n`, `\r`, `\t` short, the rest as
///   lower-case `\u00xx`).  DEL, U+2028 and all non-ASCII text are copied
///   verbatim, unescaped byte runs with one `push_str` each.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// A writer whose buffer starts with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> JsonWriter {
        JsonWriter { out: String::with_capacity(capacity) }
    }

    /// The text written so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// The finished document.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Appends pre-rendered JSON text verbatim: punctuation and literal
    /// `"key":` prefixes, or a document another writer finished.
    pub fn raw(&mut self, json: &str) -> &mut JsonWriter {
        self.out.push_str(json);
        self
    }

    /// Appends `null`.
    pub fn null(&mut self) -> &mut JsonWriter {
        self.raw("null")
    }

    /// Appends `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut JsonWriter {
        self.raw(if value { "true" } else { "false" })
    }

    /// Appends an integer.
    pub fn int(&mut self, value: i64) -> &mut JsonWriter {
        if value < 0 {
            self.out.push('-');
        }
        self.digits(value.unsigned_abs())
    }

    /// Appends a `u64` as a quoted decimal string — how the wire carries
    /// magnitudes that may exceed the `i64` range of JSON integers here.
    pub fn u64_str(&mut self, value: u64) -> &mut JsonWriter {
        self.out.push('"');
        self.digits(value);
        self.raw("\"")
    }

    fn digits(&mut self, mut value: u64) -> &mut JsonWriter {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
        self
    }

    /// Appends a float: Rust's shortest round-trip form, plus `.0` when that
    /// form has neither a decimal point nor an exponent; `null` when
    /// non-finite.
    pub fn float(&mut self, value: f64) -> &mut JsonWriter {
        if !value.is_finite() {
            return self.null();
        }
        let start = self.out.len();
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{value}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
        self
    }

    /// Appends a string literal, escaped as the type docs describe.
    pub fn str(&mut self, text: &str) -> &mut JsonWriter {
        self.out.push('"');
        let mut run = 0;
        for (at, &byte) in text.as_bytes().iter().enumerate() {
            if byte >= 0x20 && byte != b'"' && byte != b'\\' {
                continue;
            }
            // `at` indexes an ASCII byte, so both slices end on char
            // boundaries.
            self.out.push_str(&text[run..at]);
            run = at + 1;
            match byte {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                control => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.out.push_str("\\u00");
                    self.out.push(char::from(HEX[usize::from(control >> 4)]));
                    self.out.push(char::from(HEX[usize::from(control & 0xf)]));
                }
            }
        }
        self.out.push_str(&text[run..]);
        self.raw("\"")
    }

    /// Appends `[item, …]`, writing each element with `write`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut JsonWriter, T),
    ) -> &mut JsonWriter {
        self.out.push('[');
        for (index, item) in items.into_iter().enumerate() {
            if index > 0 {
                self.out.push(',');
            }
            write(self, item);
        }
        self.raw("]")
    }

    /// Appends a [`Json`] tree.
    pub fn value(&mut self, value: &Json) -> &mut JsonWriter {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Int(i) => self.int(*i),
            Json::Float(x) => self.float(*x),
            Json::Str(s) => self.str(s),
            Json::Array(items) => self.array(items, |w, item| {
                w.value(item);
            }),
            Json::Object(fields) => {
                self.out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        self.out.push(',');
                    }
                    self.str(key).raw(":").value(value);
                }
                self.raw("}")
            }
        }
    }
}

/// Maximum container nesting [`Json::parse`] accepts; far above any real
/// report (traces nest four levels) while keeping the recursive parser's
/// stack use bounded on hostile input.
pub const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected `{}`", byte as char)))
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => {
                Err(JsonError::at(self.pos, format!("unexpected {:?}", other.map(|b| b as char))))
            }
        }
    }

    /// Parses a container one nesting level down, rejecting documents deeper
    /// than [`MAX_DEPTH`] instead of recursing unboundedly.
    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::at(self.pos, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = container(self);
        self.depth -= 1;
        result
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
                _ => return Err(JsonError::at(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (the common case).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at(start, "invalid UTF-8 in string"))?,
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
                            let at = self.pos;
                            let unit = self
                                .hex4(at + 1)
                                .ok_or_else(|| JsonError::at(at, "bad \\u escape"))?;
                            let scalar = match unit {
                                // A high surrogate and the low surrogate
                                // escaped right after it spell one
                                // non-BMP character (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    let low = Some(at + 5)
                                        .filter(|&next| {
                                            self.bytes
                                                .get(next..)
                                                .is_some_and(|rest| rest.starts_with(b"\\u"))
                                        })
                                        .and_then(|next| self.hex4(next + 2))
                                        .filter(|low| (0xDC00..=0xDFFF).contains(low))
                                        .ok_or_else(|| JsonError::at(at, "unpaired surrogate"))?;
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                }
                                _ => unit,
                            };
                            // A lone low surrogate is no character at all.
                            let c = char::from_u32(scalar)
                                .ok_or_else(|| JsonError::at(at, "unpaired surrogate"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(JsonError::at(
                                self.pos,
                                format!("bad escape {:?}", other.map(|b| b as char)),
                            ))
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError::at(self.pos, "unterminated string")),
            }
        }
    }

    /// The code unit spelled by the four hex digits at `at`, if they are
    /// four hex digits.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.bytes.get(at..at + 4).filter(|h| h.iter().all(u8::is_ascii_hexdigit))?;
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
    }

    /// Parses a number per the JSON grammar — strictly: leading zeros
    /// (`007`), bare fractions (`1.`, `-.5`) and empty exponents are
    /// rejected rather than reinterpreted, so this parser agrees with strict
    /// producers on the other side of the process boundary about which
    /// documents are valid.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        if int_digits == 0 {
            return Err(JsonError::at(start, "number without digits"));
        }
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(JsonError::at(start, "leading zero in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(JsonError::at(start, "fraction without digits"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            is_float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(JsonError::at(start, "exponent without digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid UTF-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError::at(start, format!("bad number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| JsonError::at(start, format!("bad number `{text}`")))
        }
    }

    /// Consumes a run of ASCII digits, returning how many were consumed.
    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for source in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let value = Json::parse(source).expect(source);
            assert_eq!(value.to_string(), source, "round-trip of {source}");
        }
        assert_eq!(Json::parse("1e3"), Ok(Json::Float(1000.0)));
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let source = r#"{"b":[1,2,{"x":null}],"a":"out of alphabetical order","n":-2.25}"#;
        let value = Json::parse(source).expect("parses");
        assert_eq!(value.to_string(), source);
        assert_eq!(value.get("a").and_then(Json::as_str), Some("out of alphabetical order"));
        assert_eq!(value.get("b").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(value.get("n").and_then(Json::as_f64), Some(-2.25));
        assert!(value.get("missing").is_none());
        assert!(value.require("missing").is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a \"quoted\" line\nwith a tab\t, a backslash \\ and unicode: λ→∞";
        let printed = Json::Str(tricky.to_string()).to_string();
        assert_eq!(Json::parse(&printed), Ok(Json::Str(tricky.to_string())));
        // Standard escapes parse too.
        assert_eq!(Json::parse(r#""λ\/""#), Ok(Json::Str("λ/".to_string())));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // What Python's `json.dumps("😀")` sends: U+1F600 as a UTF-16 pair.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#), Ok(Json::Str("😀".to_string())));
        assert_eq!(Json::parse(r#""a\uD800\uDC00z""#), Ok(Json::Str("a\u{10000}z".to_string())));
        assert_eq!(Json::parse(r#""\udbff\udfff""#), Ok(Json::Str("\u{10ffff}".to_string())));
    }

    #[test]
    fn lone_and_reversed_surrogates_are_rejected() {
        let unpaired = |source: &str, offset: usize| {
            let error = Json::parse(source).expect_err(source);
            assert_eq!(error.message(), "unpaired surrogate", "{source}");
            assert_eq!(error.offset(), Some(offset), "{source}");
        };
        // A lone high surrogate: at the end, before text, before a
        // non-surrogate escape, before another high surrogate.
        unpaired(r#""\ud83d""#, 2);
        unpaired(r#""\ud83dx""#, 2);
        unpaired(r#""ab\ud83d\u0041""#, 4);
        unpaired(r#""\ud83d\ud83d""#, 2);
        unpaired(r#""\ud83d\""#, 2);
        // A lone low surrogate, and a pair in the wrong order.
        unpaired(r#""\ude00""#, 2);
        unpaired(r#""\ude00\ud83d""#, 2);
        // A truncated second escape is still a bad pair, never a panic.
        unpaired(r#""\ud83d\ude0""#, 2);
    }

    #[test]
    fn the_writer_streams_what_the_tree_prints() {
        let mut writer = JsonWriter::default();
        writer.raw("{\"n\":").int(i64::MIN).raw(",\"m\":").int(i64::MAX);
        writer.raw(",\"u\":").u64_str(u64::MAX).raw(",\"f\":").float(2.0);
        writer.raw(",\"g\":").float(f64::NAN).raw(",\"s\":").str("q\"\\\u{1}λ");
        writer.raw(",\"a\":").array([0, -1, 10], |w, i| {
            w.int(i);
        });
        writer.raw("}");
        let text = writer.into_string();
        assert_eq!(
            text,
            r#"{"n":-9223372036854775808,"m":9223372036854775807,"u":"18446744073709551615","f":2.0,"g":null,"s":"q\"\\\u0001λ","a":[0,-1,10]}"#
        );
        assert_eq!(Json::parse(&text).map(|tree| tree.to_string()), Ok(text));
    }

    #[test]
    fn builder_builds_in_order() {
        let report = Json::object()
            .field("verdict", Json::Str("holds".into()))
            .field("traces", Json::Int(42));
        assert_eq!(report.to_string(), r#"{"verdict":"holds","traces":42}"#);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2", "00x"] {
            assert!(Json::parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
        // Strict number grammar: no leading zeros, no bare fractions or
        // exponents, no sign games in \u escapes — corrupt wire input is
        // rejected, never reinterpreted.
        for bad in ["007", "-007", "1.", "-.5", ".5", "1e", "1e+", "-", "\"\\u+12f\""] {
            assert!(Json::parse(bad).is_err(), "accepted non-JSON number form {bad:?}");
        }
        for good in ["0", "-0", "0.5", "10", "1.25e-3", "\"\\u012f\""] {
            assert!(Json::parse(good).is_ok(), "rejected valid JSON {good:?}");
        }
        // Hostile nesting is a parse error, not a stack overflow.
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).is_err());
        let near = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&near).is_ok(), "documents at the depth limit still parse");
        let over = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err(), "one past the limit is rejected");
        // Floats keep their decimal point so they re-parse as floats.
        assert_eq!(Json::Float(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0"), Ok(Json::Float(2.0)));
    }
}
