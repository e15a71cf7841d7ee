//! Minimal JSON value, parser and writer — the workspace's one codec.
//!
//! The service, the bench reports, the run tracer and the audit's SARIF
//! output all speak JSON without pulling in `serde` — consistent with
//! the repo's from-scratch ethos and the no-new-runtime-deps constraint
//! of the offline build containers. Only what the wire format needs:
//! UTF-8 strings with standard escapes (surrogate pairs included),
//! `f64` numbers, arrays, objects with preserved insertion order.
//!
//! The parser reads untrusted request bodies, so it is linear in the
//! input and caps nesting at [`MAX_DEPTH`]: a body of nothing but `[`
//! is an error, not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as an unsigned integer, when exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl From<BTreeMap<String, Json>> for Json {
    fn from(map: BTreeMap<String, Json>) -> Json {
        Json::Obj(map.into_iter().collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends a number: integral values without a fraction, non-finite
/// ones as `null` (JSON has no NaN or infinity).
fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters. Every JSON emitter in the workspace writes
/// its strings through here.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so a byte scan finds the
    // escapes and the runs between them stay on char boundaries.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// JSON parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document (must consume all non-whitespace input).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(err(pos, "trailing data"));
    }
    Ok(value)
}

fn err(at: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        at,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", what as char)))
    }
}

/// Parses one value whose enclosing arrays/objects nest `depth` deep.
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => {
            Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")))
        }
        Some(b'[') => parse_array(src, pos, depth + 1),
        Some(b'{') => parse_object(src, pos, depth + 1),
        Some(b'-' | b'0'..=b'9') => parse_number(src, pos),
        Some(&c) => Err(err(*pos, format!("unexpected character '{}'", c as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{word}'")))
    }
}

fn parse_number(src: &str, pos: &mut usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // The scanned run is ASCII, so both ends are char boundaries.
    let text = &src[start..*pos];
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("invalid number '{text}'")))
}

/// Four hex digits at `at` as a UTF-16 code unit.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |acc, &b| Some(acc << 4 | (b as char).to_digit(16)?))
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or escape in one go; both
        // delimiters are ASCII, so the run ends on a char boundary.
        let Some(run) = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\') else {
            return Err(err(src.len(), "unterminated string"));
        };
        out.push_str(&src[*pos..*pos + run]);
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'u') => {
                let unit = hex4(bytes, *pos + 1).ok_or_else(|| err(*pos, "bad \\u escape"))?;
                *pos += 4;
                // A high surrogate followed by an escaped low surrogate
                // is one scalar; a lone surrogate becomes U+FFFD.
                let low = match unit {
                    0xD800..=0xDBFF if bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") => {
                        hex4(bytes, *pos + 3).filter(|low| (0xDC00..=0xDFFF).contains(low))
                    }
                    _ => None,
                };
                let scalar = match low {
                    Some(low) => {
                        *pos += 6;
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    None => unit,
                };
                out.push(char::from_u32(scalar).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(err(*pos, "bad escape")),
        }
        *pos += 1;
    }
}

fn parse_array(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(src: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = src.as_bytes();
    expect_byte(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(src, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::from("web-1")),
            ("epoch", Json::from(3u64)),
            ("tags", Json::from(vec!["a", "b"])),
            (
                "nested",
                Json::obj([("pi", Json::from(3.25)), ("ok", Json::from(true))]),
            ),
            ("nothing", Json::Null),
            ("msg", Json::from("quote \" slash \\ newline \n tab \t")),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = parse(" { \"a\\n\\\"b\" : [ 1 , -2.5e1 , null , true ] } ").unwrap();
        assert_eq!(parsed.get("a\n\"b").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            parsed.get("a\n\"b").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::from(-3.0).to_string(), "-3");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{", "[1,]", "12 34", "'single'", "", "{\"a\":}", "\"open", "\"\\q\"", "-", "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn as_u64_guards_integrality() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escape_roundtrip() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        let control = Json::Str("\u{0001}\u{001f} λ→é".to_string());
        assert_eq!(control.to_string(), "\"\\u0001\\u001f λ→é\"");
        assert_eq!(parse(&control.to_string()).unwrap(), control);
    }

    #[test]
    fn escaped_surrogate_pair_is_one_scalar() {
        let parsed = parse("\"a\\ud83d\\ude00b\"").unwrap();
        assert_eq!(parsed.as_str(), Some("a\u{1F600}b"));
        // The writer emits the scalar raw, and it parses back unchanged.
        assert_eq!(parse(&parsed.to_string()).unwrap(), parsed);
        // Lone and mis-ordered surrogates stay replacement characters.
        assert_eq!(parse("\"\\ud83d\"").unwrap().as_str(), Some("\u{FFFD}"));
        assert_eq!(parse("\"\\ude00\"").unwrap().as_str(), Some("\u{FFFD}"));
        assert_eq!(
            parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Some("\u{FFFD}A")
        );
        assert!(parse("\"\\u12\"").is_err());
        assert!(parse("\"\\u+041\"").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let error = parse(&deep).unwrap_err();
        assert!(error.message.contains("nesting"), "{error}");
        let objects = "{\"a\":".repeat(200_000);
        assert!(parse(&objects).is_err());
        // The cap itself is still accepted.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let text = "é".repeat(2 << 20); // 4 MiB of two-byte scalars
        let doc = format!("{{\"s\":\"{text}\"}}");
        let started = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "4 MiB string took {:?}",
            started.elapsed()
        );
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(text.as_str()));
    }
}
