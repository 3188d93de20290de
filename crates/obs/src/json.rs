//! A minimal JSON value, serializer, and parser.
//!
//! The workspace is fully offline (no serde), and the trace layer only
//! needs flat-ish objects, so this is a small hand-rolled
//! implementation with two properties the trace format relies on:
//!
//! * **integers survive round-trips exactly** — `u64` / `i64` are kept
//!   as integers rather than being squeezed through `f64` (graph
//!   hashes and byte counts exceed 2^53);
//! * **finite floats round-trip bit-exactly** — serialization uses
//!   Rust's shortest-round-trip formatting (`{:?}`).
//!
//! Non-finite floats are not representable in JSON; [`Json::Float`]
//! serializes them as `null` (the trace layer never produces them —
//! the optimizer validates costs before they reach observability).

use std::fmt;

/// The deepest nesting [`Json::parse`] accepts. The parser recurses once
/// per level, so without a bound a line of brackets from a client would
/// overflow the stack of the thread reading it; nothing this workspace
/// writes nests more than a few levels.
const MAX_DEPTH: usize = 128;

/// A parsed or to-be-serialized JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without exponent/fraction.
    UInt(u64),
    /// A negative integer without exponent/fraction.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on serialization.
    Obj(Vec<(String, Json)>),
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the defect.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// Serializes the value to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest round-trip repr; it
                    // always contains '.' or 'e', so the parser will
                    // classify it back as Float.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(kvs) => {
                out.push('{');
                for (i, (k, v)) in kvs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first
    /// defect.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; may lose precision past
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

/// Free-function alias for [`Json::parse`].
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first defect.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    Json::parse(text)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.pos, msg: msg.to_string() }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
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
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            out.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
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
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by our
                            // serializer; reject rather than mangle.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii number chars");
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<i64>() {
                    return Ok(Json::Int(-v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError { pos: start, msg: format!("bad number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_integers_exactly() {
        for v in [0u64, 1, u64::MAX, 1 << 60, (1 << 53) + 1] {
            let j = Json::UInt(v);
            assert_eq!(Json::parse(&j.render()).unwrap(), j, "{v}");
        }
        let j = Json::Int(-1234567890123456789);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn round_trips_floats_bit_exactly() {
        for v in [0.5, 1.0, -3.25e-9, 1e300, f64::MIN_POSITIVE, 0.1 + 0.2] {
            let rendered = Json::Float(v).render();
            match Json::parse(&rendered).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "{rendered}"),
                other => panic!("expected float back from '{rendered}', got {other:?}"),
            }
        }
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        for s in ["", "plain", "q\"uote\\back\nnl\ttab\r", "uni: ✓ λ", "\u{1}\u{1f}"] {
            let j = Json::Str(s.to_string());
            assert_eq!(Json::parse(&j.render()).unwrap(), j, "{s:?}");
        }
    }

    #[test]
    fn parses_structures() {
        let j = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Null, Json::Bool(true)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Float(2.5))])),
        ]);
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.get("b").and_then(|b| b.get("c")), Some(&Json::Float(2.5)));
    }

    #[test]
    fn parses_whitespace_and_rejects_garbage() {
        assert_eq!(
            Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap().get("k"),
            Some(&Json::Arr(vec![Json::UInt(1), Json::UInt(2)]))
        );
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "nul", "1x", "{}z", "\"\\u12\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.pos, err.msg.as_str()), (MAX_DEPTH, "nested too deep"));
        // Far past any stack: refused at the bound, not overflowed.
        assert!(Json::parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }
}
