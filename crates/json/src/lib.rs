//! Minimal deterministic JSON: writer and reader for the conformance
//! harness's canonical records and golden files, and for the fleet's
//! SLO reports.
//!
//! The tree has no `serde` (a registry crate cannot be relied on in every
//! build environment), and determinism is a hard requirement here: the
//! same `RunMetrics` or fleet report must serialize to the same bytes on
//! every run, which is what the double-run conformance test pins down. So,
//! like `digs-trace`'s JSONL module, this is a tiny hand-rolled
//! implementation with a fixed field order (objects
//! preserve insertion order) and shortest-round-trip float formatting
//! (Rust's `{}` for `f64`, which is deterministic across platforms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

/// A JSON value. Objects preserve insertion order so encoding is
/// deterministic and diffs stay readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` — used for absent optional metrics (e.g. no repair event).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number. Integers are written without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds a number value; non-finite input becomes [`Value::Null`]
    /// (JSON has no `inf`/`NaN`, and "no data" is what they mean here —
    /// e.g. power per packet when nothing was delivered).
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// Builds a number from an optional float (absent or non-finite →
    /// `null`).
    pub fn opt(x: Option<f64>) -> Value {
        x.map_or(Value::Null, Value::num)
    }

    /// Looks up an object field.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) — the canonical form.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes with two-space indentation for checked-in golden files.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    let _ = write!(out, ":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    use std::fmt::Write;
    debug_assert!(n.is_finite(), "use Value::num to map non-finite to null");
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest round-trip formatting: deterministic and exact.
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`parse`], with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position the error occurred at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut r = Reader { bytes: text.as_bytes(), pos: 0 };
    let value = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { at: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                other.map(|c| c as char)
            ))),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            other => Err(self.err(format!("unexpected token {:?}", other.map(|c| c as char)))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("bad literal, expected {text}")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(self.err(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(self.err(format!(
                        "expected ',' or ']' in array, found {:?}",
                        other.map(|c| c as char)
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| self.err(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| self.err(e.to_string()))?;
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad code point"))?);
                        }
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                other => {
                    if other < 0x80 {
                        s.push(other as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match other {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(start..start + width)
                            .ok_or_else(|| self.err("truncated UTF-8"))?;
                        s.push_str(
                            std::str::from_utf8(chunk).map_err(|e| self.err(e.to_string()))?,
                        );
                        self.pos = start + width;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| self.err(e.to_string()))?;
        let n: f64 = text.parse().map_err(|_| self.err(format!("bad number \"{text}\"")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number \"{text}\"")));
        }
        Ok(Value::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Value {
        Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn round_trips_every_value_kind() {
        let v = obj(&[
            ("null", Value::Null),
            ("flag", Value::Bool(true)),
            ("int", Value::Num(42.0)),
            ("neg", Value::Num(-7.0)),
            ("float", Value::Num(0.8437)),
            ("text", Value::Str("a \"quoted\" s\\ash\nline".into())),
            ("arr", Value::Arr(vec![Value::Num(1.0), Value::Null, Value::Bool(false)])),
            ("nested", obj(&[("k", Value::Num(1.5))])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).expect("parse back"), v, "from: {text}");
        }
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Value::Num(8.0).to_compact(), "8");
        assert_eq!(Value::Num(-3.0).to_compact(), "-3");
        assert_eq!(Value::Num(0.5).to_compact(), "0.5");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::num(f64::INFINITY), Value::Null);
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::opt(None), Value::Null);
        assert_eq!(Value::opt(Some(2.0)), Value::Num(2.0));
    }

    #[test]
    fn field_order_is_preserved() {
        let v = obj(&[("z", Value::Num(1.0)), ("a", Value::Num(2.0))]);
        assert_eq!(v.to_compact(), "{\"z\":1,\"a\":2}");
        let back = parse(&v.to_compact()).unwrap();
        assert_eq!(back.to_compact(), v.to_compact());
    }

    #[test]
    fn serialization_is_deterministic() {
        let v = obj(&[("pdr", Value::Num(0.9871234567)), ("lat", Value::Num(1430.5))]);
        assert_eq!(v.to_compact(), v.to_compact());
        assert_eq!(parse(&v.to_compact()).unwrap().to_compact(), v.to_compact());
    }

    #[test]
    fn accessors() {
        let v = obj(&[("n", Value::Num(3.0)), ("s", Value::Str("x".into()))]);
        assert_eq!(v.field("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.field("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.field("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.field("missing"), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn exponent_numbers_parse() {
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5e-2").unwrap().as_f64(), Some(-0.025));
    }
}
