//! The tree's one JSON codec: lexer, string escaper, number rules and
//! typed field access.
//!
//! Every JSON seam — trace JSONL, telemetry epochs, the digsd wire and
//! journal, canonical `RunMetrics` records, goldens, fleet reports — reads
//! through [`parse`] and writes through [`Value`] or, for the per-event
//! writers that format straight into a `String`, through [`write_string`].
//! Nothing outside this crate knows JSON syntax.
//!
//! There is one grammar and it has two readings. [`parse`] builds a
//! [`Value`] tree. [`walk_fields`] runs the same reader over the same text
//! with building switched off: it accepts exactly the documents [`parse`]
//! accepts and fails with exactly its errors, allocates nothing, and hands
//! the caller each top-level object field as a slice of the source text. A
//! reader of streamed lines uses it to check a whole line once and to lift
//! out a field it must keep byte-exact (a digsd event frame's payload).
//!
//! Determinism is the hard requirement ("same spec + seed = same bytes"),
//! so the rules are few and fixed: objects keep insertion order;
//! non-negative integers are exact over the whole `u64` range
//! ([`Value::Int`], written as their digits); every other number is an
//! `f64` written with Rust's shortest-round-trip `{}`; one escape table;
//! nesting is refused past [`MAX_DEPTH`]. There is no `serde` — a registry
//! crate cannot be relied on in every build environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use std::borrow::Cow;

/// Deepest array/object nesting [`parse`] accepts. The deepest document the
/// tree writes (a fleet report) nests 5 levels; 64 leaves room and keeps the
/// recursive reader within a few KiB of stack on any thread.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order so encoding is
/// deterministic and diffs stay readable.
///
/// Equality is numeric: `Int(3) == Num(3.0)`, so a value compares equal to
/// its own written-then-parsed form whichever variant built it.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null` — used for absent optional metrics (e.g. no repair event).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range (seeds,
    /// secrets, ASNs, sequence cursors). [`parse`] yields it for every
    /// plain digit literal that fits.
    Int(u64),
    /// Any other finite number. Integers are written without a decimal
    /// point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered fields.
    Obj(Vec<(String, Value)>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Int(i), n @ Value::Num(_)) | (n @ Value::Num(_), Value::Int(i)) => {
                n.as_u64() == Some(*i)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
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

    /// Builds an exact integer from an optional one (absent → `null`).
    pub fn opt_int(x: Option<u64>) -> Value {
        x.map_or(Value::Null, Value::Int)
    }

    /// Builds an object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
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
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            // 2^64 itself is out: `as` would saturate it to `u64::MAX`.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 18_446_744_073_709_551_616.0 => {
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

    /// The value as a non-negative integer that fits `T`; the error names
    /// `what` (a field key, or `key[i]` for a list element).
    pub fn to_uint<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        let n = self.as_u64().ok_or_else(|| format!("`{what}` is not a non-negative integer"))?;
        T::try_from(n).map_err(|_| {
            format!("`{what}`: {n} is out of range for {}", std::any::type_name::<T>())
        })
    }

    /// A required object field.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.field(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// An optional object field: absent and `null` are both `None`.
    pub fn present(&self, key: &str) -> Option<&Value> {
        self.field(key).filter(|v| !matches!(v, Value::Null))
    }

    /// A required non-negative integer field, range-checked into `T`.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        self.req(key)?.to_uint(key)
    }

    /// An optional non-negative integer field, range-checked into `T`.
    pub fn opt_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.present(key).map(|v| v.to_uint(key)).transpose()
    }

    /// A required number field.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.req(key)?.as_f64().ok_or_else(|| format!("`{key}` is not a number"))
    }

    /// An optional number field.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.present(key).map(|_| self.f64(key)).transpose()
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?.as_str().ok_or_else(|| format!("`{key}` is not a string"))
    }

    /// An optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.present(key).map(|_| self.str(key)).transpose()
    }

    /// A required array field.
    pub fn arr(&self, key: &str) -> Result<&[Value], String> {
        self.req(key)?.as_arr().ok_or_else(|| format!("`{key}` is not a list"))
    }

    /// A required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.req(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` is not a boolean")),
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
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
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
                    out.push(':');
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

/// Appends `s` as a quoted JSON string — the one escape table: `"`, `\\`,
/// `\n`, `\r`, `\t` by name, other control characters as `\u00XX`,
/// everything else verbatim.
pub fn write_string(out: &mut String, s: &str) {
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
/// Input from outside the program is safe to hand in: every failure is an
/// `Err`, and nesting past [`MAX_DEPTH`] is refused before it costs stack.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    Reader::<true> { text, bytes: text.as_bytes(), pos: 0, depth: 0, top_field: &mut |_, _| {} }
        .document()
}

/// Checks that `text` is one JSON document — the documents [`parse`]
/// accepts, with its errors — and builds nothing. When the document is an
/// object, `field` gets each of its top-level fields in order as two slices
/// of `text`: the key as written between its quotes (escapes unresolved) and
/// the value's exact bytes, which [`parse`] turns into a [`Value`] on demand.
/// Fields seen before an `Err` belong to a malformed document.
pub fn walk_fields<'a>(
    text: &'a str,
    mut field: impl FnMut(&'a str, &'a str),
) -> Result<(), ParseError> {
    Reader::<false> { text, bytes: text.as_bytes(), pos: 0, depth: 0, top_field: &mut field }
        .document()
        .map(drop)
}

/// The string that `raw` — a value slice from [`walk_fields`] — spells, or
/// `None` when it spells something else. Borrowed from `raw` unless the
/// string has escapes to resolve.
pub fn raw_str(raw: &str) -> Option<Cow<'_, str>> {
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    if !inner.contains(['"', '\\']) {
        return Some(Cow::Borrowed(inner));
    }
    match parse(raw) {
        Ok(Value::Str(s)) => Some(Cow::Owned(s)),
        _ => None,
    }
}

/// The non-negative integer that `raw` — a value slice from [`walk_fields`]
/// — spells, or `None` when it spells something else: what
/// [`Value::as_u64`] says of the parsed slice, with nothing built when the
/// slice is plain digits that fit.
pub fn raw_uint(raw: &str) -> Option<u64> {
    // Digits only: `u64::from_str` would also take a leading `+`.
    if raw.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = raw.parse() {
            return Some(n);
        }
    }
    parse(raw).ok()?.as_u64()
}

/// The one grammar. With `BUILD` it returns the [`Value`] it read; without,
/// it reads the same way but leaves every string and container it returns
/// empty, and sends each top-level object field to `top_field`.
struct Reader<'a, 'f, const BUILD: bool> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    top_field: &'f mut dyn FnMut(&'a str, &'a str),
}

impl<const BUILD: bool> Reader<'_, '_, BUILD> {
    fn document(&mut self) -> Result<Value, ParseError> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

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
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
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
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            let key_end = self.pos;
            self.expect(b':')?;
            self.skip_ws();
            let value_at = self.pos;
            let value = self.value()?;
            if BUILD {
                fields.push((key, value));
            } else if self.depth == 1 {
                (self.top_field)(
                    &self.text[key_at + 1..key_end - 1],
                    &self.text[value_at..self.pos],
                );
            }
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
            let item = self.value()?;
            if BUILD {
                items.push(item);
            }
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
            // Up to the next quote or backslash the text is copied as it
            // stands: both are ASCII, so a run never splits a character.
            let run = self.pos;
            let rest = &self.bytes[run..];
            self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            if BUILD {
                s.push_str(&self.text[run..self.pos]);
            }
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(s);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
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
                    char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                }
                other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
            };
            if BUILD {
                s.push(c);
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
        let text = &self.text[start..self.pos];
        // Plain digits that fit stay exact (`text` starts with a digit or
        // `-`, so this accepts nothing else); the rest is a float.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
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

    #[test]
    fn round_trips_every_value_kind() {
        let v = Value::obj([
            ("null", Value::Null),
            ("flag", Value::Bool(true)),
            ("int", Value::Num(42.0)),
            ("neg", Value::Num(-7.0)),
            ("float", Value::Num(0.8437)),
            ("text", Value::Str("a \"quoted\" s\\ash\nline".into())),
            ("arr", Value::Arr(vec![Value::Num(1.0), Value::Null, Value::Bool(false)])),
            ("nested", Value::obj([("k", Value::Num(1.5))])),
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
        let v = Value::obj([("z", Value::Num(1.0)), ("a", Value::Num(2.0))]);
        assert_eq!(v.to_compact(), "{\"z\":1,\"a\":2}");
        let back = parse(&v.to_compact()).unwrap();
        assert_eq!(back.to_compact(), v.to_compact());
    }

    #[test]
    fn serialization_is_deterministic() {
        let v = Value::obj([("pdr", Value::Num(0.9871234567)), ("lat", Value::Num(1430.5))]);
        assert_eq!(v.to_compact(), v.to_compact());
        assert_eq!(parse(&v.to_compact()).unwrap().to_compact(), v.to_compact());
    }

    #[test]
    fn accessors() {
        let v = Value::obj([("n", Value::Num(3.0)), ("s", Value::Str("x".into()))]);
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
    fn integers_are_exact_over_the_whole_u64_range() {
        for n in [0, 1, (1 << 53) + 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            let text = Value::Int(n).to_compact();
            assert_eq!(text, n.to_string());
            let back = parse(&text).unwrap();
            assert!(matches!(back, Value::Int(m) if m == n), "{back:?}");
            assert_eq!(back.as_u64(), Some(n));
        }
        // One past u64::MAX is a float, and no longer an integer we can hold.
        let big = parse("18446744073709551616").unwrap();
        assert!(matches!(big, Value::Num(_)));
        assert_eq!(big.as_u64(), None);
        assert_eq!(Value::opt_int(None), Value::Null);
    }

    #[test]
    fn equality_is_numeric_across_int_and_num() {
        assert_eq!(Value::Int(42), Value::Num(42.0));
        assert_eq!(Value::Num(0.0), Value::Int(0));
        assert_ne!(Value::Int(42), Value::Num(42.5));
        assert_ne!(Value::Int((1 << 53) + 1), Value::Num((1u64 << 53) as f64));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        // A value built either way equals its written-then-parsed form.
        let v = Value::obj([("a", Value::Num(3.0)), ("b", Value::Int(3))]);
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn keyed_accessors_check_type_and_range_and_name_the_field() {
        let v = parse(r#"{"node":70000,"seq":7,"s":"x","f":1.5,"b":true,"nil":null}"#).unwrap();
        assert_eq!(v.uint::<u64>("node"), Ok(70000));
        assert_eq!(v.uint::<u32>("node"), Ok(70000));
        let err = v.uint::<u16>("node").unwrap_err();
        assert!(err.contains("node") && err.contains("70000") && err.contains("u16"), "{err}");
        assert!(v.uint::<u64>("missing").unwrap_err().contains("missing"));
        assert!(v.uint::<u64>("f").unwrap_err().contains("`f`"));
        assert_eq!(v.opt_uint::<u16>("seq"), Ok(Some(7)));
        assert_eq!(v.opt_uint::<u16>("missing"), Ok(None));
        assert_eq!(v.opt_uint::<u16>("nil"), Ok(None));
        assert!(v.opt_uint::<u16>("node").is_err());
        assert!(v.opt_uint::<u16>("s").is_err());
        assert_eq!(v.str("s"), Ok("x"));
        assert!(v.str("seq").unwrap_err().contains("seq"));
        assert_eq!(v.opt_str("nil"), Ok(None));
        assert_eq!(v.f64("f"), Ok(1.5));
        assert_eq!(v.f64("seq"), Ok(7.0));
        assert_eq!(v.opt_f64("nil"), Ok(None));
        assert!(v.opt_f64("s").is_err());
        assert!(v.arr("s").unwrap_err().contains("`s`"));
        assert_eq!(v.bool("b"), Ok(true));
        assert!(v.bool("seq").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The 2 MiB stack a digsd connection thread gets.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                assert!(parse(&"[".repeat(100_000)).is_err());
                assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
                assert!(parse(&("[{\"a\":".repeat(50_000) + "1")).is_err());
            })
            .expect("spawn")
            .join()
            .expect("the reader must return, not overflow the stack");
    }

    #[test]
    fn walk_fields_reads_what_parse_reads_and_slices_the_top_level() {
        let text =
            r#" { "a" : [1, {"a": 2}] , "k\u0065y":"v \" \\ \u00e9 é","n":-2.5e-2,"o":{"a":{}} } "#;
        let mut seen = Vec::new();
        walk_fields(text, |key, value| seen.push((key, value))).expect("well-formed");
        assert_eq!(
            seen,
            [
                ("a", r#"[1, {"a": 2}]"#),
                (r"k\u0065y", r#""v \" \\ \u00e9 é""#),
                ("n", "-2.5e-2"),
                ("o", r#"{"a":{}}"#)
            ]
        );
        // Each slice is a document of its own, equal to the field `parse` built.
        let built = parse(text).unwrap();
        for ((_, raw), (_, value)) in seen.iter().zip(match &built {
            Value::Obj(fields) => fields,
            _ => unreachable!(),
        }) {
            assert_eq!(&parse(raw).unwrap(), value);
        }
        assert_eq!(raw_str(seen[1].1).as_deref(), Some("v \" \\ \u{e9} é"));
        assert!(matches!(raw_str(r#""plain é""#), Some(Cow::Borrowed("plain é"))));
        for not_a_string in ["1", "null", "[\"a\"]", "\"", "\"a\"b\"", "\"a\\\""] {
            assert_eq!(raw_str(not_a_string), None, "{not_a_string}");
        }
        // An integer slice reads as `as_u64` reads the value `parse` builds.
        assert_eq!(raw_uint("18446744073709551615"), Some(u64::MAX));
        for raw in ["0", "42", "007", "4e2", "5.0", "-0", "-1", "0.5", "18446744073709551616"]
            .into_iter()
            .chain(["", "+5", "null", "\"7\"", "[7]", "7 ", "1e999"])
        {
            assert_eq!(raw_uint(raw), parse(raw).ok().and_then(|v| v.as_u64()), "{raw:?}");
        }
        // Not an object: checked all the same, no fields.
        walk_fields("[{\"a\":1}]", |_, _| panic!("no top-level object")).expect("well-formed");
        // Same verdict and same error as `parse`, wherever the fault is.
        let nest = "[".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{\"a\":1,}",
            "{\"a\":1} extra",
            "{\"a\":[1 2]}",
            "{\"a\":\"unterminated",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":1e999}",
            "{\"a\":tru}",
            "{\"a\" 1}",
            nest.as_str(),
        ] {
            assert_eq!(walk_fields(bad, |_, _| {}), parse(bad).map(drop), "{bad:?}");
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn exponent_numbers_parse() {
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5e-2").unwrap().as_f64(), Some(-0.025));
    }
}
