//! The tree's one JSON codec: lexer, string escaper, number rules and
//! typed field access.
//!
//! Every JSON seam — trace JSONL, telemetry epochs, the digsd wire and
//! journal, canonical `RunMetrics` records, goldens, fleet reports — reads
//! through [`parse`]. A line a row table declares is written straight into
//! a `String` through [`write_string`], [`write_uint`] and [`write_num`]: a
//! string copied whole when it has nothing to escape, an integer as its
//! decimal digits, neither through `core::fmt`. A [`Value`] is written the
//! same way, for the documents that are trees (a fleet report). Nothing
//! outside this crate knows JSON syntax.
//!
//! There is one grammar, one reader, and two builders it reads into. The
//! reader owns the grammar — every position, every error message, the
//! nesting bound; a builder only says what a value is made of. [`parse`]
//! reads with one whose values are [`Value`]s. [`walk_fields`] reads with
//! one whose values are `()`: it accepts exactly the documents [`parse`]
//! accepts and fails with exactly its errors, builds and allocates nothing,
//! and hands the caller each top-level object field as a slice of the source
//! text. A reader of streamed lines uses it to check a whole line once and
//! to lift out a field it must keep byte-exact (a digsd event frame's
//! payload).
//!
//! A record type is declared once, by its rows ([`message`](mod@message)): the digsd
//! messages, journal records and launch specs, trace events, telemetry
//! lines, `RunMetrics` and the goldens get their writer, decoder and
//! printed table from one `key: Type` list, and every enum that travels by
//! name gets its names from one `(Variant, "name")` list.
//!
//! Determinism is the hard requirement ("same spec + seed = same bytes"),
//! so the rules are few and fixed: objects keep insertion order;
//! non-negative integers are exact over the whole `u64` range
//! ([`Value::Int`], written as their digits); every other number is an
//! `f64` written with Rust's shortest-round-trip `{}` (an integral one
//! below 2^64 as the integer it holds); one escape table;
//! nesting is refused past [`MAX_DEPTH`]. There is no `serde` — a registry
//! crate cannot be relied on in every build environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::ops::Range;
use std::borrow::Cow;

pub mod message;

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

    /// An optional object field: absent and `null` are both `None`.
    pub fn present(&self, key: &str) -> Option<&Value> {
        self.field(key).filter(|v| !matches!(v, Value::Null))
    }

    /// An optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.present(key)
            .map(|v| v.as_str().ok_or_else(|| format!("`{key}` is not a string")))
            .transpose()
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

    /// Appends the compact form.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => write_uint(out, *n),
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

/// Appends a number: an integral one below 2^64 as the integer it holds,
/// any other finite one as Rust's shortest round-trip `{}`, and a
/// non-finite one — which JSON cannot spell — as `null`.
pub fn write_num(out: &mut String, n: f64) {
    use std::fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 18_446_744_073_709_551_616.0 {
        // The exact integer the float holds. Above 2^53 its shortest
        // round-trip digits are another integer, which `parse` would read
        // back exactly as an `Int` of a different value.
        // `-0.0` is written `0`: it is not below zero.
        if n < 0.0 {
            out.push('-');
        }
        write_uint(out, n.abs() as u64);
    } else {
        // Rust's shortest round-trip formatting: deterministic and exact.
        let _ = write!(out, "{n}");
    }
}

/// `"00"`, `"01"`, … `"99"` back to back: two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `n` in decimal — the bytes `format!("{n}")` gives, without the
/// formatting machinery. The per-event writers (trace JSONL, digsd frame
/// heads) write every integer through this.
pub fn write_uint(out: &mut String, n: impl Into<u64>) {
    let mut n: u64 = n.into();
    let mut digits = [0; 20];
    let mut at = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `s` as a quoted JSON string — the one escape table: `"`, `\\`,
/// `\n`, `\r`, `\t` by name, other control characters as `\u00XX`,
/// everything else verbatim. A string with nothing to escape — no byte
/// below 0x20, no `"`, no `\\` — is copied whole.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
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
    Reader::new(text, Tree).document()
}

/// Checks that `text` is one JSON document — the documents [`parse`]
/// accepts, with its errors — and builds nothing. When the document is an
/// object, `field` gets each of its top-level fields in order as two slices
/// of `text`: the key as written between its quotes (escapes unresolved) and
/// the value's exact bytes, which [`parse`] turns into a [`Value`] on demand.
/// Fields seen before an `Err` belong to a malformed document.
pub fn walk_fields<'a>(
    text: &'a str,
    field: impl FnMut(&'a str, &'a str),
) -> Result<(), ParseError> {
    Reader::new(text, Walk(field)).document()
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

/// Somewhere a [`Build`] puts what the reader hands it: the real container
/// for [`Tree`], `()` — which keeps nothing — for [`Walk`].
trait Sink<T>: Default {
    fn put(&mut self, item: T);
}

impl<T> Sink<T> for Vec<T> {
    fn put(&mut self, item: T) {
        self.push(item);
    }
}

impl Sink<char> for String {
    fn put(&mut self, c: char) {
        self.push(c);
    }
}

impl<'s> Sink<&'s str> for String {
    fn put(&mut self, s: &'s str) {
        self.push_str(s);
    }
}

impl<T> Sink<T> for () {
    fn put(&mut self, _: T) {}
}

/// What the one [`Reader`] makes of the text it reads. The grammar, its
/// positions and its errors belong to the reader; a builder only decides
/// what a value is made of.
trait Build<'a> {
    /// What one value reads as.
    type Value;
    /// A string's contents.
    type Text: Sink<char> + for<'s> Sink<&'s str>;
    /// An array's items.
    type Items: Sink<Self::Value>;
    /// An object's fields.
    type Fields: Sink<(Self::Text, Self::Value)>;
    /// A `null`, boolean or number.
    fn scalar(value: Value) -> Self::Value;
    /// A string, an array, an object: what was put into its sink.
    fn string(text: Self::Text) -> Self::Value;
    fn array(items: Self::Items) -> Self::Value;
    fn object(fields: Self::Fields) -> Self::Value;
    /// One field of the top-level object, as the byte ranges of `text` its
    /// quoted key and its value cover.
    fn top_field(&mut self, text: &'a str, key: Range<usize>, value: Range<usize>);
}

/// The builder [`parse`] reads with: a [`Value`] tree.
struct Tree;

impl Build<'_> for Tree {
    type Value = Value;
    type Text = String;
    type Items = Vec<Value>;
    type Fields = Vec<(String, Value)>;

    fn scalar(value: Value) -> Value {
        value
    }

    fn string(text: String) -> Value {
        Value::Str(text)
    }

    fn array(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }

    fn object(fields: Vec<(String, Value)>) -> Value {
        Value::Obj(fields)
    }

    fn top_field(&mut self, _: &str, _: Range<usize>, _: Range<usize>) {}
}

/// The builder [`walk_fields`] reads with: every value is `()`, and each
/// top-level field goes to the caller as slices of the text.
struct Walk<F>(F);

impl<'a, F: FnMut(&'a str, &'a str)> Build<'a> for Walk<F> {
    type Value = ();
    type Text = ();
    type Items = ();
    type Fields = ();

    fn scalar(_: Value) {}

    fn string(_: ()) {}

    fn array(_: ()) {}

    fn object(_: ()) {}

    fn top_field(&mut self, text: &'a str, key: Range<usize>, value: Range<usize>) {
        (self.0)(&text[key.start + 1..key.end - 1], &text[value]);
    }
}

/// The one grammar, read into whatever `B` builds.
struct Reader<'a, B> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    build: B,
}

impl<'a, B: Build<'a>> Reader<'a, B> {
    fn new(text: &'a str, build: B) -> Reader<'a, B> {
        Reader { text, bytes: text.as_bytes(), pos: 0, depth: 0, build }
    }

    fn document(&mut self) -> Result<B::Value, ParseError> {
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

    fn value(&mut self) -> Result<B::Value, ParseError> {
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
            Some(b'"') => Ok(B::string(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            other => Err(self.err(format!("unexpected token {:?}", other.map(|c| c as char)))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<B::Value, ParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(B::scalar(value))
        } else {
            Err(self.err(format!("bad literal, expected {text}")))
        }
    }

    fn object(&mut self) -> Result<B::Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = B::Fields::default();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(B::object(fields));
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
            if self.depth == 1 {
                self.build.top_field(self.text, key_at..key_end, value_at..self.pos);
            }
            fields.put((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(B::object(fields));
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

    fn array(&mut self) -> Result<B::Value, ParseError> {
        self.expect(b'[')?;
        let mut items = B::Items::default();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(B::array(items));
        }
        loop {
            items.put(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(B::array(items));
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

    fn string(&mut self) -> Result<B::Text, ParseError> {
        self.expect(b'"')?;
        let mut s = B::Text::default();
        loop {
            // Up to the next quote or backslash the text is copied as it
            // stands: both are ASCII, so a run never splits a character.
            let run = self.pos;
            let rest = &self.bytes[run..];
            self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            s.put(&self.text[run..self.pos]);
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
            s.put(c);
        }
    }

    fn number(&mut self) -> Result<B::Value, ParseError> {
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
            return Ok(B::scalar(Value::Int(n)));
        }
        let n: f64 = text.parse().map_err(|_| self.err(format!("bad number \"{text}\"")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number \"{text}\"")));
        }
        Ok(B::scalar(Value::Num(n)))
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
        assert_eq!(Value::Num(f64::INFINITY).to_compact(), "null");
        assert_eq!(Value::Num(f64::NAN).to_pretty(), "null\n");
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
        let node = v.field("node").unwrap();
        assert_eq!(node.to_uint::<u64>("node"), Ok(70000));
        assert_eq!(node.to_uint::<u32>("node"), Ok(70000));
        let err = node.to_uint::<u16>("node").unwrap_err();
        assert!(err.contains("node") && err.contains("70000") && err.contains("u16"), "{err}");
        assert!(v.field("f").unwrap().to_uint::<u64>("f").unwrap_err().contains("`f`"));
        assert_eq!(v.opt_str("s"), Ok(Some("x")));
        assert_eq!(v.opt_str("nil"), Ok(None));
        assert_eq!(v.opt_str("missing"), Ok(None));
        assert!(v.opt_str("seq").unwrap_err().contains("`seq`"));
        assert_eq!(v.present("nil"), None);
        assert_eq!(v.present("b"), Some(&Value::Bool(true)));
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

    /// The escaper before it learned to copy a string whole: the oracle
    /// [`write_string`] is held to.
    fn escape_char_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn the_writers_write_what_format_and_the_char_loop_wrote() {
        let uint = |n: u64| {
            let mut out = String::from("x");
            write_uint(&mut out, n);
            assert_eq!(out, format!("x{n}"));
            assert_eq!(Value::Int(n).to_compact(), n.to_string());
        };
        for n in [0, 9, 10, 99, 100, u64::MAX - 1, u64::MAX] {
            uint(n);
        }
        for k in 0..20 {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1].into_iter().for_each(uint);
        }
        digs_cases::cases(10_000, |d| uint(d.u64() >> d.int(0u32..64)));
        let mut narrow = String::new();
        write_uint(&mut narrow, u8::MAX);
        write_uint(&mut narrow, u16::MAX);
        write_uint(&mut narrow, u32::MAX);
        assert_eq!(narrow, "255655354294967295");
        // Integral floats below 10^15 are written as the `i64` they hold.
        for x in [0.0, -0.0, 7.0, -7.0, 999_999_999_999_999.0, -999_999_999_999_999.0] {
            assert_eq!(Value::Num(x).to_compact(), format!("{}", x as i64), "{x}");
        }
        // So are the larger ones below 2^64, whose shortest digits would
        // read back as another integer: `{}` writes this one …217000.
        let big = 14_538_535_474_261_217_018.0_f64;
        assert_eq!(Value::Num(big).to_compact(), "14538535474261217280");
        assert_eq!(parse(&Value::Num(big).to_compact()), Ok(Value::Num(big)));
        assert_eq!(Value::Num(-big).to_compact(), "-14538535474261217280");
        assert_eq!(parse(&Value::Num(-big).to_compact()), Ok(Value::Num(-big)));
        assert_eq!(Value::Num(2f64.powi(64)).to_compact(), "18446744073709552000");

        const CHARS: &[char] = &[
            'a',
            'Z',
            ' ',
            '~',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '→',
            '\u{10ffff}',
        ];
        digs_cases::cases(256, |d| {
            // Half the strings need no escape: the whole-string copy.
            let plain = d.bool();
            let s: String = d
                .vec(0..24, |d| *d.pick(if plain { &CHARS[..4] } else { CHARS }))
                .into_iter()
                .chain(plain.then_some('\u{7f}'))
                .chain(plain.then_some('é'))
                .collect();
            let mut out = String::from("x");
            write_string(&mut out, &s);
            assert_eq!(out, format!("x{}", escape_char_by_char(&s)), "{s:?}");
            assert_eq!(parse(&out[1..]), Ok(Value::Str(s)));
        });
    }

    /// Lines a `stream-50` launch (seed 1) put on the socket.
    const WIRE_LINES: &[&str] = &[
        r#"{"type":"event","run":"cap","kind":"trace","node":12,"seq":141,"payload":{"seq":140,"asn":182,"node":12,"ev":"tx","dst":0,"class":"data","channel":2,"contention":false,"packet":{"flow":0,"seq":0,"origin":12}}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":0,"seq":173,"payload":{"seq":172,"asn":212,"node":0,"ev":"rx","src":22,"class":"data","packet":{"flow":1,"seq":0,"origin":22}}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":12,"seq":142,"payload":{"seq":141,"asn":182,"node":12,"ev":"nack","dst":0,"reason":"no-listener","packet":{"flow":0,"seq":0,"origin":12}}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":12,"seq":295,"payload":{"seq":294,"asn":335,"node":12,"ev":"parent-switch","old_best":0,"new_best":22,"new_second":0}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":3,"seq":75,"payload":{"seq":74,"asn":94,"node":3,"ev":"rank-change","old":65535,"new":2}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":0,"seq":127,"payload":{"seq":126,"asn":141,"node":0,"ev":"cell-alloc","slot":61,"offset":6,"child":22}}"#,
        r#"{"type":"event","run":"cap","kind":"trace","node":0,"seq":174,"payload":{"seq":173,"asn":212,"node":0,"ev":"delivered","packet":{"flow":1,"seq":0,"origin":22},"latency":150}}"#,
        r#"{"type":"event","run":"cap","kind":"epoch","seq":424,"payload":{"type":"epoch","epoch":1,"asn_start":500,"asn_end":1000,"counters":{"ack.data":4,"cca.deferrals":63,"chan.00":5,"chan.01":6,"chan.02":5,"chan.03":9,"chan.04":5,"chan.05":8,"chan.06":5,"chan.07":5,"chan.08":2,"chan.09":1,"chan.10":2,"chan.11":3,"chan.12":4,"chan.13":5,"chan.14":5,"chan.15":5,"churn.parent":4,"drop.collision":43,"drop.noise":2,"drop.queue":0,"drop.retry":3,"fwd.data":4,"jam.hits":0,"jam.opps":0,"jam.relearns":0,"jam.retargets":0,"jam.slots":0,"nack.data":21,"rx.data":49,"tx.beacon":15,"tx.data":25,"tx.routing":35},"gauges":{"chan.entropy_bp":9650,"nodes.joined":15,"nodes.total":50,"queue.max":2,"queue.total":9,"slotframe.util_bp":52,"trickle.max_slots":800,"trickle.min_slots":100},"flows":[{"flow":0,"generated":1,"delivered":2},{"flow":1,"generated":1,"delivered":1},{"flow":2,"generated":1,"delivered":0},{"flow":3,"generated":1,"delivered":0},{"flow":4,"generated":1,"delivered":0},{"flow":5,"generated":1,"delivered":0},{"flow":6,"generated":1,"delivered":0},{"flow":7,"generated":1,"delivered":0}],"latency_ms":{"count":3,"min":1030,"max":5140,"buckets":[[64,1],[68,1],[82,1]]},"etx":{"count":15,"mean":3.114581259727155,"min":0,"max":10},"duty_cycle":{"count":50,"mean":0.15701447999999998,"min":0.0045952,"max":0.220276}}}"#,
        r#"{"type":"event","run":"cap","kind":"meta","seq":817,"payload":{"type":"meta","epoch_slots":500,"cap":512,"epochs":2,"dropped_epochs":0}}"#,
        r#"{"type":"run-state","run":"cap","state":"done","asn":1000}"#,
        r#"{"type":"heartbeat","run":"cap","asn":1000,"sent":818,"dropped":0}"#,
    ];

    /// Appends a drawn document whose deepest path opens `spine` containers
    /// (one more where its leaf is `{}` or `[]`). A `clean` one draws only
    /// tokens the grammar accepts (`007` and `1.` among them), so its verdict
    /// turns on its nesting.
    fn draw_document(d: &mut digs_cases::Draw, out: &mut String, spine: usize, clean: bool) {
        const WS: &[&str] = &["", "", " ", "\n", "\t", "\r\n "];
        // Accepted first, refused from `SCALARS_OK` on.
        const SCALARS: &[&str] = &[
            "0",
            "007",
            "-0",
            "1.",
            "-1e-400",
            "-2.5e-2",
            "1E+2",
            "0.5",
            "9999999999999999999",
            "1844674407370955161",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "-18446744073709551615",
            "true",
            "false",
            "null",
            "{}",
            "[]",
            "{ }",
            "-",
            "1e309",
            "+1",
            ".5",
            "1e",
            "--1",
            "tru",
            "nul",
            "True",
            "[,]",
            "{,}",
        ];
        const SCALARS_OK: usize = 20;
        const PIECES: &[&str] = &[
            "a",
            "é",
            "→",
            " ",
            "\t",
            "\u{1}",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\b",
            "\\ud800",
            "\\udc00",
            "\\ud83d\\ude00",
            "\\uZZZZ",
            "\\u12",
            "\\x",
        ];
        const PIECES_OK: usize = 14;
        let ws = |d: &mut digs_cases::Draw, out: &mut String| out.push_str(d.pick::<&str>(WS));
        let string = |d: &mut digs_cases::Draw, out: &mut String| {
            out.push('"');
            for _ in 0..d.int(0usize..5) {
                out.push_str(d.pick::<&str>(if clean { &PIECES[..PIECES_OK] } else { PIECES }));
            }
            out.push('"');
        };
        ws(d, out);
        if spine == 0 {
            match d.int(0..3) {
                0 => string(d, out),
                1 => out.push_str(&(d.u64() >> d.int(0u32..64)).to_string()),
                _ => out.push_str(d.pick::<&str>(if clean {
                    &SCALARS[..SCALARS_OK]
                } else {
                    SCALARS
                })),
            }
        } else {
            let object = d.bool();
            out.push(if object { '{' } else { '[' });
            let n = d.int(1usize..=3);
            let deepest = d.int(0..n);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                if object {
                    ws(d, out);
                    string(d, out);
                    ws(d, out);
                    out.push(':');
                }
                let below = if i == deepest { spine - 1 } else { d.int(0..=(spine - 1).min(2)) };
                draw_document(d, out, below, clean);
            }
            ws(d, out);
            out.push(if object { '}' } else { ']' });
        }
        ws(d, out);
    }

    /// One byte edit: truncate, flip a bit, or insert a byte of JSON syntax.
    fn mutate(d: &mut digs_cases::Draw, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = d.int(0..=bytes.len());
        match d.int(0..3) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << d.int(0u32..8),
            _ => bytes.insert(at, *d.pick(b"{}[]\",:\\-.e0 ")),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `walk_fields` gives `parse`'s verdict — the same `Ok`, or the same
    /// message at the same byte — and hands out exactly the top-level fields
    /// `parse` built: each key slice spells its key and each value slice
    /// parses to its value.
    fn reads_as_parse_reads(text: &str) {
        let mut seen = Vec::new();
        let walked = walk_fields(text, |key, value| seen.push((key, value)));
        let parsed = parse(text);
        assert_eq!(walked, parsed.as_ref().map(drop).map_err(Clone::clone), "{text:?}");
        let built: &[(String, Value)] = match &parsed {
            Ok(Value::Obj(fields)) => fields,
            _ if walked.is_ok() => &[],
            _ => return,
        };
        assert_eq!(seen.len(), built.len(), "top-level fields of {text:?}");
        for ((key, raw), (name, value)) in seen.into_iter().zip(built) {
            assert_eq!(parse(&format!("\"{key}\"")).as_ref(), Ok(&Value::Str(name.clone())));
            assert_eq!(parse(raw).as_ref(), Ok(value), "{raw:?} in {text:?}");
        }
    }

    #[test]
    fn walk_fields_and_parse_read_one_grammar() {
        let (mut refused, mut accepted, mut too_deep) = (0, 0, 0);
        digs_cases::cases(256, |d| {
            let spine = *d.pick(&[0, 1, 2, 3, 5, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1]);
            let mut text = String::new();
            let clean = d.int(0..4) > 0;
            draw_document(d, &mut text, spine, clean);
            if d.int(0..4) == 0 {
                text = mutate(d, &text);
            }
            reads_as_parse_reads(&text);
            match parse(&text) {
                Ok(_) => accepted += 1,
                Err(e) if e.message.contains("nesting") => too_deep += 1,
                Err(_) => refused += 1,
            }
            let line = *d.pick(WIRE_LINES);
            reads_as_parse_reads(line);
            let mut edited = line.to_string();
            for _ in 0..d.int(1..=3) {
                edited = mutate(d, &edited);
            }
            reads_as_parse_reads(&edited);
        });
        // The drawn documents reach every verdict, the nesting bound included.
        assert!(
            accepted >= 64 && refused >= 64 && too_deep >= 10,
            "{accepted} {refused} {too_deep}"
        );
    }

    #[test]
    fn the_walking_builder_builds_nothing() {
        fn holds_nothing<T>() -> bool {
            std::mem::size_of::<T>() == 0
        }
        type W = Walk<fn(&'static str, &'static str)>;
        assert!(holds_nothing::<<W as Build<'static>>::Value>());
        assert!(holds_nothing::<<W as Build<'static>>::Text>());
        assert!(holds_nothing::<<W as Build<'static>>::Items>());
        assert!(holds_nothing::<<W as Build<'static>>::Fields>());
    }

    #[test]
    fn exponent_numbers_parse() {
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5e-2").unwrap().as_f64(), Some(-0.025));
    }
}
