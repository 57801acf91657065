//! One field table per record type: every wire message, journal record,
//! launch spec, trace event, telemetry line and canonical record is
//! declared by its rows, and its codec is read off them.
//!
//! A row gives a field's key (the Rust field's name), its type, the
//! [`WireField`] kind that codes it when the type alone does not say
//! (`secs: u64 as Secs`), and a default when an absent or `null` field is
//! not an error (`tail: bool = false`). From those rows [`message!`] builds
//! the type itself, its writer and decoder, and its [`MessageDef`]s: the
//! tables DESIGN prints, which a test holds the document to.
//!
//! The writer appends each row straight into the line: a comma unless the
//! row opens its object (an object's first row is the one that branches on
//! it), the quoted key and colon, then the value through [`write_uint`],
//! [`write_string`], [`write_num`] or a [`named!`] name. No [`Value`] is built on the way
//! out, and the rows are written in order, so identical records are
//! identical bytes. `None` is written `null` — or,
//! for an [`Omitted`] row, not at all — and absent and `null` read alike.
//! The decoder reads a parsed [`Value`]. Enum names come from one
//! `(Variant, "name")` list each ([`named!`]).
//!
//! [`message!`]: crate::message!
//! [`named!`]: crate::named!

use crate::{write_num, write_string, write_uint, Value};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// What a field holds on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A string.
    Str,
    /// A non-negative integer no larger than `max`, its Rust type's bound.
    Int {
        /// The largest value that fits.
        max: u64,
    },
    /// An integer that may be negative (an `i64`).
    Signed,
    /// A finite number; a non-finite one is written `null`.
    Num,
    /// `true` or `false`.
    Bool,
    /// Any JSON value, kept as it is (a launch spec, an event's payload).
    Raw,
    /// One of these names.
    Named(&'static [&'static str]),
    /// A count of simulated seconds whose slots fit the slot counter.
    Secs,
    /// The inner kind, or `null` for none.
    Opt(&'static Kind),
    /// The inner kind, or no key at all for none (an event's `node`).
    Omitted(&'static Kind),
    /// A two-element list.
    Pair(&'static Kind, &'static Kind),
    /// A list.
    List(&'static Kind),
    /// A list in ascending order, without repeats.
    Set(&'static Kind),
    /// An object from names to values of the inner kind, in the order
    /// written (telemetry's counters and gauges).
    Map(&'static Kind),
    /// An object with these fields.
    Obj(&'static [FieldDef]),
    /// These fields, written into the enclosing object (a filter's).
    Flat(&'static [FieldDef]),
    /// One of these messages, its name under `tag`, written into the
    /// enclosing object (a trace event's kind).
    OneOf {
        /// The key the message's name goes under.
        tag: &'static str,
        /// The messages it may be.
        messages: &'static [MessageDef],
    },
}

/// One row: a field's key and kind, and whether it may be left out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldDef {
    /// The field's key.
    pub key: &'static str,
    /// What the field holds.
    pub kind: Kind,
    /// Whether leaving the field out is an error. A field that is not
    /// required reads absent and `null` as its default.
    pub required: bool,
}

/// One message type: its name and its rows, in the order they are written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageDef {
    /// The tag of a wire message, journal record, telemetry line or trace
    /// event (`type`, `ev`), the `kind` of a spec.
    pub name: &'static str,
    /// The fields after that tag.
    pub fields: &'static [FieldDef],
}

/// Whether `name` is written as it stands between quotes: no quote,
/// backslash or control character. [`named!`](crate::named!) holds every
/// name to this when it compiles.
pub const fn plain(name: &str) -> bool {
    let bytes = name.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] < 0x20 || bytes[i] == b'"' || bytes[i] == b'\\' {
            return false;
        }
        i += 1;
    }
    true
}

/// How one kind of field is written and read. `T` is the Rust type it
/// codes; a marker type (digsd's `Secs`) codes a type it is not.
pub trait WireField<T = Self> {
    /// What the rows record for this kind.
    const KIND: Kind;
    /// Whether an absent key reads as none rather than an error.
    const OPTIONAL: bool = false;

    /// Appends the value.
    fn write(value: &T, out: &mut String);

    /// Reads the value found under `key`, which errors name.
    ///
    /// # Errors
    ///
    /// A value of the wrong type or out of range, naming `key`.
    fn decode(key: &str, value: &Value) -> Result<T, String>;

    /// Appends the field to the object being written; `head` is its quoted
    /// key and colon, after a comma unless the field opens the object.
    fn write_row(head: &str, value: &T, out: &mut String) {
        out.push_str(head);
        Self::write(value, out);
    }

    /// Reads the field from the object it belongs to.
    ///
    /// # Errors
    ///
    /// A required field that is absent, or [`WireField::decode`]'s.
    fn take(key: &str, obj: &Value) -> Result<T, String> {
        match obj.field(key) {
            Some(value) => Self::decode(key, value),
            None if Self::OPTIONAL => Self::decode(key, &Value::Null),
            None => Err(format!("missing field `{key}`")),
        }
    }
}

/// A type declared by [`message!`](crate::message!): its rows, written
/// into and read from an object.
pub trait Rows: Sized {
    /// What the rows are to an object they are written into: a struct's
    /// fields, or an enum's tag and the fields of its message.
    const ROWS: Kind;

    /// Appends every field, in row order, to the object being written:
    /// `first` when they open it, else after a comma.
    fn write_rows(&self, out: &mut String, first: bool);

    /// Reads every field from `obj`.
    ///
    /// # Errors
    ///
    /// The first field that is missing, of the wrong type or out of range.
    fn take_fields(obj: &Value) -> Result<Self, String>;

    /// Appends the rows as one object.
    fn write_json(&self, out: &mut String) {
        out.push('{');
        self.write_rows(out, true);
        out.push('}');
    }

    /// The rows as one compact object: a line, without its newline.
    fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The rows as a [`Value`]: the written line, parsed — for the cold
    /// paths that want a tree (a pretty golden, a spec inside a launch).
    fn to_value(&self) -> Value {
        crate::parse(&self.to_json_line()).expect("a written line parses")
    }
}

impl WireField for String {
    const KIND: Kind = Kind::Str;

    fn write(value: &String, out: &mut String) {
        write_string(out, value);
    }

    fn decode(key: &str, value: &Value) -> Result<String, String> {
        value.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` is not a string"))
    }
}

macro_rules! int_fields {
    ($($int:ty: $wide:ty),*) => {$(
        impl WireField for $int {
            const KIND: Kind = Kind::Int { max: <$int>::MAX as u64 };

            fn write(value: &$int, out: &mut String) {
                // Written at its own width: a narrow integer has fewer digits
                // for `write_uint` to look for.
                write_uint(out, *value as $wide);
            }

            fn decode(key: &str, value: &Value) -> Result<$int, String> {
                value.to_uint(key)
            }
        }
    )*};
}

int_fields!(u8: u8, u16: u16, u32: u32, u64: u64, usize: u64);

impl WireField for i64 {
    const KIND: Kind = Kind::Signed;

    fn write(value: &i64, out: &mut String) {
        if *value < 0 {
            out.push('-');
        }
        write_uint(out, value.unsigned_abs());
    }

    fn decode(key: &str, value: &Value) -> Result<i64, String> {
        // A negative integer parses as a float, exact to ±2^53.
        const BOUND: f64 = 9_223_372_036_854_775_808.0;
        match *value {
            Value::Int(n) => i64::try_from(n).map_err(|_| format!("`{key}`: {n} is out of range")),
            Value::Num(x) if x.fract() == 0.0 && (-BOUND..BOUND).contains(&x) => Ok(x as i64),
            _ => Err(format!("`{key}` is not an integer")),
        }
    }
}

impl WireField for f64 {
    const KIND: Kind = Kind::Num;

    fn write(value: &f64, out: &mut String) {
        write_num(out, *value);
    }

    fn decode(key: &str, value: &Value) -> Result<f64, String> {
        value.as_f64().ok_or_else(|| format!("`{key}` is not a number"))
    }
}

impl WireField for bool {
    const KIND: Kind = Kind::Bool;

    fn write(value: &bool, out: &mut String) {
        out.push_str(if *value { "true" } else { "false" });
    }

    fn decode(key: &str, value: &Value) -> Result<bool, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{key}` is not a boolean")),
        }
    }
}

impl WireField for Value {
    const KIND: Kind = Kind::Raw;

    fn write(value: &Value, out: &mut String) {
        value.write(out);
    }

    fn decode(_: &str, value: &Value) -> Result<Value, String> {
        Ok(value.clone())
    }
}

/// Reads `null` as none and anything else as the inner kind.
fn decode_opt<T, K: WireField<T>>(key: &str, value: &Value) -> Result<Option<T>, String> {
    match value {
        Value::Null => Ok(None),
        value => K::decode(key, value).map(Some),
    }
}

impl<T, K: WireField<T>> WireField<Option<T>> for Option<K> {
    const KIND: Kind = Kind::Opt(&K::KIND);
    const OPTIONAL: bool = true;

    fn write(value: &Option<T>, out: &mut String) {
        match value {
            Some(value) => K::write(value, out),
            None => out.push_str("null"),
        }
    }

    fn decode(key: &str, value: &Value) -> Result<Option<T>, String> {
        decode_opt::<T, K>(key, value)
    }
}

/// An optional field whose none is no key at all: an event frame's `node`,
/// a trace event's `dst` or `packet`.
pub struct Omitted<K>(PhantomData<K>);

impl<T, K: WireField<T>> WireField<Option<T>> for Omitted<K> {
    const KIND: Kind = Kind::Omitted(&K::KIND);
    const OPTIONAL: bool = true;

    fn write(value: &Option<T>, out: &mut String) {
        Option::<K>::write(value, out);
    }

    fn decode(key: &str, value: &Value) -> Result<Option<T>, String> {
        decode_opt::<T, K>(key, value)
    }

    fn write_row(head: &str, value: &Option<T>, out: &mut String) {
        if let Some(value) = value {
            K::write_row(head, value, out);
        }
    }
}

impl<A, B, KA: WireField<A>, KB: WireField<B>> WireField<(A, B)> for (KA, KB) {
    const KIND: Kind = Kind::Pair(&KA::KIND, &KB::KIND);

    fn write((a, b): &(A, B), out: &mut String) {
        out.push('[');
        KA::write(a, out);
        out.push(',');
        KB::write(b, out);
        out.push(']');
    }

    fn decode(key: &str, value: &Value) -> Result<(A, B), String> {
        match value.as_arr() {
            Some([a, b]) => {
                Ok((KA::decode(&format!("{key}[0]"), a)?, KB::decode(&format!("{key}[1]"), b)?))
            }
            _ => Err(format!("`{key}` is not a two-element list")),
        }
    }
}

/// Appends `items` as a list.
fn write_items<'a, T: 'a, K: WireField<T>>(
    items: impl IntoIterator<Item = &'a T>,
    out: &mut String,
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        K::write(item, out);
    }
    out.push(']');
}

/// The elements of a list field, each read under `key[]`.
fn elements<T, K: WireField<T>, C: FromIterator<T>>(key: &str, value: &Value) -> Result<C, String> {
    let items = value.as_arr().ok_or_else(|| format!("`{key}` is not a list"))?;
    let item = format!("{key}[]");
    items.iter().map(|v| K::decode(&item, v)).collect()
}

impl<T, K: WireField<T>> WireField<Vec<T>> for Vec<K> {
    const KIND: Kind = Kind::List(&K::KIND);

    fn write(values: &Vec<T>, out: &mut String) {
        write_items::<T, K>(values, out);
    }

    fn decode(key: &str, value: &Value) -> Result<Vec<T>, String> {
        elements::<T, K, _>(key, value)
    }
}

impl<T: Ord, K: WireField<T>> WireField<BTreeSet<T>> for BTreeSet<K> {
    const KIND: Kind = Kind::Set(&K::KIND);

    fn write(values: &BTreeSet<T>, out: &mut String) {
        write_items::<T, K>(values, out);
    }

    fn decode(key: &str, value: &Value) -> Result<BTreeSet<T>, String> {
        elements::<T, K, _>(key, value)
    }
}

/// Names mapped to values of kind `K`, as a list of pairs in the order
/// written. A name is borrowed when it comes from the program (a registry
/// key) and owned when it was read.
pub struct Map<K>(PhantomData<K>);

impl<T, K: WireField<T>> WireField<Vec<(Cow<'static, str>, T)>> for Map<K> {
    const KIND: Kind = Kind::Map(&K::KIND);

    fn write(entries: &Vec<(Cow<'static, str>, T)>, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(out, name);
            out.push(':');
            K::write(value, out);
        }
        out.push('}');
    }

    fn decode(key: &str, value: &Value) -> Result<Vec<(Cow<'static, str>, T)>, String> {
        let Value::Obj(entries) = value else {
            return Err(format!("`{key}` is not an object"));
        };
        entries
            .iter()
            .map(|(name, v)| {
                Ok((Cow::Owned(name.clone()), K::decode(&format!("{key}.{name}"), v)?))
            })
            .collect()
    }
}

/// A type whose rows are written into the enclosing object instead of
/// nested under a key of their own: a filter's fields, an event's kind.
pub struct Flat<T>(PhantomData<T>);

impl<T: Rows> WireField<T> for Flat<T> {
    const KIND: Kind = T::ROWS;

    fn write(value: &T, out: &mut String) {
        value.write_json(out);
    }

    fn decode(_: &str, value: &Value) -> Result<T, String> {
        T::take_fields(value)
    }

    fn write_row(_: &str, value: &T, out: &mut String) {
        value.write_rows(out, false);
    }

    fn take(_: &str, obj: &Value) -> Result<T, String> {
        T::take_fields(obj)
    }
}

/// Decodes one JSON text — a wire line, a record line, a golden file —
/// with `from_value`.
///
/// # Errors
///
/// Malformed JSON, or `from_value`'s.
pub fn decode_line<T>(
    line: &str,
    from_value: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, String> {
    from_value(&crate::parse(line).map_err(|e| e.to_string())?)
}

/// The name a protocol enum's object holds under its tag `key`.
///
/// # Errors
///
/// No `key`, or not a string there.
#[doc(hidden)]
pub fn tag<'a>(key: &str, obj: &'a Value) -> Result<&'a str, String> {
    let value = obj.field(key).ok_or_else(|| format!("missing field `{key}`"))?;
    value.as_str().ok_or_else(|| format!("`{key}` is not a string"))
}

/// The kind that codes a row: the one named after `as`, else the type.
#[doc(hidden)]
#[macro_export]
macro_rules! codec {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $kind:ty) => {
        $kind
    };
}

/// A row's [`FieldDef`].
#[doc(hidden)]
#[macro_export]
macro_rules! field_def {
    ($field:ident, $ty:ty, $kind:ty) => {
        $crate::message::FieldDef {
            key: stringify!($field),
            kind: <$kind as $crate::message::WireField<$ty>>::KIND,
            required: !<$kind as $crate::message::WireField<$ty>>::OPTIONAL,
        }
    };
    ($field:ident, $ty:ty, $kind:ty, $default:expr) => {
        $crate::message::FieldDef {
            key: stringify!($field),
            kind: <$kind as $crate::message::WireField<$ty>>::KIND,
            required: false,
        }
    };
}

/// Appends a row's field, after a comma, to the object being written.
#[doc(hidden)]
#[macro_export]
macro_rules! write_field {
    ($out:ident, $field:ident, $value:expr, $ty:ty, $kind:ty) => {
        <$kind as $crate::message::WireField<$ty>>::write_row(
            concat!(",\"", stringify!($field), "\":"),
            $value,
            $out,
        )
    };
}

/// Appends a message's tag: `first` when it opens the object.
#[doc(hidden)]
#[macro_export]
macro_rules! write_tag {
    ($out:ident, $first:expr, $key:literal, $tag:literal) => {
        if $first {
            $out.push_str(concat!("\"", $key, "\":\"", $tag, "\""));
        } else {
            $out.push_str(concat!(",\"", $key, "\":\"", $tag, "\""));
        }
    };
}

/// A struct's `write_rows`: a message struct's tag opens its rows; an
/// untagged struct's first field does, and so must always be written.
#[doc(hidden)]
#[macro_export]
macro_rules! write_rows {
    ($out:ident, $first:ident, $this:ident, [$tag:literal, $key:literal];
        $($field:ident: $ty:ty as $kind:ty),*) => {
        $crate::write_tag!($out, $first, $key, $tag);
        $( $crate::write_field!($out, $field, &$this.$field, $ty, $kind); )*
    };
    ($out:ident, $first:ident, $this:ident, [];
        $head:ident: $head_ty:ty as $head_kind:ty $(, $field:ident: $ty:ty as $kind:ty)*) => {
        const {
            assert!(
                !matches!(
                    <$head_kind as $crate::message::WireField<$head_ty>>::KIND,
                    $crate::message::Kind::Omitted(_)
                        | $crate::message::Kind::Flat(_)
                        | $crate::message::Kind::OneOf { .. }
                ),
                "a struct's first row opens its object, so it is always written",
            )
        };
        if $first {
            <$head_kind as $crate::message::WireField<$head_ty>>::write_row(
                concat!("\"", stringify!($head), "\":"),
                &$this.$head,
                $out,
            );
        } else {
            $crate::write_field!($out, $head, &$this.$head, $head_ty, $head_kind);
        }
        $( $crate::write_field!($out, $field, &$this.$field, $ty, $kind); )*
    };
    ($out:ident, $first:ident, $this:ident, [];) => {};
}

/// Reads a row's field from `obj`: absent or `null` is its default, when it
/// has one.
#[doc(hidden)]
#[macro_export]
macro_rules! take_field {
    ($obj:ident, $field:ident, $ty:ty, $kind:ty) => {
        <$kind as $crate::message::WireField<$ty>>::take(stringify!($field), $obj)
    };
    ($obj:ident, $field:ident, $ty:ty, $kind:ty, $default:expr) => {
        match $obj.present(stringify!($field)) {
            Some(value) => {
                <$kind as $crate::message::WireField<$ty>>::decode(stringify!($field), value)
            }
            None => Ok($default),
        }
    };
}

/// Declares a record type from its rows.
///
/// A struct implements [`Rows`](crate::message::Rows) and codes as an
/// object. Given `: "name" by "key"`, it is a message of its own — a launch
/// spec (`by "kind"`), a telemetry line or an event frame (`by "type"`) —
/// whose object opens with `"key":"name"`; it gets `MESSAGE`, `MESSAGES`,
/// `to_json` and `from_json`. An enum is a protocol whose messages are
/// tagged under `key`: each variant is one message, its `name()` that tag,
/// and the enum gets `MESSAGES`, `encode` and its [`Rows`] (an event's kind
/// is written into the event's object through them). A variant under
/// `structs` holds a message struct declared `by` the enum's key, which
/// writes and reads its own rows.
///
/// [`Rows`]: crate::message::Rows
#[macro_export]
macro_rules! message {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $tag:literal by $key:literal)? {
            $(
                $(#[$field_meta:meta])*
                $field:ident: $ty:ty $(as $kind:ty)? $(= $default:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $name {
            /// The rows, in the order they are written.
            pub const FIELDS: &'static [$crate::message::FieldDef] = &[
                $( $crate::field_def!($field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?), )*
            ];
        }

        impl $crate::message::Rows for $name {
            const ROWS: $crate::message::Kind = $crate::message::Kind::Flat($name::FIELDS);

            fn write_rows(&self, out: &mut String, first: bool) {
                $crate::write_rows!(out, first, self, [$($tag, $key)?];
                    $( $field: $ty as $crate::codec!($ty $(, $kind)?) ),*);
            }

            fn take_fields(obj: &$crate::Value) -> Result<$name, String> {
                Ok($name {
                    $( $field: $crate::take_field!(
                        obj, $field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?
                    )?, )*
                })
            }
        }

        impl $crate::message::WireField for $name {
            const KIND: $crate::message::Kind = $crate::message::Kind::Obj($name::FIELDS);

            fn write(value: &$name, out: &mut String) {
                $crate::message::Rows::write_json(value, out);
            }

            fn decode(_: &str, value: &$crate::Value) -> Result<$name, String> {
                <$name as $crate::message::Rows>::take_fields(value)
            }
        }

        $(
            impl $name {
                /// This message's table entry: its name and its rows.
                pub const MESSAGE: $crate::message::MessageDef =
                    $crate::message::MessageDef { name: $tag, fields: $name::FIELDS };

                /// This message's table, of one entry.
                pub const MESSAGES: &'static [$crate::message::MessageDef] = &[$name::MESSAGE];

                /// The written object as a tree, its name first.
                pub fn to_json(&self) -> $crate::Value {
                    $crate::message::Rows::to_value(self)
                }

                /// Decodes from the wire (the name is the caller's to
                /// dispatch on). Absent or `null` fields take their defaults;
                /// a field of the wrong type or out of range is an error.
                pub fn from_json(v: &$crate::Value) -> Result<$name, String> {
                    <$name as $crate::message::Rows>::take_fields(v)
                }
            }
        )?
    };

    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal by $key:literal {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $tag:literal $({
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident: $ty:ty $(as $kind:ty)? $(= $default:expr)?
                    ),* $(,)?
                })?,
            )*
        }
        $(structs {
            $( $(#[$struct_meta:meta])* $wrapper:ident($struct:ty), )*
        })?
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$variant_meta])* $variant $({ $( $(#[$field_meta])* $field: $ty, )* })?, )*
            $($( $(#[$struct_meta])* $wrapper($struct), )*)?
        }

        impl $name {
            /// This protocol's table: one message type per entry.
            pub const MESSAGES: &'static [$crate::message::MessageDef] = &[
                $(
                    $crate::message::MessageDef {
                        name: $tag,
                        fields: &[$($(
                            $crate::field_def!(
                                $field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?
                            ),
                        )*)?],
                    },
                )*
                $($( <$struct>::MESSAGE, )*)?
            ];

            /// The message's name: what its object holds under its tag.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                    $($( $name::$wrapper(_) => <$struct>::MESSAGE.name, )*)?
                }
            }

            /// Encodes to one line (no trailing newline).
            pub fn encode(&self) -> String {
                $crate::message::Rows::to_json_line(self)
            }
        }

        impl $crate::message::Rows for $name {
            const ROWS: $crate::message::Kind =
                $crate::message::Kind::OneOf { tag: $key, messages: $name::MESSAGES };

            fn write_rows(&self, out: &mut String, first: bool) {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            $crate::write_tag!(out, first, $key, $tag);
                            $($( $crate::write_field!(
                                out, $field, $field, $ty, $crate::codec!($ty $(, $kind)?)
                            ); )*)?
                        }
                    )*
                    $($( $name::$wrapper(message) => message.write_rows(out, first), )*)?
                }
            }

            fn take_fields(v: &$crate::Value) -> Result<$name, String> {
                match $crate::message::tag($key, v)? {
                    $(
                        $tag => Ok($name::$variant $({
                            $( $field: $crate::take_field!(
                                v, $field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?
                            )?, )*
                        })?),
                    )*
                    other => {
                        $($(
                            if other == <$struct>::MESSAGE.name {
                                return <$struct as $crate::message::Rows>::take_fields(v)
                                    .map($name::$wrapper);
                            }
                        )*)?
                        Err(format!(concat!("unknown ", $what, " \"{}\""), other))
                    }
                }
            }
        }
    };
}

/// Declares an enum from one `(Variant, "name")` list: its names
/// (`as_str`, `parse`, whose error lists the choices), `ALL` variants in
/// order, and its [`WireField`](crate::message::WireField).
#[macro_export]
macro_rules! named {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal {
            $( $(#[$variant_meta:meta])* $variant:ident = $wire:literal, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$variant_meta])* $variant, )*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The variant's name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )*
                }
            }

            /// Parses a name.
            ///
            /// # Errors
            ///
            /// Any other string, with the names it could have been.
            pub fn parse(s: &str) -> Result<$name, String> {
                match s {
                    $( $wire => Ok($name::$variant), )*
                    other => Err(format!(
                        concat!("unknown ", $what, " `{}` ({})"),
                        other,
                        [$($wire),*].join("|")
                    )),
                }
            }
        }

        const _: () = assert!(
            $($crate::message::plain($wire))&&*,
            concat!("a ", $what, " name needs escaping")
        );

        impl $crate::message::WireField for $name {
            const KIND: $crate::message::Kind = $crate::message::Kind::Named(&[$($wire),*]);

            fn write(value: &$name, out: &mut String) {
                // A push per name: each copies a constant number of bytes.
                match value {
                    $( $name::$variant => out.push_str(concat!("\"", $wire, "\"")), )*
                }
            }

            fn decode(key: &str, value: &$crate::Value) -> Result<$name, String> {
                $name::parse(value.as_str().ok_or_else(|| format!("`{key}` is not a string"))?)
            }
        }
    };
}
