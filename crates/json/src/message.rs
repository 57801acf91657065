//! One field table per record type: every wire message, journal record,
//! launch spec and canonical record is declared by its rows, and its codec
//! is read off them.
//!
//! A row gives a field's key (the Rust field's name), its type, the
//! [`WireField`] kind that codes it when the type alone does not say
//! (`secs: u64 as Secs`), and a default when an absent or `null` field is
//! not an error (`tail: bool = false`). From those rows [`message!`] builds
//! the type itself, its encoder and decoder over [`Value`], and its
//! [`MessageDef`]s: the tables DESIGN prints, which a test holds the
//! document to. The encoder writes the rows in order, so identical records
//! are identical bytes. `None` is written `null`, and absent and `null` read
//! alike. Enum names come from one `(Variant, "name")` list each
//! ([`named!`]).
//!
//! [`message!`]: crate::message!
//! [`named!`]: crate::named!

use crate::Value;
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
    /// A finite number; a non-finite one is written `null`.
    Num,
    /// `true` or `false`.
    Bool,
    /// Any JSON value, kept as it is (a launch spec).
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
    /// An object with these fields.
    Obj(&'static [FieldDef]),
    /// These fields, written into the enclosing object (a filter's).
    Flat(&'static [FieldDef]),
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
    /// The `type` of a wire message or journal record, the `kind` of a spec.
    pub name: &'static str,
    /// The fields after that tag.
    pub fields: &'static [FieldDef],
}

/// How one kind of field is written and read. `T` is the Rust type it
/// codes; a marker type (digsd's `Secs`) codes a type it is not.
pub trait WireField<T = Self> {
    /// What the rows record for this kind.
    const KIND: Kind;
    /// Whether an absent key reads as none rather than an error.
    const OPTIONAL: bool = false;

    /// The field's value.
    fn encode(value: &T) -> Value;

    /// Reads the value found under `key`, which errors name.
    ///
    /// # Errors
    ///
    /// A value of the wrong type or out of range, naming `key`.
    fn decode(key: &str, value: &Value) -> Result<T, String>;

    /// Appends the field to the object being written.
    fn put(key: &str, value: &T, out: &mut Vec<(String, Value)>) {
        out.push((key.to_string(), Self::encode(value)));
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

/// A struct declared by [`message!`](crate::message!): its rows, written
/// into and read from an object.
pub trait Rows: Sized {
    /// The rows, in the order they are written.
    const FIELDS: &'static [FieldDef];

    /// Appends every field, in row order.
    fn put_fields(&self, out: &mut Vec<(String, Value)>);

    /// Reads every field from `obj`.
    ///
    /// # Errors
    ///
    /// The first field that is missing, of the wrong type or out of range.
    fn take_fields(obj: &Value) -> Result<Self, String>;

    /// The rows as one object, in row order.
    fn to_value(&self) -> Value {
        let mut out = Vec::with_capacity(Self::FIELDS.len());
        self.put_fields(&mut out);
        Value::Obj(out)
    }
}

impl WireField for String {
    const KIND: Kind = Kind::Str;

    fn encode(value: &String) -> Value {
        Value::Str(value.clone())
    }

    fn decode(key: &str, value: &Value) -> Result<String, String> {
        value.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` is not a string"))
    }
}

macro_rules! int_fields {
    ($($int:ty),*) => {$(
        impl WireField for $int {
            const KIND: Kind = Kind::Int { max: <$int>::MAX as u64 };

            fn encode(value: &$int) -> Value {
                Value::Int(*value as u64)
            }

            fn decode(key: &str, value: &Value) -> Result<$int, String> {
                value.to_uint(key)
            }
        }
    )*};
}

int_fields!(u16, u32, u64, usize);

impl WireField for f64 {
    const KIND: Kind = Kind::Num;

    fn encode(value: &f64) -> Value {
        Value::num(*value)
    }

    fn decode(key: &str, value: &Value) -> Result<f64, String> {
        value.as_f64().ok_or_else(|| format!("`{key}` is not a number"))
    }
}

impl WireField for bool {
    const KIND: Kind = Kind::Bool;

    fn encode(value: &bool) -> Value {
        Value::Bool(*value)
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

    fn encode(value: &Value) -> Value {
        value.clone()
    }

    fn decode(_: &str, value: &Value) -> Result<Value, String> {
        Ok(value.clone())
    }
}

impl<T, K: WireField<T>> WireField<Option<T>> for Option<K> {
    const KIND: Kind = Kind::Opt(&K::KIND);
    const OPTIONAL: bool = true;

    fn encode(value: &Option<T>) -> Value {
        value.as_ref().map_or(Value::Null, K::encode)
    }

    fn decode(key: &str, value: &Value) -> Result<Option<T>, String> {
        match value {
            Value::Null => Ok(None),
            value => K::decode(key, value).map(Some),
        }
    }
}

impl<A, B, KA: WireField<A>, KB: WireField<B>> WireField<(A, B)> for (KA, KB) {
    const KIND: Kind = Kind::Pair(&KA::KIND, &KB::KIND);

    fn encode((a, b): &(A, B)) -> Value {
        Value::Arr(vec![KA::encode(a), KB::encode(b)])
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

/// The elements of a list field, each read under `key[]`.
fn elements<T, K: WireField<T>, C: FromIterator<T>>(key: &str, value: &Value) -> Result<C, String> {
    let items = value.as_arr().ok_or_else(|| format!("`{key}` is not a list"))?;
    let item = format!("{key}[]");
    items.iter().map(|v| K::decode(&item, v)).collect()
}

impl<T, K: WireField<T>> WireField<Vec<T>> for Vec<K> {
    const KIND: Kind = Kind::List(&K::KIND);

    fn encode(values: &Vec<T>) -> Value {
        Value::Arr(values.iter().map(K::encode).collect())
    }

    fn decode(key: &str, value: &Value) -> Result<Vec<T>, String> {
        elements::<T, K, _>(key, value)
    }
}

impl<T: Ord, K: WireField<T>> WireField<BTreeSet<T>> for BTreeSet<K> {
    const KIND: Kind = Kind::Set(&K::KIND);

    fn encode(values: &BTreeSet<T>) -> Value {
        Value::Arr(values.iter().map(K::encode).collect())
    }

    fn decode(key: &str, value: &Value) -> Result<BTreeSet<T>, String> {
        elements::<T, K, _>(key, value)
    }
}

/// A struct whose fields are written into the enclosing object instead of
/// nested under a key of their own.
pub struct Flat<T>(PhantomData<T>);

impl<T: Rows> WireField<T> for Flat<T> {
    const KIND: Kind = Kind::Flat(T::FIELDS);

    fn encode(value: &T) -> Value {
        value.to_value()
    }

    fn decode(_: &str, value: &Value) -> Result<T, String> {
        T::take_fields(value)
    }

    fn put(_: &str, value: &T, out: &mut Vec<(String, Value)>) {
        value.put_fields(out);
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
/// object; given `= "name"`, it is a launch spec whose `kind` is that name,
/// and gets `MESSAGES`, `to_json` and `from_json`. An enum is a protocol:
/// each variant is one message tagged by its `type`, and the enum gets
/// `MESSAGES`, `encode` and `from_value`. Variants under `framed` keep a
/// codec of their own; only their `encode` and `MESSAGE` are taken.
#[macro_export]
macro_rules! message {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(= $tag:literal)? {
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

        impl $crate::message::Rows for $name {
            const FIELDS: &'static [$crate::message::FieldDef] = &[
                $( $crate::field_def!($field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?), )*
            ];

            fn put_fields(&self, out: &mut Vec<(String, $crate::Value)>) {
                $(
                    <$crate::codec!($ty $(, $kind)?) as $crate::message::WireField<$ty>>::put(
                        stringify!($field),
                        &self.$field,
                        out,
                    );
                )*
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
            const KIND: $crate::message::Kind =
                $crate::message::Kind::Obj(<$name as $crate::message::Rows>::FIELDS);

            fn encode(value: &$name) -> $crate::Value {
                $crate::message::Rows::to_value(value)
            }

            fn decode(_: &str, value: &$crate::Value) -> Result<$name, String> {
                <$name as $crate::message::Rows>::take_fields(value)
            }
        }

        $(
            impl $name {
                /// This spec's table: its `kind` and its rows.
                pub const MESSAGES: &'static [$crate::message::MessageDef] =
                    &[$crate::message::MessageDef {
                        name: $tag,
                        fields: <$name as $crate::message::Rows>::FIELDS,
                    }];

                /// Encodes for the wire: the `kind`, then the rows.
                pub fn to_json(&self) -> $crate::Value {
                    let mut out = vec![("kind".to_string(), $crate::Value::Str($tag.to_string()))];
                    $crate::message::Rows::put_fields(self, &mut out);
                    $crate::Value::Obj(out)
                }

                /// Decodes from the wire (the `kind` is the caller's to
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
        pub enum $name:ident: $what:literal {
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
        $(framed {
            $( $(#[$framed_meta:meta])* $framed:ident($framed_ty:ty), )*
        })?
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$variant_meta])* $variant $({ $( $(#[$field_meta])* $field: $ty, )* })?, )*
            $($( $(#[$framed_meta])* $framed($framed_ty), )*)?
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
                $($( <$framed_ty>::MESSAGE, )*)?
            ];

            /// Encodes to one line (no trailing newline).
            pub fn encode(&self) -> String {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            #[allow(unused_mut)]
                            let mut out =
                                vec![("type".to_string(), $crate::Value::Str($tag.to_string()))];
                            $($(
                                <$crate::codec!($ty $(, $kind)?) as $crate::message::WireField<$ty>>::put(
                                    stringify!($field),
                                    $field,
                                    &mut out,
                                );
                            )*)?
                            $crate::Value::Obj(out).to_compact()
                        }
                    )*
                    $($( $name::$framed(message) => message.encode(), )*)?
                }
            }

            /// Decodes a message read as a `Value`: its `type` picks the
            /// rows.
            fn from_value(v: &$crate::Value) -> Result<$name, String> {
                match v.str("type")? {
                    $(
                        $tag => Ok($name::$variant $({
                            $( $field: $crate::take_field!(
                                v, $field, $ty, $crate::codec!($ty $(, $kind)?) $(, $default)?
                            )?, )*
                        })?),
                    )*
                    other => Err(format!(concat!("unknown ", $what, " type `{}`"), other)),
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

        impl $crate::message::WireField for $name {
            const KIND: $crate::message::Kind = $crate::message::Kind::Named(&[$($wire),*]);

            fn encode(value: &$name) -> $crate::Value {
                $crate::Value::Str(value.as_str().to_string())
            }

            fn decode(key: &str, value: &$crate::Value) -> Result<$name, String> {
                $name::parse(value.as_str().ok_or_else(|| format!("`{key}` is not a string"))?)
            }
        }
    };
}
