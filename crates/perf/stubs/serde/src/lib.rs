//! Offline stand-in for `serde`: the two trait names and no-op derives.
//! See `../serde_derive`.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the published trait's name; the no-op derive never implements it.
pub trait Serialize {}

/// Marker with the published trait's name; the no-op derive never implements it.
pub trait Deserialize<'de>: Sized {}
