//! The field kind digsd adds to the row tables of
//! [`digs_json::message`](mod@digs_json::message): [`Verbatim`].

use digs_json::message::{Kind, WireField};
use digs_json::Value;

/// A JSON text held as its bytes and written as they stand: an event
/// frame's payload, one line of a run's own JSONL.
pub(crate) struct Verbatim;

impl WireField<String> for Verbatim {
    const KIND: Kind = Kind::Raw;

    fn write(text: &String, out: &mut String) {
        out.push_str(text);
    }

    fn decode(_: &str, value: &Value) -> Result<String, String> {
        Ok(value.to_compact())
    }
}
