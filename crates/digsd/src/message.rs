//! The two field kinds digsd adds to the row tables of
//! [`digs_json::message`](mod@digs_json::message): [`Secs`] and
//! [`Verbatim`].

use digs_json::message::{Kind, WireField};
use digs_json::Value;
use digs_sim::time::SLOTS_PER_SECOND;

/// Simulated seconds, which a run turns into slots (`Asn::from_secs`,
/// `SingleSpec::total_slots`): a count whose slots do not fit the slot
/// counter is refused.
pub(crate) struct Secs;

impl WireField<u64> for Secs {
    const KIND: Kind = Kind::Secs;

    fn write(secs: &u64, out: &mut String) {
        digs_json::write_uint(out, *secs);
    }

    fn decode(key: &str, value: &Value) -> Result<u64, String> {
        let secs: u64 = value.to_uint(key)?;
        match secs.checked_mul(SLOTS_PER_SECOND) {
            Some(_) => Ok(secs),
            None => Err(format!("`{key}`: {secs} s is more slots than a run can count")),
        }
    }
}

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
