//! The one field kind digsd adds to the row tables of
//! [`digs_json::message`](mod@digs_json::message): [`Secs`].

use digs_json::message::{Kind, WireField};
use digs_json::Value;
use digs_sim::time::SLOTS_PER_SECOND;

/// Simulated seconds, which a run turns into slots (`Asn::from_secs`,
/// `SingleSpec::total_slots`): a count whose slots do not fit the slot
/// counter is refused.
pub(crate) struct Secs;

impl WireField<u64> for Secs {
    const KIND: Kind = Kind::Secs;

    fn encode(secs: &u64) -> Value {
        Value::Int(*secs)
    }

    fn decode(key: &str, value: &Value) -> Result<u64, String> {
        let secs: u64 = value.to_uint(key)?;
        match secs.checked_mul(SLOTS_PER_SECOND) {
            Some(_) => Ok(secs),
            None => Err(format!("`{key}`: {secs} s is more slots than a run can count")),
        }
    }
}
