//! Offline stand-in for `serde_json`: resolves the dependency. The one call
//! in the tree (`digs-cli --json`) is outside the benchmark's build and
//! reports an error here instead of writing wrong output.

/// Why the stand-in cannot serialise.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json is an offline stand-in in this build and cannot serialise")
    }
}

impl std::error::Error for Error {}

/// Always `Err`: see the crate comment.
pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String, Error> {
    Err(Error)
}
