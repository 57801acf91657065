//! Empty: see Cargo.toml.
