//! `digs-perf` — the repo's benchmark. `BENCHMARK.json` at the repo root
//! names its workloads and metrics; `README.md` beside this package says
//! what each measures, why, and how steady it is.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions: nothing here changes or instruments the program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod probes;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod workloads;
