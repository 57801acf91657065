//! The four workloads: [`set_up`] is everything before the first measured
//! repeat, [`Workload::repeat`] returns the host seconds of its timed part,
//! and [`Workload::verify`] reports the checks made outside it.

pub mod gate;
pub mod sim;
pub mod stream;

use crate::spans::Tracer;
use crate::stats::percentile;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How much of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The workload as `BENCHMARK.json` describes it.
    Full,
    /// The same shape with fewer inputs: how a traced run of another
    /// workload exercises this one's layers.
    Probe,
    /// A few hundred slots, for the schema test.
    Smoke,
}

/// What a workload's correctness checks found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// FNV-1a-64 of the workload's canonical output bytes.
    pub digest: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

/// The workload names of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `large-150`
    Large,
    /// `idle-3stack`
    Idle,
    /// `stream-50`
    Stream,
    /// `gate-small`
    Gate,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::Large, Kind::Idle, Kind::Stream, Kind::Gate];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Large => "large-150",
            Kind::Idle => "idle-3stack",
            Kind::Stream => "stream-50",
            Kind::Gate => "gate-small",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload set up and ready to repeat.
pub trait Workload {
    /// One repeat: host seconds of each timed part (one per leg). Checks of
    /// what the repeat produced happen here too, after the clock stopped.
    fn repeat(&mut self, t: &mut Tracer) -> Vec<f64>;

    /// Simulated node-seconds one repeat covers.
    fn node_secs_per_repeat(&self) -> f64;

    /// Repeats the checks need before the run may stop.
    fn min_repeats(&self) -> usize {
        1
    }

    /// Per-layer samples that need the repeats to be over (traced runs).
    fn sample_after_repeats(&mut self, _t: &mut Tracer) {}

    /// The correctness checks, made outside every timed region.
    fn verify(&self) -> Verdict;
}

/// Everything before the first measured repeat of `kind`.
pub fn set_up(kind: Kind, seed: u64, size: Size, t: &mut Tracer) -> Box<dyn Workload> {
    match kind {
        Kind::Large => Box::new(sim::SimLegs::large(seed, size, t)),
        Kind::Idle => Box::new(sim::SimLegs::idle(seed, size, t)),
        Kind::Stream => Box::new(stream::Stream::set_up(seed, size, t)),
        Kind::Gate => Box::new(gate::Gate::set_up(seed, size, t)),
    }
}

/// Simulated node-seconds per host second: a repeat's node-seconds over the
/// sum of its legs' host seconds, each leg's being the first quartile of its
/// repeats. The first quartile, not the median: on a shared two-core box
/// the slower half of the repeats is mostly the host's scheduler, and across
/// ten runs the first quartile repeats about twice as exactly (README,
/// "Steadiness"). The median and the tail are printed beside it.
pub fn node_secs_per_s(node_secs_per_repeat: f64, repeats: &[Vec<f64>]) -> f64 {
    let legs = repeats.first().map_or(0, Vec::len);
    let host: f64 = (0..legs)
        .map(|leg| percentile(&repeats.iter().map(|r| r[leg]).collect::<Vec<_>>(), 25.0))
        .sum();
    node_secs_per_repeat / host
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repo's root, two levels above this package.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Where the benchmark writes: `crates/perf/out`, which git ignores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A fresh directory under [`out_dir`] for files a workload needs while it
/// runs (the daemon's journal, blessed goldens). The owner removes it.
///
/// # Panics
///
/// Panics when the directory cannot be created.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    dir
}
