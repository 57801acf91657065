//! Shared harness for the per-figure benchmark binaries (`src/bin/`).
//!
//! Every binary regenerates one table or figure from the paper's
//! evaluation: it runs the corresponding scenario for a number of flow
//! sets, prints the same series the paper plots, and closes with a
//! paper-vs-measured comparison block for EXPERIMENTS.md.
//!
//! Scale knobs (the paper uses 300/220/300 flow sets; the defaults here
//! are sized for a laptop run):
//!
//! - `DIGS_SETS` — number of flow-set repetitions per protocol;
//! - `DIGS_SECS` — simulated seconds per run;
//! - `DIGS_TRACE_CAP` — flight-recorder ring capacity for the one
//!   drill-down run of `fig04`, `fig05` and `threeway_comparison`.

use digs::config::{NetworkConfig, Protocol};
use digs::results::RunResults;
use digs_conformance::pool;

/// Number of flow sets to run, from `DIGS_SETS` (default `default`).
pub fn sets(default: u64) -> u64 {
    std::env::var("DIGS_SETS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Simulated seconds per run, from `DIGS_SECS` (default `default`).
pub fn secs(default: u64) -> u64 {
    std::env::var("DIGS_SECS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Flight-recorder ring capacity for a binary's drill-down run, from
/// `DIGS_TRACE_CAP` (unset, unparsable or 0 = no drill-down). The libraries
/// do not read it: pass it to [`NetworkConfig::trace_cap`].
pub fn trace_cap() -> Option<usize> {
    std::env::var("DIGS_TRACE_CAP").ok().and_then(|s| s.trim().parse().ok()).filter(|&cap| cap > 0)
}

/// Runs `scenario(seed)` for seeds `1..=sets`, fanned out over the
/// available cores (the conformance harness's worker pool), each for
/// `run_secs` simulated seconds. Results come back in seed order.
pub fn run_seeds(
    scenario: impl Fn(u64) -> NetworkConfig + Send + Sync,
    sets: u64,
    run_secs: u64,
) -> Vec<RunResults> {
    let seeds: Vec<u64> = (1..=sets).collect();
    let jobs = pool::default_jobs(seeds.len());
    pool::par_map(seeds, jobs, |seed| digs::experiment::run_for(scenario(seed), run_secs))
}

/// Runs a scenario for both protocols; returns `(digs, orchestra)`.
pub fn run_both(
    scenario: impl Fn(Protocol, u64) -> NetworkConfig + Send + Sync,
    sets: u64,
    run_secs: u64,
) -> (Vec<RunResults>, Vec<RunResults>) {
    let digs = run_seeds(|seed| scenario(Protocol::Digs, seed), sets, run_secs);
    let orchestra = run_seeds(|seed| scenario(Protocol::Orchestra, seed), sets, run_secs);
    (digs, orchestra)
}

/// Prints the canonical `digs-conformance` JSONL record of every run
/// (seeds `1..=runs.len()`), regenerating each seed's config for its
/// flow specs. The figure binaries emit these after their tables so any
/// run's metrics can be diffed or fed to the gate's tooling.
pub fn print_records(
    scenario_label: &str,
    scenario: impl Fn(u64) -> NetworkConfig,
    runs: &[RunResults],
    run_secs: u64,
    ctx: digs_conformance::MetricContext,
) {
    println!("\ncanonical records ({scenario_label}, digs-conformance JSONL)");
    for (i, results) in runs.iter().enumerate() {
        let seed = i as u64 + 1;
        let config = scenario(seed);
        let record = digs_conformance::RunMetrics::from_results(
            scenario_label,
            config.protocol.name(),
            seed,
            run_secs,
            results,
            &config.flows,
            ctx,
        );
        println!("{}", record.to_line());
    }
}

/// Prints the standard paper-vs-measured closing block.
pub fn print_comparisons(rows: &[(&str, &str, f64)]) {
    println!();
    println!("paper vs measured");
    println!("{}", "-".repeat(72));
    for (metric, paper, measured) in rows {
        println!("{}", digs_metrics::format::compare_row(metric, paper, *measured));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_sim::topology::Topology;

    #[test]
    fn env_knobs_default() {
        assert_eq!(sets(7), 7);
        assert_eq!(secs(60), 60);
    }

    #[test]
    fn run_seeds_returns_one_result_per_seed() {
        let scenario = |seed: u64| {
            NetworkConfig::builder(Topology::testbed_a_half())
                .protocol(Protocol::Digs)
                .seed(seed)
                .random_flows(1, 300, seed)
                .build()
        };
        let results = run_seeds(scenario, 2, 30);
        assert_eq!(results.len(), 2);
    }
}
