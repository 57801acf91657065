//! A whole industrial estate in one invocation: a fleet of independent
//! oil-field and factory-floor networks plus one spatially sharded
//! 2000-device campus network, reduced into a single fleet SLO report.
//!
//! This is the `digs-fleet` subsystem end to end — template stamping
//! ([`digs_fleet::FleetParams`]), the shared worker pool, shard
//! boundary-interference exchange, and `LogHistogram`-based latency
//! aggregation — the same pipeline `digs-cli fleet run` drives.
//!
//! ```sh
//! cargo run --release --example plant_campus
//! ```
//!
//! The run is deterministic: same spec, same report, regardless of
//! worker count (`digs-cli fleet run --jobs N` runs the same pipeline on
//! a chosen count).

use digs_fleet::{aggregate_partial, run_fleet, FleetParams, RunPolicy};

fn main() {
    // Eight oil fields, eight factory floors (a mixed fleet from seed 1),
    // and one sharded campus: 2000 devices in 100-device shards that
    // exchange boundary interference at slotframe-window edges.
    let params = FleetParams {
        networks: 16,
        sharded_devices: 2000,
        sharded_seed: Some(42),
        ..FleetParams::default()
    };

    println!(
        "plant campus: {} networks, {} nodes, {} s simulated each",
        params.networks(),
        params.total_nodes(),
        params.secs
    );

    let outcome = run_fleet(&params, None, &RunPolicy::default()).expect("a valid fleet");

    let report =
        aggregate_partial(&outcome.summaries, params.secs, outcome.degraded, outcome.skipped);
    println!("\n{}", digs_fleet::render(&report));

    // Shard utilization: how evenly the windowed shard loop kept its
    // workers busy (the slowest shard sets each window's pace).
    for (name, busy) in &outcome.shard_busy {
        let max = busy.iter().map(|d| d.as_secs_f64()).fold(1e-9_f64, f64::max);
        let util: Vec<String> =
            busy.iter().map(|d| format!("{:.0}%", 100.0 * d.as_secs_f64() / max)).collect();
        println!("shard utilization `{name}`: [{}]", util.join(", "));
    }
    println!(
        "simulated {} node-seconds in {:.1} s of wall clock ({:.0} node-sec/core-sec)",
        outcome.node_secs,
        outcome.wall.as_secs_f64(),
        outcome.node_secs as f64 / outcome.serial_equivalent.as_secs_f64().max(1e-9)
    );

    if !report.slo.passed {
        std::process::exit(1);
    }
}
