//! A whole industrial estate in one invocation: a fleet of independent
//! oil-field and factory-floor networks plus one spatially sharded
//! 2000-device campus network, reduced into a single fleet SLO report.
//!
//! This is the `digs-fleet` subsystem end to end — template stamping
//! ([`digs_fleet::FleetSpec`]), the shared worker pool, shard
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

use digs_fleet::{aggregate, run_fleet, FleetSpec, RunPolicy, ShardedSpec, SloPolicy, Template};

fn main() {
    // Eight oil fields, eight factory floors, and one sharded campus:
    // 2000 devices in 100-device shards that exchange boundary
    // interference at slotframe-window edges.
    let spec = FleetSpec::new()
        .group(Template::OilField, 8, 1)
        .group(Template::FactoryFloor, 8, 1)
        .sharded(ShardedSpec::sized("campus-2000", 2000, 42));

    println!(
        "plant campus: {} networks, {} nodes, {} s simulated each",
        spec.networks(),
        spec.total_nodes(),
        spec.secs
    );

    let outcome = run_fleet(&spec, None, None, &RunPolicy::default());

    let report = aggregate(&outcome.summaries, spec.secs);
    let policy = SloPolicy::default();
    println!("\n{}", digs_fleet::render(&report.to_json(&policy)).expect("a canonical report"));

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

    if !report.breaches(&policy).is_empty() {
        std::process::exit(1);
    }
}
