//! Fleet throughput benchmark — headline number: simulated
//! node-seconds per core-second.
//!
//! Runs a standard mixed fleet workload (oil-field + factory-floor
//! template networks plus one sharded campus network) through
//! [`digs_fleet::run_fleet`] and records machine-readable results in
//! `bench_results/fleet_bench.json`, seeding the perf trajectory future
//! PRs gate against. Simulation outcomes (PDR, SLO verdict) are
//! deterministic; only the wall-clock fields vary between machines.
//!
//! ```text
//! cargo run --release -p digs-bench --bin fleet_bench [-- --networks N \
//!     --sharded-devices N --secs N --jobs N]
//! ```

use digs_fleet::{aggregate, FleetSpec, RunPolicy, ShardedSpec, SloPolicy, Template};
use digs_json::Value;

fn arg(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let networks = arg(&args, "--networks", 64) as u32;
    let sharded_devices = arg(&args, "--sharded-devices", 500) as usize;
    let secs = arg(&args, "--secs", 600);
    let jobs = match arg(&args, "--jobs", 0) {
        0 => None,
        n => Some(n as usize),
    };

    let mut spec = FleetSpec::new()
        .secs(secs)
        .group(Template::OilField, networks.div_ceil(2), 1)
        .group(Template::FactoryFloor, networks / 2, 1);
    if sharded_devices > 0 {
        spec = spec.sharded(ShardedSpec::sized(
            format!("campus-{sharded_devices}"),
            sharded_devices,
            42,
        ));
    }

    let total_nodes = spec.total_nodes();
    let outcome = digs_fleet::run_fleet(&spec, jobs, None, &RunPolicy::default());
    let report = aggregate(&outcome.summaries, spec.secs);
    let breaches = report.breaches(&SloPolicy::default());
    let rate = outcome.node_secs as f64 / outcome.serial_equivalent.as_secs_f64().max(1e-9);
    let parallel_rate = outcome.node_secs as f64 / outcome.wall.as_secs_f64().max(1e-9);

    // Per-shard utilization: each shard's busy time relative to the
    // slowest shard in its network — the window-barrier stragglers.
    let sharded: Vec<Value> = outcome
        .shard_busy
        .iter()
        .map(|(name, busy)| {
            let max = busy.iter().map(|d| d.as_secs_f64()).fold(1e-9_f64, f64::max);
            Value::obj([
                ("name", Value::Str(name.clone())),
                ("shards", Value::num(busy.len() as f64)),
                (
                    "busy_secs",
                    Value::Arr(busy.iter().map(|d| Value::num(d.as_secs_f64())).collect()),
                ),
                (
                    "utilization",
                    Value::Arr(busy.iter().map(|d| Value::num(d.as_secs_f64() / max)).collect()),
                ),
            ])
        })
        .collect();

    let result = Value::obj([
        ("bench", Value::Str("fleet_bench".into())),
        ("networks", Value::num(report.networks as f64)),
        ("nodes", Value::num(total_nodes as f64)),
        ("secs", Value::num(secs as f64)),
        ("jobs", Value::num(outcome.jobs as f64)),
        ("wall_secs", Value::num(outcome.wall.as_secs_f64())),
        ("serial_equivalent_secs", Value::num(outcome.serial_equivalent.as_secs_f64())),
        ("node_secs", Value::num(outcome.node_secs as f64)),
        ("nodes_per_core_sec", Value::num(rate)),
        ("nodes_per_wall_sec", Value::num(parallel_rate)),
        ("fleet_pdr", Value::num(report.fleet_pdr)),
        ("latency_p50_ms", Value::opt(report.latency.quantile(50.0))),
        ("latency_p99_ms", Value::opt(report.latency.quantile(99.0))),
        ("slo_passed", Value::Bool(breaches.is_empty())),
        ("sharded", Value::Arr(sharded)),
    ]);

    let json = result.to_pretty() + "\n";
    let path = "bench_results/fleet_bench.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("fleet_bench: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("{}", report.render(&SloPolicy::default()));
    println!(
        "\nfleet_bench: {:.0} node-sec/core-sec ({:.0} node-sec/wall-sec on {} worker(s)), \
         wall {:.1} s — recorded to bench_results/fleet_bench.json",
        rate,
        parallel_rate,
        outcome.jobs,
        outcome.wall.as_secs_f64()
    );
}
