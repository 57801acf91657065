//! `fleet run|report`: a fleet of template networks reduced to one SLO
//! report, and a saved report rendered by the same renderer.

use crate::flags::Args;
use digs_digsd::FleetParams;
use digs_fleet::FleetReport;
use digs_json::message::Rows;
use std::time::Duration;

/// The fleet the fleet flags describe — what `fleet run` builds locally
/// and what `digsd launch --kind fleet` sends, so the same flags are the
/// same [`digs_fleet::FleetSpec`] either way.
pub(crate) fn fleet_params(args: &Args, default_networks: u32) -> Result<FleetParams, String> {
    let d = FleetParams::default();
    Ok(FleetParams {
        template: args.get("template")?.unwrap_or(d.template),
        networks: args.get("networks")?.unwrap_or(default_networks),
        seed_base: args.get("seed-base")?.unwrap_or(d.seed_base),
        secs: args.get("secs")?.unwrap_or(d.secs),
        sharded_devices: args.get("sharded-devices")?.unwrap_or(d.sharded_devices),
        shard_size: args.get("shard-size")?.unwrap_or(d.shard_size),
        sharded_seed: args.get("sharded-seed")?,
        jobs: args.get("jobs")?,
    })
}

pub fn run(args: &Args) -> Result<(), String> {
    let params = fleet_params(args, 32)?;
    let spec = params.build()?;

    // Degradation policy: one attempt and no deadline unless asked. The
    // --inject-timeout hook forces matching networks to time out so CI
    // can demonstrate a degraded partial report end to end.
    let mut run_policy = digs_fleet::RunPolicy::default();
    if let Some(secs) = args.get::<u64>("run-timeout")? {
        run_policy.timeout = (secs > 0).then(|| Duration::from_secs(secs));
        run_policy.retries = u32::from(secs > 0);
    }
    if let Some(retries) = args.get("retries")? {
        run_policy.retries = retries;
    }
    run_policy.inject_timeout = args.get("inject-timeout")?;

    let outcome = digs_fleet::run_fleet(&spec, params.jobs, None, &run_policy);
    let mut summaries = outcome.summaries;
    if let Some(pattern) = args.get::<String>("inject-loss")? {
        let hit = digs_fleet::degrade_matching(&mut summaries, &pattern);
        eprintln!("fleet: injected loss into {hit} network(s) matching `{pattern}`");
    }
    let report =
        digs_fleet::aggregate_partial(&summaries, spec.secs, outcome.degraded, outcome.skipped);

    let rate = outcome.node_secs as f64 / outcome.serial_equivalent.as_secs_f64().max(1e-9);
    eprintln!(
        "fleet: wall {:.1} s, serial-equivalent {:.1} s on {} worker(s), {:.0} node-sec/core-sec",
        outcome.wall.as_secs_f64(),
        outcome.serial_equivalent.as_secs_f64(),
        outcome.jobs,
        rate
    );
    let json = report.to_value().to_pretty();
    if args.switch("json") {
        println!("{json}");
    } else {
        print!("{}", digs_fleet::render(&report));
    }
    if let Some(path) = args.get::<String>("report")? {
        std::fs::write(&path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("fleet: canonical report written to {path}");
    }
    if report.slo.passed {
        Ok(())
    } else {
        Err(format!("fleet SLO gate breached ({} breach(es))", report.slo.breaches.len()))
    }
}

/// Renders a saved canonical report through the same renderer `fleet run`
/// prints with, exiting non-zero when it records an SLO breach.
pub fn report(args: &Args) -> Result<(), String> {
    let path: String = args.require("input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = digs_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let report = FleetReport::take_fields(&v).map_err(|e| format!("{path}: {e}"))?;
    if args.switch("json") {
        println!("{}", report.to_value().to_pretty());
        return Ok(());
    }
    print!("{}", digs_fleet::render(&report));
    if report.slo.passed {
        Ok(())
    } else {
        Err("saved report records an SLO breach".into())
    }
}
