//! `fleet run|report`: a fleet of template networks reduced to one SLO
//! report, and a saved report re-rendered.

use crate::flags::Args;
use digs_digsd::FleetParams;
use digs_json::Value;
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
    let policy = digs_fleet::SloPolicy::new();

    let rate = outcome.node_secs as f64 / outcome.serial_equivalent.as_secs_f64().max(1e-9);
    eprintln!(
        "fleet: wall {:.1} s, serial-equivalent {:.1} s on {} worker(s), {:.0} node-sec/core-sec",
        outcome.wall.as_secs_f64(),
        outcome.serial_equivalent.as_secs_f64(),
        outcome.jobs,
        rate
    );
    if args.switch("json") {
        println!("{}", report.to_json(&policy).to_pretty());
    } else {
        print!("{}", report.render(&policy));
    }
    if let Some(path) = args.get::<String>("report")? {
        let text = report.to_json(&policy).to_pretty() + "\n";
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("fleet: canonical report written to {path}");
    }
    let breaches = report.breaches(&policy);
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!("fleet SLO gate breached ({} breach(es))", breaches.len()))
    }
}

pub fn report(args: &Args) -> Result<(), String> {
    let path: String = args.require("input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = digs_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if args.switch("json") {
        println!("{}", v.to_pretty());
        return Ok(());
    }
    let num = |key: &str| v.field(key).and_then(|f| f.as_f64());
    let show = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x}"));
    println!("fleet SLO report ({path})");
    println!(
        "  networks        : {} ({} nodes, {} s simulated each)",
        show(num("networks")),
        show(num("nodes")),
        show(num("secs"))
    );
    println!(
        "  fleet PDR       : {} ({} / {} packets; mean network {})",
        show(num("fleet_pdr")),
        show(num("delivered")),
        show(num("generated")),
        show(num("mean_network_pdr"))
    );
    println!(
        "  e2e latency     : p50 {} ms / p99 {} ms ({} samples)",
        show(num("latency_p50_ms").map(|x| x.round())),
        show(num("latency_p99_ms").map(|x| x.round())),
        show(num("latency_samples"))
    );
    println!(
        "  health alerts   : {} network(s), {} alert(s)",
        show(num("alert_networks")),
        show(num("total_alerts"))
    );
    println!(
        "  audit violations: {} network(s), {} violation(s)",
        show(num("violation_networks")),
        show(num("total_violations"))
    );
    println!("  worst networks  :");
    for w in v.field("worst_networks").and_then(|f| f.as_arr()).unwrap_or(&[]) {
        println!(
            "    {}  {}",
            w.field("pdr").and_then(|f| f.as_f64()).map_or("-".into(), |p| format!("{p:.4}")),
            w.field("label").and_then(|f| f.as_str()).unwrap_or("?")
        );
    }
    for (key, header, field) in [
        ("alerting_networks", "  most alerting   :", "alerts"),
        ("violating_networks", "  violating       :", "violations"),
    ] {
        let rows = v.field(key).and_then(|f| f.as_arr()).unwrap_or(&[]);
        if !rows.is_empty() {
            println!("{header}");
            for w in rows {
                println!(
                    "    {:>6}  {}",
                    w.field(field).and_then(|f| f.as_f64()).map_or("-".into(), |n| format!("{n}")),
                    w.field("label").and_then(|f| f.as_str()).unwrap_or("?")
                );
            }
        }
    }
    let slo = v.field("slo");
    let passed =
        slo.and_then(|s| s.field("passed")).is_some_and(|p| matches!(p, Value::Bool(true)));
    println!("  SLO             : {}", if passed { "PASSED" } else { "FAILED" });
    if let Some(breaches) = slo.and_then(|s| s.field("breaches")).and_then(|b| b.as_arr()) {
        for b in breaches {
            println!("    breach: {}", b.as_str().unwrap_or("?"));
        }
    }
    if passed {
        Ok(())
    } else {
        Err("saved report records an SLO breach".into())
    }
}
