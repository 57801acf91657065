//! `digs-cli` — run DiGS / Orchestra networks and the conformance gate
//! from the command line.
//!
//! ```text
//! digs-cli run [--topology T] [--protocol P] [--secs N] [--flows N]
//!              [--period-ms N] [--jammers N] [--adaptive-jam START]
//!              [--randomize SECRET] [--seed N] [--json]
//! digs-cli topology [--topology T]
//! digs-cli graph [--topology T] [--protocol P] [--secs N] [--seed N]
//! digs-cli manager [--topology T] [--flows N]
//! digs-cli trace journeys [--min-complete N] [run options...]
//! digs-cli trace churn    [run options...]
//! digs-cli trace dump     [run options...]
//! digs-cli telemetry export [--format jsonl|csv] [--epoch-slots N]
//!               [--cap N] [--jam START:END] [run options...]
//! digs-cli telemetry report [same options...]
//! digs-cli telemetry top    [same options... | --attach RUN [--addr A]]
//! digs-cli gate [--matrix small|full] [--seeds SPEC] [--secs N]
//!               [--jobs N] [--goldens DIR] [--bless] [--json]
//!               [--summary FILE] [--inject-loss SUBSTR] [--attach ADDR]
//! digs-cli digsd serve  [--addr A] [--queue N]
//! digs-cli digsd launch --name RUN [--kind single|fleet|scenario]
//!               [run/fleet/scenario options...] [--inject-loss START:END]
//!               [--tail] [--kinds CSV] [--nodes CSV] [--addr A]
//! digs-cli digsd attach --run RUN [--kinds CSV] [--nodes CSV] [--addr A]
//! digs-cli digsd tail   --run RUN [--kinds CSV] [--nodes CSV] [--addr A]
//! digs-cli digsd list   [--addr A] [--json]
//! digs-cli digsd kill   --run RUN [--addr A]
//! digs-cli fleet run [--template oil|factory|mixed] [--networks N]
//!               [--seed-base N] [--secs N] [--jobs N]
//!               [--sharded-devices N] [--shard-size N] [--sharded-seed N]
//!               [--report FILE] [--inject-loss SUBSTR] [--json]
//! digs-cli fleet report --input FILE [--json]
//! ```
//!
//! The `trace` commands run a network with the flight recorder enabled
//! (`--trace-cap` events per node, default 65536) and analyse the event
//! stream: `journeys` reconstructs hop-by-hop packet journeys and prints
//! the latency breakdown, `churn` prints the parent-churn/repair timeline,
//! and `dump` writes the raw events as JSONL to stdout.
//!
//! `--adaptive-jam START` drops one adaptive schedule-learning jammer
//! next to every access point, switching on at `START` seconds (it then
//! sniffs for 30 s before selectively jamming the busiest cells).
//! `--randomize SECRET` enables the DiGS schedule-randomization defense
//! with the given shared secret (0 = off). Both work with every
//! run-flavored command, so `run`, `trace`, and `telemetry` can stage the
//! attack, the defense, or the duel.
//!
//! The `telemetry` commands run a network with epoch sampling enabled
//! (`--epoch-slots` per epoch, default 1000 = 10 s) and the health
//! monitor armed: `export` writes the per-epoch series as deterministic
//! JSONL (or CSV with `--format csv`), `report` prints a per-epoch table
//! with a PDR sparkline and the alert log, and `top` live-refreshes a
//! terminal dashboard while the scenario runs. `--jam START:END` drops a
//! full-band high-power WiFi jammer cluster on every access point for the
//! given window (seconds) — the canonical fault-injection smoke.
//!
//! `fleet run` stamps out a fleet of independent template networks
//! (`--template mixed` alternates oil-field and factory-floor), plus an
//! optional spatially sharded large network (`--sharded-devices`,
//! `--shard-size` devices per shard), fans them over the worker pool,
//! and aggregates the per-network telemetry into one fleet SLO report.
//! `--report FILE` writes the canonical JSON form (deterministic bytes —
//! wall-clock timings are excluded), `fleet report --input FILE`
//! re-renders a saved report, and `--inject-loss SUBSTR` halves the
//! delivery metrics of matching networks to demonstrate the SLO gate
//! tripping. Worker count: `--jobs`, else `DIGS_FLEET_JOBS`, else one
//! per core. Exit status: 0 when every SLO holds, 1 on a breach.
//!
//! `gate` runs the conformance matrix in parallel and compares the
//! per-scenario aggregates against `goldens/<matrix>.json` with the
//! checked-in tolerance bands; `--bless` regenerates the baseline.
//! `--seeds` takes `8` (seeds 1–8), `3-10`, or `1,4,9`. `--inject-loss`
//! is a test hook that halves delivery metrics of matching scenarios to
//! demonstrate the gate tripping. Exit status: 0 pass, 1 breach or error.
//! With `--attach ADDR` the gate collects its records from a running
//! `digsd serve` daemon instead of simulating in-process — byte-identical
//! records, daemon-side parallelism.
//!
//! `digsd` is the long-running simulation daemon (DESIGN §4.12). `serve`
//! listens on `--addr` (default `DIGS_DIGSD_ADDR`, else 127.0.0.1:4901)
//! with `single`, `fleet`, and conformance `scenario` runners registered;
//! `launch` starts a named run (single runs stream their flight recorder
//! and telemetry by default; `--inject-loss START:END` is the `--jam`
//! fault-injection window under its daemon name); `tail` follows a run's
//! stream, payload JSONL on stdout and control traffic on stderr, ending
//! with a footer that reports this subscriber's delivered/dropped counts;
//! `attach` is the same but prints raw wire frames; `list` and `kill`
//! manage runs. Per-subscriber queues are bounded (`--queue`, default
//! `DIGS_DIGSD_QUEUE`, else 4096 frames): a slow subscriber drops frames
//! (counted in its footer) and the simulation never blocks.
//!
//! Topologies: `testbed-a` (default), `testbed-a-half`, `testbed-b`,
//! `testbed-b-half`, `cooja`, or `random:<devices>:<side-m>`.

use digs::network::Network;
use digs_digsd::{topology_from, Client, Filter, FrameKind, ResumableStream, RunState, StreamItem};
use digs_sim::rf::RfConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

struct Args {
    command: String,
    /// Positional word after the command (`trace journeys|churn|dump`).
    subcommand: Option<String>,
    options: BTreeMap<String, String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let command = argv.get(i).cloned().ok_or_else(usage)?;
    i += 1;
    let subcommand = match argv.get(i) {
        Some(word) if !word.starts_with("--") => {
            i += 1;
            Some(word.clone())
        }
        _ => None,
    };
    let mut options = BTreeMap::new();
    let mut json = false;
    while i < argv.len() {
        let flag = &argv[i];
        i += 1;
        if flag == "--json" {
            json = true;
            continue;
        }
        if flag == "--bless" {
            options.insert("bless".to_string(), "true".to_string());
            continue;
        }
        if flag == "--tail" {
            options.insert("tail".to_string(), "true".to_string());
            continue;
        }
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`\n{}", usage()))?;
        let value = argv.get(i).cloned().ok_or_else(|| format!("flag --{name} needs a value"))?;
        i += 1;
        options.insert(name.to_string(), value);
    }
    Ok(Args { command, subcommand, options, json })
}

fn usage() -> String {
    "usage: digs-cli <run|topology|graph|manager|trace|telemetry|gate|fleet|digsd> [--topology T] \
     [--protocol P] [--secs N] [--flows N] [--period-ms N] [--jammers N] \
     [--adaptive-jam START] [--randomize SECRET] [--seed N] [--json]\n\
     trace subcommands: journeys [--min-complete N] | churn | dump  \
     (plus --trace-cap N, default 65536)\n\
     telemetry subcommands: export [--format jsonl|csv] | report | top  \
     (plus --epoch-slots N, --cap N, --jam START:END)\n\
     gate: [--matrix small|full] [--seeds SPEC] [--secs N] [--jobs N] \
     [--goldens DIR] [--bless] [--summary FILE] [--inject-loss SUBSTR]\n\
     fleet subcommands: run [--template oil|factory|mixed] [--networks N] \
     [--seed-base N] [--secs N] [--jobs N] [--sharded-devices N] [--shard-size N] \
     [--sharded-seed N] [--report FILE] [--inject-loss SUBSTR] [--run-timeout SECS] \
     [--retries N] [--inject-timeout SUBSTR] | report --input FILE\n\
     digsd subcommands: serve [--addr A] [--queue N] [--journal FILE] [--max-restarts N] | \
     launch --name RUN [--kind single|fleet|scenario] [--tail] [--inject-loss START:END] | \
     attach --run RUN [--from-seq N] | tail --run RUN [--kinds CSV] [--nodes CSV] \
     [--from-seq N] | list | kill --run RUN | shutdown"
        .to_string()
}

fn get<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match args.options.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
    }
}

/// Extra wiring the telemetry commands need on top of the common run
/// options.
#[derive(Default)]
struct BuildExtras {
    trace_cap: Option<usize>,
    /// `(epoch_slots, cap)` — enables telemetry sampling.
    telemetry: Option<(u64, usize)>,
    /// `(start_secs, end_secs)` — full-band jammer clusters on every
    /// access point (WiFi channels 1/5/9/13 blanket all 16 channels).
    jam: Option<(u64, u64)>,
}

/// Collects the common run options into a [`digs_digsd::SingleSpec`] —
/// the one "options → network" code path shared with the daemon, so a
/// local run and a `digsd launch` of the same flags are the same network.
fn single_spec(args: &Args, extras: BuildExtras) -> Result<digs_digsd::SingleSpec, String> {
    let mut spec = digs_digsd::SingleSpec::default();
    if let Some(t) = args.options.get("topology") {
        spec.topology = t.clone();
    }
    if let Some(p) = args.options.get("protocol") {
        spec.protocol = p.clone();
    }
    spec.seed = get(args, "seed", spec.seed)?;
    spec.flows = get(args, "flows", spec.flows)?;
    spec.period_ms = get(args, "period-ms", spec.period_ms)?;
    spec.jammers = get(args, "jammers", spec.jammers)?;
    spec.secs = get(args, "secs", spec.secs)?;
    spec.adaptive_jam = args
        .options
        .get("adaptive-jam")
        .map(|s| s.parse().map_err(|e| format!("bad --adaptive-jam: {e}")))
        .transpose()?;
    spec.randomize = args
        .options
        .get("randomize")
        .map(|s| s.parse().map_err(|e| format!("bad --randomize: {e}")))
        .transpose()?;
    spec.trace_cap = extras.trace_cap;
    spec.telemetry = extras.telemetry;
    spec.jam = extras.jam;
    Ok(spec)
}

fn build_network(args: &Args, extras: BuildExtras) -> Result<Network, String> {
    single_spec(args, extras)?.build()
}

/// `run --json`: the results as one object, fields in declaration order,
/// ids and ASNs as plain numbers, non-finite floats as `null`.
fn results_json(results: &digs::results::RunResults) -> digs_conformance::json::Value {
    use digs_conformance::json::Value;
    let int = Value::Int;
    let flows = results.flows.iter().map(|f| {
        Value::Obj(vec![
            ("flow".into(), int(f.flow.0.into())),
            ("source".into(), int(f.source.0.into())),
            ("generated".into(), int(f.generated.into())),
            ("delivered".into(), int(f.delivered.into())),
            (
                "delivered_seqs".into(),
                Value::Arr(f.delivered_seqs.iter().map(|s| int((*s).into())).collect()),
            ),
            (
                "latencies_ms".into(),
                Value::Arr(f.latencies_ms.iter().map(|l| Value::num(*l)).collect()),
            ),
        ])
    });
    let nodes = results.nodes.iter().map(|n| {
        Value::Obj(vec![
            ("node".into(), int(n.node.0.into())),
            ("energy_mj".into(), Value::num(n.energy_mj)),
            ("mean_power_mw".into(), Value::num(n.mean_power_mw)),
            ("duty_cycle".into(), Value::num(n.duty_cycle)),
            ("tx_us".into(), int(n.tx_us)),
            ("rx_us".into(), int(n.rx_us)),
            ("joined_at".into(), n.joined_at.map_or(Value::Null, |t| int(t.0))),
            ("parent_changes".into(), int(n.parent_changes as u64)),
        ])
    });
    let violations = results.invariant_violations.iter().map(|v| {
        Value::Obj(vec![
            ("kind".into(), Value::Str(format!("{:?}", v.kind))),
            ("asn".into(), int(v.asn.0)),
            ("node".into(), int(v.node.0.into())),
            ("detail".into(), Value::Str(v.detail.clone())),
        ])
    });
    Value::Obj(vec![
        ("duration".into(), int(results.duration.0)),
        ("flows".into(), Value::Arr(flows.collect())),
        ("nodes".into(), Value::Arr(nodes.collect())),
        (
            "parent_change_times".into(),
            Value::Arr(results.parent_change_times.iter().map(|t| int(t.0)).collect()),
        ),
        ("retry_drops".into(), int(results.retry_drops)),
        ("queue_drops".into(), int(results.queue_drops)),
        ("invariant_violations".into(), Value::Arr(violations.collect())),
    ])
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let secs: u64 = get(args, "secs", 300)?;
    let mut network = build_network(args, BuildExtras::default())?;
    network.run_secs(secs);
    let results = network.results();
    if args.json {
        print!("{}", results_json(&results).to_pretty());
        return Ok(());
    }
    println!("protocol        : {}", network.config().protocol.name());
    println!("topology        : {}", network.config().topology.name());
    println!("simulated       : {secs} s");
    println!("joined fraction : {:.3}", results.fraction_joined());
    println!("network PDR     : {:.3}", results.network_pdr());
    println!("worst flow PDR  : {:.3}", results.worst_flow_pdr());
    if let Some(lat) = results.median_latency_ms() {
        println!("median latency  : {lat:.0} ms");
    }
    println!("power/packet    : {:.4} mW", results.power_per_received_packet_mw());
    println!("parent changes  : {}", results.parent_change_times.len());
    println!("drops           : {} retry, {} queue", results.retry_drops, results.queue_drops);
    for flow in &results.flows {
        println!(
            "  {} src {}: {}/{} (PDR {:.2})",
            flow.flow,
            flow.source,
            flow.delivered,
            flow.generated,
            flow.pdr()
        );
    }
    Ok(())
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    let topology = topology_from(args.options.get("topology").map_or("testbed-a", String::as_str))?;
    println!("name          : {}", topology.name());
    println!("nodes         : {}", topology.len());
    println!(
        "access points : {:?}",
        topology.access_points().iter().map(|a| a.0).collect::<Vec<_>>()
    );
    // Link census from the mean-RSS oracle.
    let rf = RfConfig::indoor();
    let mut usable = 0u32;
    let mut total = 0u32;
    for a in topology.node_ids() {
        for b in topology.node_ids() {
            if a < b {
                total += 1;
                let rss = rf.mean_rss(topology.distance(a, b));
                if rss.dbm() >= digs_sim::rf::RSS_MIN.dbm() {
                    usable += 1;
                }
            }
        }
    }
    println!("usable links  : {usable} of {total} pairs (mean-RSS ≥ RSSmin)");
    let mean_degree = 2.0 * f64::from(usable) / topology.len() as f64;
    println!("mean degree   : {mean_degree:.1}");
    Ok(())
}

fn cmd_graph(args: &Args) -> Result<(), String> {
    let secs: u64 = get(args, "secs", 150)?;
    let mut network = build_network(args, BuildExtras::default())?;
    network.run_secs(secs);
    let graph = network.routing_graph();
    println!(
        "after {secs} s: joined {:.0}%, backup coverage {:.0}%, DAG: {}, reachable: {}",
        graph.fraction_joined() * 100.0,
        graph.fraction_with_backup() * 100.0,
        graph.is_dag(),
        graph.all_reachable()
    );
    for node in graph.nodes() {
        let e = graph.entry(node).expect("recorded");
        println!(
            "  {node}: {} best={} second={}",
            e.rank,
            e.best.map_or("-".to_string(), |p| p.to_string()),
            e.second.map_or("-".to_string(), |p| p.to_string()),
        );
    }
    Ok(())
}

fn cmd_manager(args: &Args) -> Result<(), String> {
    use digs_sim::link::LinkModel;
    use digs_whart::{LinkDb, NetworkManager, UpdateCostConfig};
    let topology = topology_from(args.options.get("topology").map_or("testbed-a", String::as_str))?;
    let flows: usize = get(args, "flows", 8)?;
    let model = LinkModel::new(&topology, RfConfig::indoor(), 1);
    let db = LinkDb::from_link_model(&model);
    let mut manager =
        NetworkManager::new(db, topology.access_points(), UpdateCostConfig::default());
    let mut sources = topology.field_devices();
    sources.reverse();
    sources.truncate(flows);
    let report =
        manager.full_update(&sources, 1000).map_err(|e| format!("scheduling failed: {e}"))?;
    println!("centralized WirelessHART update cycle for {}:", topology.name());
    println!("  {report}");
    let schedule = manager.schedule().expect("just computed");
    println!("  schedule cells: {}", schedule.cells().len());
    println!("  conflict-free : {}", schedule.is_conflict_free());
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let sub = args
        .subcommand
        .as_deref()
        .ok_or_else(|| format!("trace needs a subcommand (journeys|churn|dump)\n{}", usage()))?;
    let secs: u64 = get(args, "secs", 120)?;
    let cap: usize = get(args, "trace-cap", 65_536)?;
    let mut network =
        build_network(args, BuildExtras { trace_cap: Some(cap), ..BuildExtras::default() })?;
    network.run_secs(secs);
    let events = network.trace().events();
    match sub {
        "journeys" => {
            let journeys = digs_trace::journeys(&events);
            let b = digs_trace::latency_breakdown(&journeys);
            println!("events          : {}", events.len());
            println!(
                "journeys        : {} ({} complete, {} via backup parent)",
                b.journeys, b.complete, b.used_backup
            );
            println!("mean latency    : {:.1} slots", b.mean_latency_slots);
            println!("mean hops       : {:.2}", b.mean_hops);
            println!("mean queueing   : {:.1} slots/journey", b.mean_queue_slots);
            println!("mean retx wait  : {:.1} slots/journey", b.mean_retx_slots);
            println!("mean attempts   : {:.2}", b.mean_attempts);
            let mut complete: Vec<_> = journeys.iter().filter(|j| j.is_complete()).collect();
            complete.sort_by_key(|j| std::cmp::Reverse(j.latency_slots.unwrap_or(0)));
            println!("slowest journeys:");
            for j in complete.iter().take(10) {
                println!(
                    "  {}: {} slots over {} hops, {} attempts{}",
                    j.packet,
                    j.latency_slots.unwrap_or(0),
                    j.hops.len(),
                    j.total_attempts(),
                    if j.used_backup() { ", via backup" } else { "" }
                );
            }
            let min_complete: usize = get(args, "min-complete", 0)?;
            if b.complete < min_complete {
                return Err(format!(
                    "only {} complete journeys reconstructed (need {min_complete})",
                    b.complete
                ));
            }
            Ok(())
        }
        "churn" => {
            let timeline = digs_trace::churn_timeline(&events);
            println!("churn/repair timeline ({} events):", timeline.len());
            for e in &timeline {
                println!("  {e}");
            }
            let episodes = digs_trace::repair_episodes(&events);
            println!("repair episodes: {}", episodes.len());
            for ep in &episodes {
                let first =
                    ep.first_switch_after.map_or_else(|| "-".to_string(), |d| format!("{d} slots"));
                println!(
                    "  {} → {} parent switches, first after {first}",
                    ep.fault,
                    ep.switches.len()
                );
            }
            Ok(())
        }
        "dump" => {
            let text = digs_trace::to_jsonl(&events);
            // Round-trip before emitting: a dump the tooling cannot parse
            // back is worse than no dump.
            let parsed =
                digs_trace::from_jsonl(&text).map_err(|e| format!("round-trip failed: {e}"))?;
            if parsed.len() != events.len() {
                return Err(format!(
                    "round-trip lost events: {} in, {} back",
                    events.len(),
                    parsed.len()
                ));
            }
            print!("{text}");
            eprintln!("{} events", events.len());
            Ok(())
        }
        other => Err(format!("unknown trace subcommand `{other}` (journeys|churn|dump)")),
    }
}

fn telemetry_extras(args: &Args) -> Result<(BuildExtras, u64, usize), String> {
    let epoch_slots: u64 = get(args, "epoch-slots", 1000)?;
    let cap: usize = get(args, "cap", 4096)?;
    if epoch_slots == 0 || cap == 0 {
        return Err("telemetry needs --epoch-slots > 0 and --cap > 0".into());
    }
    let jam = match args.options.get("jam") {
        None => None,
        Some(spec) => {
            let (start, end) = spec
                .split_once(':')
                .ok_or_else(|| format!("--jam takes START:END seconds, got `{spec}`"))?;
            Some((
                start.parse().map_err(|e| format!("bad --jam start: {e}"))?,
                end.parse().map_err(|e| format!("bad --jam end: {e}"))?,
            ))
        }
    };
    Ok((
        BuildExtras { trace_cap: None, telemetry: Some((epoch_slots, cap)), jam },
        epoch_slots,
        cap,
    ))
}

fn cmd_telemetry(args: &Args) -> Result<(), String> {
    let sub = args
        .subcommand
        .as_deref()
        .ok_or_else(|| format!("telemetry needs a subcommand (export|report|top)\n{}", usage()))?;
    if sub == "top" {
        if let Some(run) = args.options.get("attach") {
            // Attached dashboard: render from a digsd stream instead of
            // simulating in-process.
            return telemetry_top_attached(args, run);
        }
    }
    let secs: u64 = get(args, "secs", 300)?;
    let (extras, epoch_slots, _cap) = telemetry_extras(args)?;
    let mut network = build_network(args, extras)?;
    match sub {
        "export" => {
            network.run_secs(secs);
            let sampler = network.telemetry().expect("telemetry enabled above");
            match args.options.get("format").map_or("jsonl", String::as_str) {
                "jsonl" => print!("{}", digs::telemetry::to_jsonl(sampler)),
                "csv" => print!("{}", digs::telemetry::to_csv(sampler)),
                other => return Err(format!("unknown --format `{other}` (jsonl|csv)")),
            }
            eprintln!("{} epochs, {} alerts", sampler.summary().epochs, sampler.summary().alerts);
            Ok(())
        }
        "report" => {
            network.run_secs(secs);
            let sampler = network.telemetry().expect("telemetry enabled above");
            print!("{}", digs::telemetry::report(sampler));
            Ok(())
        }
        "top" => {
            // Live dashboard: advance one epoch at a time and redraw.
            let total_slots = secs * 100;
            let mut done = 0u64;
            while done < total_slots {
                let step = epoch_slots.min(total_slots - done);
                network.run(step);
                done += step;
                let sampler = network.telemetry().expect("telemetry enabled above");
                // ANSI home+clear keeps the table in place on a terminal;
                // on a pipe it degrades to a frame-per-epoch log.
                print!("\x1b[H\x1b[2J{}", digs::telemetry::report(sampler));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
            Ok(())
        }
        other => Err(format!("unknown telemetry subcommand `{other}` (export|report|top)")),
    }
}

fn cmd_gate(args: &Args) -> Result<(), String> {
    let mut opts = digs_conformance::GateOptions::new();
    opts.matrix = digs_conformance::MatrixKind::parse(
        args.options.get("matrix").map_or("full", String::as_str),
    )?;
    if let Some(spec) = args.options.get("seeds") {
        opts.seeds =
            digs_sim::seeds::SeedSpec::parse(spec).map_err(|e| e.to_string())?.seeds().to_vec();
    }
    if let Some(dir) = args.options.get("goldens") {
        opts.goldens_dir = dir.into();
    }
    if let Some(secs) = args.options.get("secs") {
        opts.secs = Some(secs.parse().map_err(|e| format!("bad --secs: {e}"))?);
    }
    if let Some(jobs) = args.options.get("jobs") {
        opts.jobs = Some(jobs.parse().map_err(|e| format!("bad --jobs: {e}"))?);
    }
    opts.bless = args.options.get("bless").is_some_and(|v| v == "true");
    opts.json = args.json;
    opts.inject_loss = args.options.get("inject-loss").cloned();
    opts.summary = args.options.get("summary").map(Into::into);
    opts.attach = args.options.get("attach").cloned();
    let outcome = digs_conformance::run_gate(&opts)?;
    if outcome.passed {
        Ok(())
    } else {
        Err("conformance gate breached".into())
    }
}

fn fleet_jobs(args: &Args) -> Result<Option<usize>, String> {
    if let Some(jobs) = args.options.get("jobs") {
        return jobs.parse().map(Some).map_err(|e| format!("bad --jobs: {e}"));
    }
    match std::env::var("DIGS_FLEET_JOBS") {
        Ok(v) => v.parse().map(Some).map_err(|e| format!("bad DIGS_FLEET_JOBS `{v}`: {e}")),
        Err(_) => Ok(None),
    }
}

/// The fleet the common fleet options describe — what `fleet run` builds
/// locally and what `digsd launch --kind fleet` sends, so the same flags
/// are the same [`digs_fleet::FleetSpec`] either way.
fn fleet_params(args: &Args, default_networks: u32) -> Result<digs_digsd::FleetParams, String> {
    let d = digs_digsd::FleetParams::default();
    Ok(digs_digsd::FleetParams {
        template: args.options.get("template").cloned().unwrap_or(d.template),
        networks: get(args, "networks", default_networks)?,
        seed_base: get(args, "seed-base", d.seed_base)?,
        secs: get(args, "secs", d.secs)?,
        sharded_devices: get(args, "sharded-devices", d.sharded_devices)?,
        shard_size: get(args, "shard-size", d.shard_size)?,
        sharded_seed: args
            .options
            .get("sharded-seed")
            .map(|s| s.parse().map_err(|e| format!("bad --sharded-seed: {e}")))
            .transpose()?,
        jobs: fleet_jobs(args)?,
    })
}

fn cmd_fleet_run(args: &Args) -> Result<(), String> {
    let params = fleet_params(args, 32)?;
    let spec = params.build()?;

    // Degradation policy: env defaults, overridable per invocation. The
    // --inject-timeout hook forces matching networks to time out so CI
    // can demonstrate a degraded partial report end to end.
    let mut run_policy = digs_fleet::RunPolicy::from_env();
    if let Some(t) = args.options.get("run-timeout") {
        let secs: u64 = t.parse().map_err(|e| format!("bad --run-timeout: {e}"))?;
        run_policy.timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
        run_policy.retries = run_policy.retries.max(u32::from(secs > 0));
    }
    if let Some(r) = args.options.get("retries") {
        run_policy.retries = r.parse().map_err(|e| format!("bad --retries: {e}"))?;
    }
    run_policy.inject_timeout = args.options.get("inject-timeout").cloned();

    let outcome = digs_fleet::run_fleet(&spec, params.jobs, None, &run_policy);
    let mut summaries = outcome.summaries;
    if let Some(pattern) = args.options.get("inject-loss") {
        let hit = digs_fleet::degrade_matching(&mut summaries, pattern);
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
    if args.json {
        println!("{}", report.to_json(&policy).to_pretty());
    } else {
        print!("{}", report.render(&policy));
    }
    if let Some(path) = args.options.get("report") {
        let text = report.to_json(&policy).to_pretty() + "\n";
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("fleet: canonical report written to {path}");
    }
    let breaches = report.breaches(&policy);
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!("fleet SLO gate breached ({} breach(es))", breaches.len()))
    }
}

fn cmd_fleet_report(args: &Args) -> Result<(), String> {
    let path = args.options.get("input").ok_or("fleet report needs --input FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = digs_conformance::json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if args.json {
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
    let passed = slo
        .and_then(|s| s.field("passed"))
        .is_some_and(|p| matches!(p, digs_conformance::json::Value::Bool(true)));
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

fn cmd_fleet(args: &Args) -> Result<(), String> {
    match args.subcommand.as_deref() {
        Some("run") => cmd_fleet_run(args),
        Some("report") => cmd_fleet_report(args),
        Some(other) => Err(format!("unknown fleet subcommand `{other}` (run|report)")),
        None => Err(format!("fleet needs a subcommand (run|report)\n{}", usage())),
    }
}

// ---------------------------------------------------------------------
// digsd: the daemon and its clients (DESIGN §4.12).
// ---------------------------------------------------------------------

fn digsd_addr(args: &Args) -> String {
    args.options.get("addr").cloned().unwrap_or_else(digs_digsd::default_addr)
}

fn digsd_connect(args: &Args) -> Result<Client, String> {
    Client::connect(&digsd_addr(args), "digs-cli")
}

/// Parses `--kinds trace,epoch,...` / `--nodes 3,7,...` into the
/// subscription filter (absent flags subscribe to everything).
fn parse_filter(args: &Args) -> Result<Filter, String> {
    let kinds = match args.options.get("kinds") {
        None => None,
        Some(csv) => {
            let mut set = BTreeSet::new();
            for k in csv.split(',') {
                set.insert(FrameKind::parse(k.trim())?);
            }
            Some(set)
        }
    };
    let nodes = match args.options.get("nodes") {
        None => None,
        Some(csv) => {
            let mut set = BTreeSet::new();
            for n in csv.split(',') {
                set.insert(n.trim().parse::<u16>().map_err(|e| format!("bad --nodes: {e}"))?);
            }
            Some(set)
        }
    };
    Ok(Filter { kinds, nodes })
}

fn digsd_serve(args: &Args) -> Result<(), String> {
    let addr = digsd_addr(args);
    let mut config = digs_digsd::DaemonConfig::default();
    if let Some(q) = args.options.get("queue") {
        config.queue_cap = q.parse().map_err(|e| format!("bad --queue: {e}"))?;
    }
    if config.queue_cap == 0 {
        return Err("--queue must be > 0".into());
    }
    if let Some(path) = args.options.get("journal") {
        config.journal = Some(path.into());
    }
    if let Some(n) = args.options.get("max-restarts") {
        config.backoff = digs_digsd::BackoffPolicy::new(
            n.parse().map_err(|e| format!("bad --max-restarts: {e}"))?,
        );
    }
    let mut daemon = digs_digsd::Daemon::bind(&addr, config.clone())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    daemon.register_runner(
        "scenario",
        Box::new(
            digs_conformance::prepare_scenario
                as fn(&digs_digsd::Value) -> Result<digs_digsd::Job, String>,
        ),
    );
    let bound = daemon.local_addr().map_err(|e| format!("local addr: {e}"))?;
    eprintln!(
        "digsd: serving on {bound} (runners: single, fleet, scenario; \
         per-subscriber queue cap {}; journal {})",
        config.queue_cap,
        config.journal.as_ref().map_or("off".to_string(), |p| p.display().to_string()),
    );
    daemon.serve_forever().map_err(|e| format!("serve failed: {e}"))
}

/// Follows a resumable stream to its end: payload JSONL on stdout,
/// control traffic (heartbeats, restart notices, the footer) on stderr.
/// The stream transparently reconnects with its sequence cursor when the
/// connection or the daemon dies, so a supervised daemon restart shows
/// up as a `reconnected` notice, not a truncated file. The footer
/// reports this subscriber's authoritative delivered/dropped counts; a
/// run that did not finish `done` is a failure exit.
fn digsd_follow(stream: &mut ResumableStream, raw: bool) -> Result<(), String> {
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut reconnects = 0;
    loop {
        let item = stream.next_item()?;
        if stream.reconnects() > reconnects {
            reconnects = stream.reconnects();
            eprintln!(
                "digsd: reconnected (cursor {}, {} reconnect(s) so far)",
                stream.cursor().unwrap_or(0),
                reconnects
            );
        }
        match item {
            StreamItem::Event(frame) => {
                let line =
                    if raw { digs_digsd::ServerMsg::Event(frame).encode() } else { frame.payload };
                writeln!(out, "{line}").map_err(|e| format!("stdout: {e}"))?;
            }
            StreamItem::Heartbeat { asn, sent, dropped } => {
                eprintln!("digsd: heartbeat — asn {asn}, {sent} delivered, {dropped} dropped");
            }
            StreamItem::Restart { restarts, backoff_ms } => {
                eprintln!(
                    "digsd: run restarting (attempt {restarts}, backoff {backoff_ms} ms) — \
                     stream resumes deduplicated"
                );
            }
            StreamItem::End(end) => {
                out.flush().map_err(|e| format!("stdout: {e}"))?;
                eprintln!(
                    "digsd: run ended `{}` at asn {} — {} frame(s) delivered, {} dropped",
                    end.state, end.asn, end.sent, end.dropped
                );
                return match end.state {
                    RunState::Done => Ok(()),
                    RunState::Restarting => Err(format!(
                        "daemon suspended the run for shutdown — re-attach with --from-seq {}",
                        stream.cursor().unwrap_or(0)
                    )),
                    state => Err(format!("run ended `{state}`")),
                };
            }
        }
    }
}

fn digsd_launch(args: &Args) -> Result<(), String> {
    let name = args.options.get("name").ok_or("digsd launch needs --name RUN")?;
    let spec = match args.options.get("kind").map_or("single", String::as_str) {
        "single" => {
            // Daemon runs exist to be observed: flight recorder and
            // telemetry sampling are on by default (unlike plain `run`).
            let (extras, _, _) = telemetry_extras(args)?;
            let mut spec = single_spec(args, extras)?;
            spec.trace_cap = Some(get(args, "trace-cap", 65_536)?);
            if let Some(window) = args.options.get("inject-loss") {
                // The CI-facing alias for --jam: a full-band jammer
                // cluster window that collapses delivery on cue.
                let (start, end) = window.split_once(':').ok_or_else(|| {
                    format!("--inject-loss takes START:END seconds, got `{window}`")
                })?;
                spec.jam = Some((
                    start.parse().map_err(|e| format!("bad --inject-loss start: {e}"))?,
                    end.parse().map_err(|e| format!("bad --inject-loss end: {e}"))?,
                ));
            }
            spec.to_json()
        }
        "fleet" => fleet_params(args, digs_digsd::FleetParams::default().networks)?.to_json(),
        "scenario" => {
            let matrix = args.options.get("matrix").map_or("full", String::as_str);
            let scenario = args
                .options
                .get("scenario")
                .ok_or("digsd launch --kind scenario needs --scenario NAME")?;
            let secs = args
                .options
                .get("secs")
                .map(|s| s.parse().map_err(|e| format!("bad --secs: {e}")))
                .transpose()?;
            digs_conformance::scenario_spec_json(matrix, scenario, get(args, "seed", 1)?, secs)
        }
        other => return Err(format!("unknown --kind `{other}` (single|fleet|scenario)")),
    };
    let tail = args.options.get("tail").is_some_and(|v| v == "true");
    let addr = digsd_addr(args);
    if tail {
        let mut stream =
            ResumableStream::launch(&addr, "digs-cli", name, spec, parse_filter(args)?)?;
        eprintln!("digsd: launched `{name}` on {addr}");
        digsd_follow(&mut stream, false)
    } else {
        let mut client = digsd_connect(args)?;
        client.launch(name, spec, false, parse_filter(args)?)?;
        eprintln!("digsd: launched `{name}` on {addr}");
        Ok(())
    }
}

fn digsd_tail(args: &Args, raw: bool) -> Result<(), String> {
    let run = args.options.get("run").ok_or("digsd tail/attach needs --run NAME")?;
    let addr = digsd_addr(args);
    let filter = parse_filter(args)?;
    // --from-seq resumes a previous session's stream position (e.g. after
    // a daemon shutdown or a client crash) without duplicates.
    let mut stream = match args.options.get("from-seq") {
        Some(v) => {
            let from: u64 = v.parse().map_err(|e| format!("bad --from-seq: {e}"))?;
            ResumableStream::attach_from(&addr, "digs-cli", run, filter, from)?
        }
        None => ResumableStream::attach(&addr, "digs-cli", run, filter)?,
    };
    digsd_follow(&mut stream, raw)
}

fn digsd_list(args: &Args) -> Result<(), String> {
    let runs = digsd_connect(args)?.list()?;
    if args.json {
        println!("{}", digs_digsd::ServerMsg::Runs { runs }.encode());
        return Ok(());
    }
    if runs.is_empty() {
        eprintln!("digsd: no runs");
        return Ok(());
    }
    println!(
        "{:<24} {:<10} {:<12} {:>12} {:>5} {:>8} {:>8} {:>7}",
        "NAME", "KIND", "STATE", "ASN", "SUBS", "RESTARTS", "UPTIME", "DROPS"
    );
    for r in &runs {
        println!(
            "{:<24} {:<10} {:<12} {:>12} {:>5} {:>8} {:>7}s {:>7}",
            r.name, r.kind, r.state, r.asn, r.subscribers, r.restarts, r.uptime_secs, r.drops
        );
    }
    Ok(())
}

fn digsd_kill(args: &Args) -> Result<(), String> {
    let run = args.options.get("run").ok_or("digsd kill needs --run NAME")?;
    digsd_connect(args)?.kill(run)?;
    eprintln!("digsd: kill requested for `{run}`");
    Ok(())
}

fn digsd_shutdown(args: &Args) -> Result<(), String> {
    // The wire-level stand-in for SIGTERM (no signal handling without
    // libc): live runs are suspended with their journal cursors, streams
    // get a `restarting` epilogue, and the daemon exits. A journaled
    // daemon restarted on the same file resumes the suspended runs.
    digsd_connect(args)?.shutdown()?;
    eprintln!("digsd: graceful shutdown requested on {}", digsd_addr(args));
    Ok(())
}

fn cmd_digsd(args: &Args) -> Result<(), String> {
    match args.subcommand.as_deref() {
        Some("serve") => digsd_serve(args),
        Some("launch") => digsd_launch(args),
        Some("attach") => digsd_tail(args, true),
        Some("tail") => digsd_tail(args, false),
        Some("list") => digsd_list(args),
        Some("kill") => digsd_kill(args),
        Some("shutdown") => digsd_shutdown(args),
        Some(other) => Err(format!(
            "unknown digsd subcommand `{other}` (serve|launch|attach|tail|list|kill|shutdown)"
        )),
        None => Err(format!(
            "digsd needs a subcommand (serve|launch|attach|tail|list|kill|shutdown)\n{}",
            usage()
        )),
    }
}

// ---------------------------------------------------------------------
// telemetry top --attach: the live dashboard as a digsd client.
// ---------------------------------------------------------------------

/// One dashboard row, reduced from a streamed `epoch` frame.
struct EpochRow {
    epoch: u64,
    end_secs: u64,
    joined: (u64, u64),
    pdr: Option<f64>,
    p50: Option<f64>,
    p99: Option<f64>,
    tx: u64,
    drops: u64,
    churn: u64,
    queue_max: u64,
}

fn parse_epoch(payload: &str) -> Result<EpochRow, String> {
    use digs_conformance::json::Value;
    let v = digs_conformance::json::parse(payload).map_err(|e| format!("bad epoch frame: {e}"))?;
    let num = |f: Option<&Value>| f.and_then(Value::as_u64).unwrap_or(0);
    let counter = |k: &str| num(v.field("counters").and_then(|c| c.field(k)));
    let gauge = |k: &str| num(v.field("gauges").and_then(|g| g.field(k)));
    let (mut generated, mut delivered) = (0u64, 0u64);
    for f in v.field("flows").and_then(Value::as_arr).unwrap_or(&[]) {
        generated += num(f.field("generated"));
        delivered += num(f.field("delivered"));
    }
    // Latency quantiles: rebuild the log-bucket histogram from its sparse
    // wire form and query it — the same math the in-process report uses.
    let (mut p50, mut p99) = (None, None);
    if let Some(h) = v.field("latency_ms") {
        if let (Some(min), Some(max), Some(buckets)) = (
            h.field("min").and_then(Value::as_u64),
            h.field("max").and_then(Value::as_u64),
            h.field("buckets").and_then(Value::as_arr),
        ) {
            let pairs: Vec<(usize, u64)> = buckets
                .iter()
                .filter_map(|b| {
                    let pair = b.as_arr()?;
                    let index = usize::try_from(pair.first()?.as_u64()?).ok()?;
                    Some((index, pair.get(1)?.as_u64()?))
                })
                .collect();
            let hist = digs_metrics::LogHistogram::from_sparse(&pairs, min, max)
                .map_err(|e| format!("bad epoch frame: latency_ms: {e}"))?;
            p50 = hist.quantile(50.0);
            p99 = hist.quantile(99.0);
        }
    }
    Ok(EpochRow {
        epoch: num(v.field("epoch")),
        end_secs: num(v.field("asn_end")) / 100,
        joined: (gauge("nodes.joined"), gauge("nodes.total")),
        pdr: (generated > 0).then(|| delivered as f64 / generated as f64),
        p50,
        p99,
        tx: counter("tx.data"),
        drops: counter("drop.noise") + counter("drop.collision"),
        churn: counter("churn.parent"),
        queue_max: gauge("queue.max"),
    })
}

fn parse_alert(payload: &str) -> String {
    use digs_conformance::json::Value;
    match digs_conformance::json::parse(payload) {
        Ok(v) => format!(
            "epoch {:>3}  {:<16} {}",
            v.field("epoch").and_then(Value::as_u64).unwrap_or(0),
            v.field("rule").and_then(Value::as_str).unwrap_or("?"),
            v.field("detail").and_then(Value::as_str).unwrap_or(""),
        ),
        Err(_) => payload.to_string(),
    }
}

fn redraw_attached(
    run: &str,
    epochs: &[EpochRow],
    alerts: &[String],
    sent: u64,
    dropped: u64,
    state: Option<RunState>,
) {
    use std::io::Write as _;
    let ms = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.0}"));
    let mut s = format!("digsd `{run}` — live telemetry (attached)\n\n");
    s.push_str("epoch   t(s)  joined      PDR    p50ms   p99ms       tx   drops  churn  qmax\n");
    let skip = epochs.len().saturating_sub(12);
    for e in &epochs[skip..] {
        s.push_str(&format!(
            "{:>5} {:>6} {:>4}/{:<4} {:>6} {:>8} {:>7} {:>8} {:>7} {:>6} {:>5}\n",
            e.epoch,
            e.end_secs,
            e.joined.0,
            e.joined.1,
            e.pdr.map_or("-".to_string(), |p| format!("{p:.3}")),
            ms(e.p50),
            ms(e.p99),
            e.tx,
            e.drops,
            e.churn,
            e.queue_max,
        ));
    }
    if !alerts.is_empty() {
        s.push_str(&format!("\nalerts ({}):\n", alerts.len()));
        let skip = alerts.len().saturating_sub(8);
        for a in &alerts[skip..] {
            s.push_str(&format!("  {a}\n"));
        }
    }
    // Satellite contract: the footer always reports this subscriber's
    // flow-control totals, so backpressure drops are visible.
    s.push_str(&format!(
        "\nstream: {sent} frame(s) delivered, {dropped} dropped{}\n",
        state.map_or(String::new(), |st| format!(" — run {st}"))
    ));
    // ANSI home+clear keeps the table in place on a terminal; on a pipe
    // it degrades to a frame-per-epoch log.
    print!("\x1b[H\x1b[2J{s}");
    let _ = std::io::stdout().flush();
}

fn telemetry_top_attached(args: &Args, run: &str) -> Result<(), String> {
    let filter = Filter {
        kinds: Some([FrameKind::Epoch, FrameKind::Alert].into_iter().collect()),
        nodes: None,
    };
    // The dashboard rides a resumable stream: a daemon crash or dropped
    // connection reconnects with the cursor, so the table keeps filling
    // without duplicate epochs.
    let mut stream = ResumableStream::attach(&digsd_addr(args), "digs-cli", run, filter)?;
    let mut epochs: Vec<EpochRow> = Vec::new();
    let mut alerts: Vec<String> = Vec::new();
    loop {
        // The stream's own cumulative accounting (frames delivered to
        // this dashboard / total sequence gap) is the footer truth; the
        // rewritten heartbeats report the same numbers.
        match stream.next_item()? {
            StreamItem::Event(frame) => {
                match frame.kind {
                    FrameKind::Epoch => epochs.push(parse_epoch(&frame.payload)?),
                    FrameKind::Alert => alerts.push(parse_alert(&frame.payload)),
                    _ => continue,
                }
                redraw_attached(run, &epochs, &alerts, stream.delivered(), stream.gaps(), None);
            }
            StreamItem::Heartbeat { sent, dropped, .. } => {
                redraw_attached(run, &epochs, &alerts, sent, dropped, None);
            }
            StreamItem::Restart { .. } => continue,
            StreamItem::End(end) => {
                redraw_attached(run, &epochs, &alerts, end.sent, end.dropped, Some(end.state));
                return Ok(());
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "run" => cmd_run(&args),
        "topology" => cmd_topology(&args),
        "graph" => cmd_graph(&args),
        "manager" => cmd_manager(&args),
        "trace" => cmd_trace(&args),
        "telemetry" => cmd_telemetry(&args),
        "gate" => cmd_gate(&args),
        "fleet" => cmd_fleet(&args),
        "digsd" => cmd_digsd(&args),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::results_json;
    use digs::audit::{InvariantKind, InvariantViolation};
    use digs::results::{FlowResult, NodeResult, RunResults};
    use digs_conformance::json::{parse, Value};
    use digs_sim::ids::{FlowId, NodeId};
    use digs_sim::time::Asn;

    #[test]
    fn run_json_round_trips_and_nulls_non_finite_floats() {
        let results = RunResults {
            duration: Asn(100),
            flows: vec![FlowResult {
                flow: FlowId(0),
                source: NodeId(3),
                generated: 2,
                delivered: 1,
                delivered_seqs: [1].into(),
                latencies_ms: vec![120.0],
            }],
            nodes: vec![NodeResult {
                node: NodeId(3),
                energy_mj: 1.5,
                mean_power_mw: f64::INFINITY,
                duty_cycle: 0.25,
                tx_us: 10,
                rx_us: 20,
                joined_at: None,
                parent_changes: 1,
            }],
            parent_change_times: vec![Asn(7)],
            retry_drops: 1,
            queue_drops: 0,
            invariant_violations: vec![InvariantViolation {
                kind: InvariantKind::QueueBound,
                asn: Asn(9),
                node: NodeId(3),
                detail: "9 > 8".into(),
            }],
        };
        let value = results_json(&results);
        assert_eq!(parse(&value.to_pretty()).expect("output parses"), value);
        let node = &value.field("nodes").and_then(Value::as_arr).expect("nodes")[0];
        assert_eq!(node.field("mean_power_mw"), Some(&Value::Null));
        assert_eq!(node.field("joined_at"), Some(&Value::Null));
        let violation = &value.field("invariant_violations").and_then(Value::as_arr).expect("v")[0];
        assert_eq!(violation.field("kind").and_then(Value::as_str), Some("QueueBound"));
        let flow = &value.field("flows").and_then(Value::as_arr).expect("flows")[0];
        assert_eq!(flow.field("delivered_seqs"), Some(&Value::Arr(vec![Value::Num(1.0)])));
    }
}
