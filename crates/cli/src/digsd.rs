//! `digsd serve|launch|attach|tail|list|kill|shutdown`: the daemon and
//! its clients (DESIGN §4.12).

use crate::flags::Args;
use crate::fleet::fleet_params;
use crate::telemetry::telemetry_spec;
use digs_digsd::{
    BackoffPolicy, Client, Daemon, DaemonConfig, Filter, FrameKind, ResumableStream, RunState,
    ServerMsg, SingleSpec, StreamItem, DEFAULT_ADDR,
};
use digs_fleet::FleetParams;
use std::io::Write as _;
use std::time::Duration;

/// `--addr`, else `DIGS_DIGSD_ADDR`, else [`DEFAULT_ADDR`].
pub(crate) fn addr(args: &Args) -> Result<String, String> {
    Ok(args.get("addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string()))
}

fn connect(args: &Args) -> Result<Client, String> {
    Client::connect(&addr(args)?, "digs-cli")
}

/// `--kinds trace,epoch,...` / `--nodes 3,7,...` as the subscription
/// filter (absent flags subscribe to everything).
fn filter(args: &Args) -> Result<Filter, String> {
    let kinds = match args.csv::<String>("kinds")? {
        None => None,
        Some(names) => Some(names.iter().map(|k| FrameKind::parse(k)).collect::<Result<_, _>>()?),
    };
    let nodes = args.csv::<u16>("nodes")?.map(|ids| ids.into_iter().collect());
    Ok(Filter { kinds, nodes })
}

pub fn serve(args: &Args) -> Result<(), String> {
    let addr = addr(args)?;
    let mut config = DaemonConfig::default();
    if let Some(cap) = args.get("queue")? {
        config.queue_cap = cap;
    }
    if config.queue_cap == 0 {
        return Err("--queue must be > 0".into());
    }
    config.journal = args.get("journal")?;
    if let Some(max) = args.get("max-restarts")? {
        config.backoff = BackoffPolicy::new(max);
    }
    if let Some(ms) = args.get("resume-grace-ms")? {
        config.resume_grace = Duration::from_millis(ms);
    }
    config.chaos.slow_run_ms = args.get("chaos-slow-ms")?;
    let mut daemon =
        Daemon::bind(&addr, config.clone()).map_err(|e| format!("binding {addr}: {e}"))?;
    daemon.register_runner("scenario", digs_conformance::prepare_scenario);
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
fn follow(stream: &mut ResumableStream, raw: bool) -> Result<(), String> {
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
                let line = if raw { ServerMsg::Event(frame).encode() } else { frame.payload };
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

pub fn launch(args: &Args) -> Result<(), String> {
    let name: String = args.require("name")?;
    let kind: Option<String> = args.get("kind")?;
    let spec = match kind.as_deref().unwrap_or("single") {
        "single" => {
            // Daemon runs exist to be observed: flight recorder and
            // telemetry sampling are on by default (unlike plain `run`).
            let mut spec = telemetry_spec(args, SingleSpec::default().secs)?;
            spec.trace_cap = Some(args.get("trace-cap")?.unwrap_or(65_536));
            spec.to_json()
        }
        "fleet" => fleet_params(args, FleetParams::default().networks)?.to_json(),
        "scenario" => {
            let matrix: Option<String> = args.get("matrix")?;
            digs_conformance::ScenarioLaunch {
                matrix: digs_conformance::MatrixKind::parse(matrix.as_deref().unwrap_or("full"))?,
                scenario: args.require("scenario")?,
                seed: args.get("seed")?.unwrap_or(1),
                secs: args.get("secs")?,
            }
            .to_json()
        }
        other => return Err(format!("unknown --kind `{other}` (single|fleet|scenario)")),
    };
    let addr = addr(args)?;
    if args.switch("tail") {
        let mut stream = ResumableStream::launch(&addr, "digs-cli", &name, spec, filter(args)?)?;
        eprintln!("digsd: launched `{name}` on {addr}");
        follow(&mut stream, false)
    } else {
        Client::connect(&addr, "digs-cli")?.launch(&name, spec, false, filter(args)?)?;
        eprintln!("digsd: launched `{name}` on {addr}");
        Ok(())
    }
}

fn follow_run(args: &Args, raw: bool) -> Result<(), String> {
    let run: String = args.require("run")?;
    let (addr, filter) = (addr(args)?, filter(args)?);
    // --from-seq resumes a previous session's stream position (e.g. after
    // a daemon shutdown or a client crash) without duplicates.
    let mut stream =
        ResumableStream::attach(&addr, "digs-cli", &run, filter, args.get("from-seq")?)?;
    follow(&mut stream, raw)
}

pub fn attach(args: &Args) -> Result<(), String> {
    follow_run(args, true)
}

pub fn tail(args: &Args) -> Result<(), String> {
    follow_run(args, false)
}

pub fn list(args: &Args) -> Result<(), String> {
    let runs = connect(args)?.list()?;
    if args.switch("json") {
        println!("{}", ServerMsg::Runs { runs }.encode());
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

pub fn kill(args: &Args) -> Result<(), String> {
    let run: String = args.require("run")?;
    connect(args)?.kill(&run)?;
    eprintln!("digsd: kill requested for `{run}`");
    Ok(())
}

pub fn shutdown(args: &Args) -> Result<(), String> {
    // The wire-level stand-in for SIGTERM (no signal handling without
    // libc): live runs are suspended with their journal cursors, streams
    // get a `restarting` epilogue, and the daemon exits. A journaled
    // daemon restarted on the same file resumes the suspended runs.
    connect(args)?.shutdown()?;
    eprintln!("digsd: graceful shutdown requested on {}", addr(args)?);
    Ok(())
}
