//! `telemetry export|report|top`: run a network with epoch sampling and
//! the health monitor on; `top --attach` renders a daemon's run instead.

use crate::flags::Args;
use crate::run::single_spec;
use digs::network::Network;
use digs_digsd::{Filter, FrameKind, ResumableStream, RunState, SingleSpec, StreamItem};
use digs_json::Value;
use std::io::Write as _;

/// The run flags plus epoch sampling and the optional `--jam` window.
pub(crate) fn telemetry_spec(args: &Args, default_secs: u64) -> Result<SingleSpec, String> {
    let mut spec = single_spec(args, default_secs)?;
    let epoch_slots: u64 = args.get("epoch-slots")?.unwrap_or(1000);
    let cap: usize = args.get("cap")?.unwrap_or(4096);
    if epoch_slots == 0 || cap == 0 {
        return Err("telemetry needs --epoch-slots > 0 and --cap > 0".into());
    }
    spec.telemetry = Some((epoch_slots, cap));
    spec.jam = args.window("jam")?;
    Ok(spec)
}

fn sampled_run(args: &Args) -> Result<Network, String> {
    let spec = telemetry_spec(args, 300)?;
    let mut network = spec.build()?;
    network.run_secs(spec.secs);
    Ok(network)
}

pub fn export(args: &Args) -> Result<(), String> {
    let network = sampled_run(args)?;
    let sampler = network.telemetry().expect("telemetry_spec turns sampling on");
    let format: Option<String> = args.get("format")?;
    match format.as_deref().unwrap_or("jsonl") {
        "jsonl" => print!("{}", digs::telemetry::to_jsonl(sampler)),
        "csv" => print!("{}", digs::telemetry::to_csv(sampler)),
        other => return Err(format!("unknown --format `{other}` (jsonl|csv)")),
    }
    eprintln!("{} epochs, {} alerts", sampler.summary().epochs, sampler.summary().alerts);
    Ok(())
}

pub fn report(args: &Args) -> Result<(), String> {
    let network = sampled_run(args)?;
    let sampler = network.telemetry().expect("telemetry_spec turns sampling on");
    print!("{}", digs::telemetry::report(sampler));
    Ok(())
}

pub fn top(args: &Args) -> Result<(), String> {
    if let Some(run) = args.get::<String>("attach")? {
        return top_attached(args, &run);
    }
    // Live dashboard: advance one epoch at a time and redraw.
    let spec = telemetry_spec(args, 300)?;
    let (epoch_slots, _) = spec.telemetry.expect("telemetry_spec turns sampling on");
    let mut network = spec.build()?;
    let total_slots = spec.total_slots();
    let mut done = 0u64;
    while done < total_slots {
        let step = epoch_slots.min(total_slots - done);
        network.run(step);
        done += step;
        let sampler = network.telemetry().expect("telemetry_spec turns sampling on");
        // ANSI home+clear keeps the table in place on a terminal;
        // on a pipe it degrades to a frame-per-epoch log.
        print!("\x1b[H\x1b[2J{}", digs::telemetry::report(sampler));
        let _ = std::io::stdout().flush();
    }
    Ok(())
}

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
    let v = digs_json::parse(payload).map_err(|e| format!("bad epoch frame: {e}"))?;
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
    match digs_json::parse(payload) {
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

/// The dashboard as a digsd client: a resumable stream, so a daemon
/// crash or a dropped connection reconnects with the cursor and the table
/// keeps filling without duplicate epochs.
fn top_attached(args: &Args, run: &str) -> Result<(), String> {
    let filter = Filter {
        kinds: Some([FrameKind::Epoch, FrameKind::Alert].into_iter().collect()),
        nodes: None,
    };
    let mut stream = ResumableStream::attach(&crate::digsd::addr(args)?, "digs-cli", run, filter)?;
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
