//! `telemetry export|report|top`: run a network with epoch sampling and
//! the health monitor on; `top --attach` renders a daemon's run instead.

use crate::flags::Args;
use crate::run::single_spec;
use digs::network::Network;
use digs::telemetry::{TelemetryView, Window};
use digs_digsd::{Filter, FrameKind, ResumableStream, RunState, SingleSpec, StreamItem};
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
    print!("{}", digs::telemetry::report(sampler, Window::ALL));
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
        redraw(&digs::telemetry::report(sampler, TOP));
    }
    Ok(())
}

/// What both `top` modes show: the last 12 epochs and the last 8 alerts.
const TOP: Window = Window { epochs: 12, alerts: 8 };

fn redraw(text: &str) {
    // ANSI home+clear keeps the table in place on a terminal; on a pipe
    // it degrades to a frame-per-epoch log.
    print!("\x1b[H\x1b[2J{text}");
    let _ = std::io::stdout().flush();
}

/// The dashboard as a digsd client: a resumable stream, so a daemon
/// crash or a dropped connection reconnects with the cursor and the table
/// keeps filling without duplicate epochs.
fn top_attached(args: &Args, run: &str) -> Result<(), String> {
    let stream =
        ResumableStream::attach(&crate::digsd::addr(args)?, "digs-cli", run, filter(), None)?;
    follow(stream, run, |view, footer| redraw(&(view.render(TOP) + footer)))?;
    Ok(())
}

/// The frames a telemetry view is built from.
fn filter() -> Filter {
    Filter {
        kinds: Some([FrameKind::Meta, FrameKind::Epoch, FrameKind::Alert].into_iter().collect()),
        nodes: None,
    }
}

/// Drains a telemetry stream into a [`TelemetryView`], handing `draw` the
/// view and the stream footer after every frame, heartbeat and the end.
/// The footer always reports this subscriber's flow-control totals (the
/// stream's own cumulative accounting, which the rewritten heartbeats
/// repeat), so backpressure drops are visible.
fn follow(
    mut stream: ResumableStream,
    run: &str,
    mut draw: impl FnMut(&TelemetryView, &str),
) -> Result<TelemetryView, String> {
    let mut view = TelemetryView::default();
    let footer = |sent: u64, dropped: u64, state: Option<RunState>| {
        let state = state.map_or(String::new(), |st| format!(" — run {st}"));
        format!("\nstream `{run}`: {sent} frame(s) delivered, {dropped} dropped{state}\n")
    };
    loop {
        match stream.next_item()? {
            StreamItem::Event(frame) => {
                view.push_line(&frame.payload)
                    .map_err(|e| format!("run `{run}` is not a telemetry stream: {e}"))?;
                draw(&view, &footer(stream.delivered(), stream.lost(), None));
            }
            StreamItem::Heartbeat { sent, dropped, .. } => {
                draw(&view, &footer(sent, dropped, None))
            }
            StreamItem::Restart { .. } => {}
            StreamItem::End(end) => {
                draw(&view, &footer(end.sent, end.dropped, Some(end.state)));
                return Ok(view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_digsd::{Daemon, DaemonConfig};

    #[test]
    fn top_attached_draws_the_view_of_the_same_run_in_process() {
        let spec = SingleSpec {
            topology: "testbed-a-half".into(),
            flows: 6,
            period_ms: 3000,
            secs: 300,
            seed: 7,
            adaptive_jam: Some(60),
            telemetry: Some((500, 4096)),
            ..SingleSpec::default()
        };
        let mut network = spec.build().unwrap();
        network.run_secs(spec.secs);
        let local = network.telemetry().unwrap();
        assert!(local.epochs().count() > TOP.epochs && local.alerts().len() > TOP.alerts);

        let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).unwrap();
        let addr = daemon.local_addr().unwrap().to_string();
        std::thread::spawn(move || daemon.serve_forever());
        let stream =
            ResumableStream::launch(&addr, "digs-cli", "top", spec.to_json(), filter()).unwrap();
        let mut footer = String::new();
        let view = follow(stream, "top", |_, f| footer = f.to_string()).unwrap();

        assert!(footer.ends_with("0 dropped — run done\n"), "{footer}");
        assert_eq!(view.render(TOP), digs::telemetry::report(local, TOP));
        assert_eq!(view.render(Window::ALL), digs::telemetry::report(local, Window::ALL));
    }
}
