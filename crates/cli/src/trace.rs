//! `trace journeys|churn|dump`: run a network with the flight recorder
//! on and analyse the event stream.

use crate::flags::Args;
use crate::run::single_spec;
use digs_trace::Event;

fn traced_events(args: &Args) -> Result<Vec<Event>, String> {
    let mut spec = single_spec(args, 120)?;
    spec.trace_cap = Some(args.get("trace-cap")?.unwrap_or(65_536));
    let mut network = spec.build()?;
    network.run_secs(spec.secs);
    Ok(network.trace().events())
}

pub fn journeys(args: &Args) -> Result<(), String> {
    let events = traced_events(args)?;
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
    let min_complete: usize = args.get("min-complete")?.unwrap_or(0);
    if b.complete < min_complete {
        return Err(format!(
            "only {} complete journeys reconstructed (need {min_complete})",
            b.complete
        ));
    }
    Ok(())
}

pub fn churn(args: &Args) -> Result<(), String> {
    let events = traced_events(args)?;
    let timeline = digs_trace::churn_timeline(&events);
    println!("churn/repair timeline ({} events):", timeline.len());
    for e in &timeline {
        println!("  {e}");
    }
    let episodes = digs_trace::repair_episodes(&events);
    println!("repair episodes: {}", episodes.len());
    for ep in &episodes {
        let first = ep.first_switch_after.map_or_else(|| "-".to_string(), |d| format!("{d} slots"));
        println!("  {} → {} parent switches, first after {first}", ep.fault, ep.switches.len());
    }
    Ok(())
}

pub fn dump(args: &Args) -> Result<(), String> {
    let events = traced_events(args)?;
    let text = digs_trace::to_jsonl(&events);
    // Round-trip before emitting: a dump the tooling cannot parse
    // back is worse than no dump.
    let parsed = digs_trace::from_jsonl(&text).map_err(|e| format!("round-trip failed: {e}"))?;
    if parsed.len() != events.len() {
        return Err(format!("round-trip lost events: {} in, {} back", events.len(), parsed.len()));
    }
    print!("{text}");
    eprintln!("{} events", events.len());
    Ok(())
}
