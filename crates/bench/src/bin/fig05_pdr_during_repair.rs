//! Fig. 5 — per-flow PDR during the repair when the network encounters
//! interference from 1–4 jammers (Orchestra).
//!
//! Paper: median PDRs 0.90 / 0.87 / 0.845 / 0.825 for 1–4 jammers, with
//! large variations.

use digs::config::Protocol;
use digs::network::Network;
use digs::scenarios;
use digs_metrics::format::{boxplot_table, figure_header};
use digs_metrics::BoxplotStats;

fn main() {
    let sets = digs_bench::sets(6);
    let secs = digs_bench::secs(420);
    println!("{}", figure_header("Fig. 5", "Orchestra per-flow PDR during repair, 1-4 jammers"));

    let mut rows = Vec::new();
    let mut medians = Vec::new();
    for jammers in 1..=4usize {
        let mut pdrs = Vec::new();
        for seed in 1..=sets {
            let config = scenarios::testbed_a_jammer_sweep(Protocol::Orchestra, jammers, seed);
            let specs = config.flows.clone();
            let results = digs::experiment::run_for(config, secs);
            for (flow, spec) in results.flows.iter().zip(&specs) {
                let window = scenarios::JAM_START_SECS * 100;
                if let Some(p) = digs::experiment::windowed_flow_pdr(flow, spec, window) {
                    pdrs.push(p);
                }
            }
        }
        if let Some(stats) = BoxplotStats::of(&pdrs) {
            medians.push(stats.median);
            rows.push((format!("{jammers} jammer(s)"), stats));
        }
    }
    println!("{}", boxplot_table(&rows));
    let paper = [0.90, 0.87, 0.845, 0.825];
    let comparisons: Vec<(String, String, f64)> = medians
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("median PDR with {} jammer(s)", i + 1), format!("{}", paper[i]), *m))
        .collect();
    let rows: Vec<(&str, &str, f64)> =
        comparisons.iter().map(|(a, b, c)| (a.as_str(), b.as_str(), *c)).collect();
    digs_bench::print_comparisons(&rows);

    // Flight-recorder drill-down: with DIGS_TRACE_CAP set, trace the
    // 4-jammer worst case once and relate the PDR dip to the packet
    // journeys the recorder reconstructs across the jammed window.
    if let Some(cap) = digs_bench::trace_cap() {
        let mut config = scenarios::testbed_a_jammer_sweep(Protocol::Orchestra, 4, 1);
        config.trace_cap = Some(cap);
        let mut net = Network::new(config);
        net.run_secs(secs);
        let events = net.trace().events();
        let journeys = digs_trace::journeys(&events);
        let jam = scenarios::JAM_START_SECS * 100;
        let jammed: Vec<_> =
            journeys.iter().filter(|j| j.generated_at.is_some_and(|g| g >= jam)).collect();
        let complete = jammed.iter().filter(|j| j.is_complete()).count();
        let retx: u32 =
            jammed.iter().map(|j| j.total_attempts().saturating_sub(j.hops.len() as u32)).sum();
        println!();
        println!(
            "flight recorder (4 jammers, seed 1): {} journeys generated under jamming, \
             {} delivered, {} retransmissions",
            jammed.len(),
            complete,
            retx,
        );
    }
}
