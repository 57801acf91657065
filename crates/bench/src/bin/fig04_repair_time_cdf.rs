//! Fig. 4 — CDF of the repair time used by Orchestra to update routes and
//! transmission schedule when the network encounters controlled
//! interference from 1–4 jammers.
//!
//! Paper: repair time ranges 20–95 s with a median of 45 s.

use digs::config::Protocol;
use digs::network::Network;
use digs::scenarios;
use digs_metrics::format::{cdf_table, figure_header};
use digs_metrics::Cdf;
use digs_sim::time::Asn;
use digs_trace::EventKind;

fn main() {
    let sets = digs_bench::sets(6);
    let secs = digs_bench::secs(420);
    println!("{}", figure_header("Fig. 4", "CDF of Orchestra repair time under 1-4 jammers"));

    let jam_start = Asn::from_secs(scenarios::JAM_START_SECS);
    let mut all_repairs = Vec::new();
    for jammers in 1..=4usize {
        let results = digs_bench::run_seeds(
            move |seed| scenarios::testbed_a_jammer_sweep(Protocol::Orchestra, jammers, seed),
            sets,
            secs,
        );
        let repairs = digs::experiment::repair_times_secs(&results, jam_start, 10);
        println!(
            "{} jammer(s): {} repair events, median {:.1} s",
            jammers,
            repairs.len(),
            Cdf::new(repairs.iter().copied()).map_or(f64::NAN, |c| c.median())
        );
        all_repairs.extend(repairs);
    }

    match Cdf::new(all_repairs.iter().copied()) {
        Some(cdf) => {
            println!();
            println!("{}", cdf_table(&[("orchestra", &cdf)], "repair (s)", 10));
            digs_bench::print_comparisons(&[
                ("repair time min (s)", "20", cdf.min()),
                ("repair time median (s)", "45", cdf.median()),
                ("repair time max (s)", "95", cdf.max()),
            ]);
        }
        None => println!("no repair events observed — increase DIGS_SETS"),
    }

    // Flight-recorder drill-down: with DIGS_TRACE_CAP set, re-run the
    // 1-jammer scenario once with the recorder on and print the
    // parent-churn timeline hiding behind the aggregate CDF above.
    if let Some(cap) = digs_bench::trace_cap() {
        let mut config = scenarios::testbed_a_jammer_sweep(Protocol::Orchestra, 1, 1);
        config.trace_cap = Some(cap);
        let mut net = Network::new(config);
        net.run_secs(secs);
        let events = net.trace().events();
        let churn = digs_trace::churn_timeline(&events);
        let first_switch = churn
            .iter()
            .find(|e| e.asn >= jam_start.0 && matches!(e.kind, EventKind::ParentSwitch { .. }))
            .map(|e| (e.asn - jam_start.0) as f64 / 100.0);
        println!();
        println!(
            "flight recorder (1 jammer, seed 1): {} churn events, first parent switch {} after jamming began",
            churn.len(),
            first_switch.map_or("never".to_string(), |s| format!("{s:.1} s")),
        );
        for e in churn.iter().filter(|e| e.asn >= jam_start.0).take(20) {
            println!("  {e}");
        }
    }
}
