//! Bonus — all three systems end to end: DiGS, Orchestra, and the
//! centralized WirelessHART data plane on the same topology, clean and
//! with a mid-run relay failure.
//!
//! This is the experiment the paper *implies* with Fig. 3 but never runs
//! directly: the centralized schedule is flawless while nothing changes,
//! and blind for the full manager-update time once anything does. The
//! simulated manager cycle for Testbed A is ~500 s (Fig. 3), far longer
//! than this run's failure window — so the WirelessHART row shows the
//! no-repair worst case.

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs_metrics::format::figure_header;
use digs_sim::fault::{FaultPlan, Outage};
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

fn config(protocol: Protocol, seed: u64) -> NetworkConfig {
    let topology = Topology::testbed_a();
    let mut flows = digs::scenarios::far_flow_set(&topology, 6, 500, seed);
    for f in &mut flows {
        f.phase += 6000; // 60 s warm-up for the distributed protocols
    }
    NetworkConfig::builder(topology).protocol(protocol).seed(seed).flows(flows).build()
}

fn main() {
    let seed = digs_bench::sets(3); // reuse the knob as a seed selector
    let secs = digs_bench::secs(360);
    println!("{}", figure_header("Bonus", "DiGS vs Orchestra vs centralized WirelessHART"));
    let victim = digs::experiment::shared_relay_victim(&config(Protocol::WirelessHart, seed));
    println!(
        "shared failed relay: {}\n",
        victim.map_or("none found (flows are single-hop)".into(), |v| v.to_string())
    );
    println!(
        "{:>14} | {:>9} | {:>13} | {:>11} | {:>9}",
        "protocol", "clean PDR", "PDR w/failure", "median lat", "mW/packet"
    );
    for protocol in [Protocol::Digs, Protocol::Orchestra, Protocol::WirelessHart] {
        let mut clean_config = config(protocol, seed);
        clean_config.trace_cap = digs_bench::trace_cap();
        let mut clean = Network::new(clean_config);
        clean.run_secs(secs);
        let clean_results = clean.results();

        let mut failed = Network::new(config(protocol, seed));
        failed.run_secs(120);
        if let Some(v) = victim {
            failed.set_fault_plan(FaultPlan::none().with(Outage::transient(
                v,
                Asn::from_secs(120),
                Asn::from_secs(240),
            )));
        }
        failed.run_secs(secs - 120);
        let failed_results = failed.results();

        println!(
            "{:>14} | {:>9.3} | {:>13.3} | {:>9.0}ms | {:>9.4}",
            protocol.name(),
            clean_results.network_pdr(),
            failed_results.network_pdr(),
            clean_results.median_latency_ms().unwrap_or(f64::NAN),
            clean_results.power_per_received_packet_mw(),
        );
        // With DIGS_TRACE_CAP set, decompose the clean-run latency into
        // the flight recorder's per-hop queueing/retransmission parts —
        // this is where DiGS's dedicated cells vs Orchestra's shared
        // slots actually show up.
        if clean.trace().is_on() {
            let b = digs_trace::latency_breakdown(&digs_trace::journeys(&clean.trace().events()));
            println!(
                "{:>14} | {:>5}/{} journeys | {:>4.1} hops | {:>5.1} queue + {:>5.1} retx of {:>6.1} slots | {} via backup",
                "  breakdown",
                b.complete,
                b.journeys,
                b.mean_hops,
                b.mean_queue_slots,
                b.mean_retx_slots,
                b.mean_latency_slots,
                b.used_backup,
            );
        }
    }
    // Fourth row: the centralized baseline *with* its manager's recovery
    // cycle modelled (Fig. 3 cost). The manager may find the victim
    // unroutable-around (the failure partitions a flow) — report that
    // instead of aborting the comparison.
    if let Some(v) = victim {
        match digs::experiment::run_whart_with_recovery(
            config(Protocol::WirelessHart, seed),
            v,
            120,
            secs,
        ) {
            Ok((results, delay)) => println!(
                "{:>14} | {:>9} | {:>13.3} | {:>11} | ({:.0}s manager cycle)",
                "whart+recover",
                "-",
                results.network_pdr(),
                "-",
                delay
            ),
            Err(err) => println!(
                "{:>14} | {:>9} | {:>13} | {:>11} | (unroutable: {err})",
                "whart+recover", "-", "unroutable", "-"
            ),
        }
    }
    println!();
    println!("expected shape: all three deliver when nothing changes; under the");
    println!("failure, DiGS degrades least (instant backup route), Orchestra");
    println!("repairs within tens of seconds, and the static WirelessHART");
    println!("schedule stays broken for the whole outage (its manager would");
    println!("need a ~500 s update cycle, per Fig. 3).");
}
