//! Head-to-head interference study (one flow set of the paper's Fig. 9
//! scenario): Testbed A, 8 flows, three WiFi-emulating jammers switching
//! on two minutes into the run.
//!
//! ```sh
//! cargo run --release --example interference_study
//! ```

use digs::config::Protocol;
use digs::network::Network;
use digs::scenarios;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

fn main() {
    for protocol in [Protocol::Digs, Protocol::Orchestra] {
        let config = scenarios::testbed_a_interference(Topology::testbed_a(), protocol, 1);
        let mut network = Network::new(config);
        network.run_secs(420);
        let results = network.results();
        println!("── {} ──", protocol.name());
        println!("  flow-set PDR      : {:.3}", results.network_pdr());
        println!("  worst flow PDR    : {:.3}", results.worst_flow_pdr());
        println!("  median latency    : {:.0} ms", results.median_latency_ms().unwrap_or(f64::NAN));
        println!("  power per packet  : {:.4} mW", results.power_per_received_packet_mw());
        let repair = results
            .repair_time_secs(Asn::from_secs(scenarios::JAM_START_SECS), 1000)
            .map_or("none needed".to_string(), |t| format!("{t:.1} s"));
        println!("  repair after jam  : {repair}");
        println!("  parent changes    : {}", results.parent_change_times.len());
        println!();
    }
    println!("expected shape (paper Fig. 9): DiGS delivers a higher PDR with");
    println!("lower, steadier latency; Orchestra pays for its single route with");
    println!("repair pauses and retry tails.");
}
