//! Node-failure study (one run of the paper's Fig. 11 scenario): four
//! central relays are switched off in turn — the same four for both
//! protocols, as the paper turns off the same routing-graph nodes — and
//! the two protocols' per-flow delivery is compared.
//!
//! ```sh
//! cargo run --release --example node_failure
//! ```

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::results::RunResults;
use digs::scenarios::{self, FAILURE_EACH_SECS, FAILURE_START_SECS};
use digs_sim::topology::Topology;

fn run(config: NetworkConfig) -> RunResults {
    let mut network = Network::new(config);
    network.run_secs(420);
    network.results()
}

fn main() {
    let testbed = Topology::testbed_a();
    let [digs, orch] = [Protocol::Digs, Protocol::Orchestra]
        .map(|protocol| scenarios::testbed_a_node_failure(testbed.clone(), protocol, 2));
    let victims: Vec<u16> = digs.faults.iter().map(|outage| outage.node.0).collect();
    println!(
        "failing central relays in turn: {victims:?} ({FAILURE_EACH_SECS}s each, starting at \
         {FAILURE_START_SECS}s)"
    );
    let (digs, orch) = (run(digs), run(orch));

    println!();
    println!("{:>8} | {:>8} | {:>10}", "flow", "digs", "orchestra");
    for (d, o) in digs.flows.iter().zip(&orch.flows) {
        println!("{:>8} | {:>8.3} | {:>10.3}", d.flow.0, d.pdr(), o.pdr());
    }
    println!();
    println!("set PDR: digs {:.3} vs orchestra {:.3}", digs.network_pdr(), orch.network_pdr());
    println!(
        "power per received packet: digs {:.4} mW vs orchestra {:.4} mW",
        digs.power_per_received_packet_mw(),
        orch.power_per_received_packet_mw()
    );
    println!();
    println!("expected shape (paper Fig. 11): DiGS flows keep delivering through");
    println!("their backup routes while Orchestra flows stall until RPL repairs.");
}
