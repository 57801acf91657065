//! One-off repro check for the factory-floor seed-534 frozen loop
//! (ROADMAP item 6): exits non-zero while the auditor still records a
//! violation for this realization.
use digs_fleet::{fleet_tuned, run_network, Template};

fn main() {
    let config = fleet_tuned(Template::FactoryFloor.config(534), 600);
    let summary = run_network("factory-floor/seed534", config, 600, None)
        .expect("no deadline, so nothing interrupts the run");
    println!("violations={} pdr={:.3} alerts={}", summary.violations, summary.pdr, summary.alerts);
    std::process::exit(i32::from(summary.violations != 0));
}
