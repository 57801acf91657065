//! A scenario is its config: for every scenario of the small matrix, at
//! its shortest length and seed 1, the catalogue's record equals the record
//! of a plain run of `ScenarioSpec::config` — nothing is injected into the
//! network after it is built.

use digs::network::Network;
use digs_conformance::matrix::MatrixKind;
use digs_sim::time::SLOTS_PER_SECOND;

#[test]
fn every_small_scenario_is_a_run_of_its_config() {
    let seed = 1;
    let specs = MatrixKind::Small.scenarios(Some(0));
    let differ: Vec<&str> = digs_conformance::pool::par_map(specs.iter().collect(), 2, |spec| {
        let config = spec.config(seed);
        let flows = config.flows.clone();
        let mut network = Network::new(config);
        let slots = spec.secs * SLOTS_PER_SECOND;
        match spec.audit_every() {
            Some(every) => network.run_audited(slots, every),
            None => network.run(slots),
        }
        let plain = spec.record(seed, &network.results(), &flows);
        (spec.run(seed).to_line() != plain.to_line()).then_some(spec.name.as_str())
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        differ.is_empty(),
        "these scenarios run something their config does not say: {differ:?}"
    );
}
