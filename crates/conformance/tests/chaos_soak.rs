//! The chaos soak as a test: DiGS on the catalogue's `chaos-digs` network
//! at seed 3 — 120 s of clean formation, 360 s of seeded randomized
//! faults (node churn, cold reboots, link flaps, clock desyncs, jammer
//! bursts), a 120 s tail — audited every 10 s, then an audited settle and
//! a deep-quiet loop-freedom check on the final routing graph. A failure
//! carries the flight-recorder window around the first violation.

use digs::network::Network;
use digs_conformance::matrix::{self, AUDIT_EVERY_SLOTS};
use digs_sim::time::SLOTS_PER_SECOND;

/// Extra audited settle before the deep-quiet check. Post-chaos
/// re-convergence cascades: each join-in wave of rank repair can close
/// fresh transient cycles, and the churn has been observed to outlast the
/// last fault by ~140 s — a couple of Trickle maximum intervals — before
/// the graph goes quiet for good.
const FINAL_SETTLE_SECS: u64 = 180;

#[test]
fn digs_keeps_its_invariants_through_the_chaos_soak() {
    let spec = matrix::scenarios(&["chaos-digs"], None).expect("in the catalogue").remove(0);
    let mut config = spec.config(3);
    config.trace_cap = Some(4096);
    let mut net = Network::new(config);
    net.run_audited(spec.secs * SLOTS_PER_SECOND, AUDIT_EVERY_SLOTS);
    // By now every belief-skew cycle has had ample time to unwind, so a
    // loop in the final graph is real.
    net.run_audited(FINAL_SETTLE_SECS * SLOTS_PER_SECOND, AUDIT_EVERY_SLOTS);
    let mut violations = net.violations().to_vec();
    violations.extend(digs::audit::check_loop_freedom(&net.audit_snapshot()));
    if violations.is_empty() {
        return;
    }
    let mut window = net.violation_window().to_vec();
    if window.is_empty() {
        // Found only by the deep-quiet check: the trailing window.
        let (events, end) = (net.trace().events(), net.asn().0);
        window = digs_trace::window(&events, end, Network::VIOLATION_WINDOW_SLOTS);
    }
    let mut message = format!("{} DiGS invariant violation(s):\n", violations.len());
    for v in &violations {
        message.push_str(&format!("  {v}\n"));
    }
    message.push_str(&format!(
        "flight-recorder window around the first violation ({} events, last {} slots):\n",
        window.len(),
        Network::VIOLATION_WINDOW_SLOTS
    ));
    for e in &window {
        message.push_str(&format!("  {e}\n"));
    }
    panic!("{message}");
}
