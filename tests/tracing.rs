//! Cross-crate integration: the flight recorder observing real runs —
//! deterministic export, and journey reconstruction through a scripted
//! link failure.

mod common;

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs_sim::fault::{Fault, FaultPlan};
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// Identical seed and config must export a byte-identical JSONL trace:
/// the recorder assigns sequence numbers deterministically and the
/// exporter writes fields in a fixed order, so the whole pipeline is
/// reproducible down to the bytes.
#[test]
fn same_seed_traced_runs_export_identical_jsonl() {
    let run = || {
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::Digs)
            .seed(5)
            .random_flows(2, 300, 5)
            .trace_cap(100_000)
            .build();
        let mut net = Network::new(config);
        net.run_secs(90);
        digs_trace::to_jsonl(&net.trace().events())
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "a traced run must record events");
    assert_eq!(a, b, "same seed + config must export byte-identical traces");

    // And the export round-trips losslessly through the parser.
    let parsed = digs_trace::from_jsonl(&a).expect("exported JSONL must parse");
    assert_eq!(digs_trace::to_jsonl(&parsed), a);
}

/// Break a formed flow's primary parent link and follow the packets: the
/// flight recorder must show a journey whose transmissions divert from
/// the primary to the backup parent (the paper's graph-routing claim,
/// observed packet by packet instead of through aggregate PDR).
#[test]
fn link_failure_journey_diverts_to_backup_parent() {
    let (mut network, source, best, second) = common::formed_relay_with_a_backup(Some(400_000));

    network.set_fault_plan(FaultPlan::from_iter([Fault::link(
        source,
        best,
        Asn::from_secs(120),
        Some(Asn::from_secs(180)),
    )]));
    network.run_secs(210);

    let journeys = digs_trace::journeys(&network.trace().events());
    let diverted: Vec<_> = journeys
        .iter()
        .filter(|j| {
            j.hops.iter().any(|h| {
                h.node == source.0 && h.targets.contains(&best.0) && h.targets.contains(&second.0)
            })
        })
        .collect();
    assert!(
        !diverted.is_empty(),
        "the outage must produce a journey retrying the primary {best} then \
         diverting to the backup {second} ({} journeys total)",
        journeys.len()
    );
    // The diversion is the paper's repair mechanism working: at least one
    // such journey must also have completed end to end.
    assert!(
        diverted.iter().any(|j| j.is_complete()),
        "some diverted journey must still reach the access point"
    );
    // And the aggregate agrees with the per-packet story.
    let results = network.results();
    assert!(
        results.network_pdr() > 0.8,
        "backup route should carry the flow through the link outage: {:.3}",
        results.network_pdr()
    );
}

/// The fault-plan events themselves land in the trace, bracketing the
/// routing response for the churn timeline.
#[test]
fn link_outage_appears_in_churn_timeline() {
    let (mut network, source, best, _) = common::formed_relay_with_a_backup(Some(400_000));
    network.set_fault_plan(FaultPlan::from_iter([Fault::link(
        source,
        best,
        Asn::from_secs(120),
        Some(Asn::from_secs(180)),
    )]));
    network.run_secs(120);

    let churn = digs_trace::churn_timeline(&network.trace().events());
    let inject = churn
        .iter()
        .find(|e| matches!(e.kind, digs_trace::EventKind::FaultInject { .. }))
        .expect("the scripted link outage must be recorded");
    assert_eq!(inject.asn, Asn::from_secs(120).0);
    assert!(
        churn.iter().any(|e| matches!(e.kind, digs_trace::EventKind::FaultClear { .. })),
        "the outage's clearing must be recorded too"
    );
}
