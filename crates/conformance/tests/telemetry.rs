//! Telemetry pipeline integration: determinism of the exported series,
//! observation-only sampling, and the health monitor catching an
//! injected fault without crying wolf on a clean run.

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::scenarios;
use digs::telemetry::{self, HealthRule};
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_sim::topology::Topology;

/// One run with telemetry on, returning the exported JSONL series.
fn telemetry_jsonl(protocol: Protocol, seed: u64, secs: u64) -> String {
    let config = NetworkConfig::builder(Topology::testbed_a_half())
        .protocol(protocol)
        .seed(seed)
        .random_flows(2, 500, seed)
        .telemetry_epoch(1000)
        .telemetry_cap(4096)
        .build();
    let mut net = Network::new(config);
    net.run_secs(secs);
    let sampler = net.telemetry().expect("telemetry on");
    telemetry::to_jsonl(sampler)
}

#[test]
fn telemetry_jsonl_is_byte_identical_for_all_three_stacks() {
    for protocol in [Protocol::Digs, Protocol::Orchestra, Protocol::WirelessHart] {
        let a = telemetry_jsonl(protocol, 7, 90);
        let b = telemetry_jsonl(protocol, 7, 90);
        assert!(
            a.lines().count() > 5,
            "{}: a 90 s run must sample a non-trivial number of epochs",
            protocol.name()
        );
        assert_eq!(a, b, "{}: telemetry JSONL diverged between identical runs", protocol.name());
    }
}

#[test]
fn telemetry_sampling_is_observation_only() {
    // Same property the trace layer guarantees: switching the sampler on
    // must not perturb a single delivery, join, or parent change.
    let run = |epoch_slots: u64| {
        let mut net = Network::new(
            NetworkConfig::builder(Topology::testbed_a_half())
                .protocol(Protocol::Digs)
                .seed(11)
                .random_flows(2, 300, 5)
                .trace_cap(0)
                .telemetry_epoch(epoch_slots)
                .telemetry_cap(4096)
                .build(),
        );
        net.run_secs(60);
        let r = net.results();
        (r.total_delivered(), r.total_generated(), r.parent_change_times.len())
    };
    assert_eq!(run(0), run(500), "telemetry must be observation-only");
}

/// A jammed run (same full-band cluster `digs-cli --jam` places: four
/// WiFi channels covering all sixteen 802.15.4 channels, one elevated
/// cluster per access point) and its clean twin.
fn health_run(jam: Option<(u64, u64)>) -> Vec<telemetry::HealthAlert> {
    let topology = Topology::testbed_a_half();
    let jammers = jam.map_or(Vec::new(), |(start, end)| {
        scenarios::jammer_clusters_on_aps(&topology, Asn::from_secs(start), Asn::from_secs(end))
    });
    let mut builder = NetworkConfig::builder(topology)
        .protocol(Protocol::Digs)
        .seed(7)
        .random_flows(2, 500, 7)
        .trace_cap(0)
        .telemetry_epoch(1000)
        .telemetry_cap(4096);
    for j in jammers {
        builder = builder.jammer(j);
    }
    let mut net = Network::new(builder.build());
    net.run_secs(300);
    net.telemetry().expect("telemetry pinned on").alerts().to_vec()
}

#[test]
fn health_monitor_catches_injected_jam_and_stays_quiet_on_clean_runs() {
    let clean = health_run(None);
    assert!(clean.is_empty(), "clean run must raise no alerts, got {clean:?}");

    let (jam_start, jam_end) = (150u64, 210u64);
    let alerts = health_run(Some((jam_start, jam_end)));
    let fault_slots = (jam_start * SLOTS_PER_SECOND)..(jam_end * SLOTS_PER_SECOND);
    let overlapping: Vec<_> = alerts
        .iter()
        .filter(|a| a.rule == HealthRule::PdrCollapse)
        .filter(|a| a.asn_start < fault_slots.end && a.asn_end > fault_slots.start)
        .collect();
    assert!(
        !overlapping.is_empty(),
        "expected a pdr-collapse alert overlapping the {jam_start}-{jam_end} s jam, got {alerts:?}"
    );
}

/// An adaptive schedule-learning attack run: one sniffer-jammer parked
/// next to each access point, observing from 60 s (so jamming starts
/// once the 30 s learning window fills). Traffic is deliberately dense
/// (six 3 s flows) — a sniffer needs busy cells to rank, and sparser
/// loads on the half testbed leave it cycling through relearn phases
/// without ever converging. `randomize` switches the
/// schedule-randomization defense on with the given network secret.
/// Returns the health alerts and the jammers' combined hit rate.
fn adversarial_run(randomize: Option<u64>) -> (Vec<telemetry::HealthAlert>, f64) {
    let topology = Topology::testbed_a_half();
    let jammers = scenarios::adaptive_jammers_near_aps(&topology, Asn::from_secs(60));
    let mut builder = NetworkConfig::builder(topology)
        .protocol(Protocol::Digs)
        .seed(7)
        .random_flows(6, 300, 7)
        .trace_cap(0)
        .telemetry_epoch(1000)
        .telemetry_cap(4096);
    for j in jammers {
        builder = builder.jammer(j);
    }
    if let Some(secret) = randomize {
        builder = builder.randomize(secret);
    }
    let mut net = Network::new(builder.build());
    net.run_secs(300);
    let stats = net.engine().stats();
    let hit_rate = if stats.adaptive_jam_opportunities == 0 {
        0.0
    } else {
        stats.adaptive_jam_hits as f64 / stats.adaptive_jam_opportunities as f64
    };
    (net.telemetry().expect("telemetry pinned on").alerts().to_vec(), hit_rate)
}

#[test]
fn adaptive_jammer_collapses_static_schedules_and_randomization_recovers() {
    // Against the static Eq. 4 schedule the sniffer's learned cell map
    // never goes stale: the attack lands, and the health monitor must
    // call it out as a PDR collapse.
    let (attack_alerts, attack_rate) = adversarial_run(None);
    assert!(
        attack_alerts.iter().any(|a| a.rule == HealthRule::PdrCollapse),
        "adaptive jam vs a static schedule must trip pdr-collapse, got {attack_alerts:?}"
    );
    assert!(
        attack_rate > 0.25,
        "a converged sniffer should land most of its jam slots on real \
         transmissions, got hit rate {attack_rate:.4}"
    );

    // With per-epoch randomization the learned map is stale by the next
    // slotframe: no collapse ever, the hit rate pins near the blind-guess
    // floor, and once formation plus first-contact churn settles the run
    // is alert-free.
    let (duel_alerts, duel_rate) = adversarial_run(Some(0x5afe_c0de));
    assert!(
        duel_alerts.iter().all(|a| a.rule != HealthRule::PdrCollapse),
        "randomized schedule must not collapse under the adaptive jammer, got {duel_alerts:?}"
    );
    assert!(
        duel_rate < 0.10,
        "randomization should pin the sniffer near its blind-guess floor, \
         got hit rate {duel_rate:.4} (attack run scored {attack_rate:.4})"
    );
    let converged = 220 * SLOTS_PER_SECOND;
    let late: Vec<_> = duel_alerts.iter().filter(|a| a.asn_start >= converged).collect();
    assert!(late.is_empty(), "defended run should be alert-free after convergence, got {late:?}");
}
