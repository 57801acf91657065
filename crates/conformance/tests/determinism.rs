//! Double-run determinism: the same seed and configuration must produce
//! byte-identical canonical metrics and byte-identical trace JSONL for
//! every protocol stack. This is the property the golden-run gate leans
//! on — without it, tolerance bands would absorb nondeterminism instead
//! of regressions.

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::scenarios;
use digs::telemetry;
use digs_conformance::{MetricContext, RunMetrics};
use digs_sim::fault::{Fault, FaultPlan};
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// One full run: canonical metrics line + trace JSONL, traced with a ring
/// large enough to hold the whole run. The first flow's source cold-reboots
/// at 30 s for 5 s and the second's loses clock sync at 50 s, so every
/// stack's `reset` and `desync` are on the compared path.
fn run_once(protocol: Protocol, seed: u64, secs: u64) -> (String, String) {
    let mut config = NetworkConfig::builder(Topology::testbed_a_half())
        .protocol(protocol)
        .seed(seed)
        .random_flows(2, 500, seed)
        .trace_cap(1 << 18)
        .build();
    config.faults = FaultPlan::from_iter([
        Fault::reboot(config.flows[0].source, Asn::from_secs(30), Asn::from_secs(35)),
        Fault::desync(config.flows[1].source, Asn::from_secs(50)),
    ]);
    let specs = config.flows.clone();
    let mut net = Network::new(config);
    net.run_secs(secs);
    let results = net.results();
    let record = RunMetrics::from_results(
        "determinism",
        protocol.name(),
        seed,
        secs,
        &results,
        &specs,
        MetricContext::default(),
    );
    let trace = digs_trace::to_jsonl(&net.trace().events());
    (record.to_line(), trace)
}

#[test]
fn identical_runs_are_byte_identical_for_all_three_stacks() {
    for protocol in [Protocol::Digs, Protocol::Orchestra, Protocol::WirelessHart] {
        let (metrics_a, trace_a) = run_once(protocol, 7, 90);
        let (metrics_b, trace_b) = run_once(protocol, 7, 90);
        assert!(
            !trace_a.is_empty(),
            "{}: trace must record events for the comparison to mean anything",
            protocol.name()
        );
        assert_eq!(
            metrics_a,
            metrics_b,
            "{}: canonical RunMetrics JSON diverged between identical runs",
            protocol.name()
        );
        assert_eq!(
            trace_a,
            trace_b,
            "{}: trace JSONL diverged between identical runs",
            protocol.name()
        );
        // And the canonical line round-trips through the parser.
        let parsed = RunMetrics::from_line(&metrics_a).expect("canonical line parses");
        assert_eq!(parsed.to_line(), metrics_a);
    }
}

fn fnv1a64(parts: &[&str]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in parts.iter().flat_map(|part| part.bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Byte identity across commits, not only across runs: the FNV-1a-64 of the
/// canonical metrics line followed by the trace JSONL of `run_once(_, 7, 90)`
/// is pinned per stack, so a refactor that claims to be byte-safe is held to
/// it. A change that alters simulated behaviour on purpose re-pins: run this
/// test, copy the `got` values from the failure message into the table, and
/// say in the PR why the bytes moved.
#[test]
fn pinned_digests_hold_across_commits() {
    let pinned = [
        (Protocol::Digs, 0xe945_136b_0eda_6d32u64),
        (Protocol::Orchestra, 0x2bbc_cac6_fcad_d2f6),
        (Protocol::WirelessHart, 0x7843_02d3_aea4_91a0),
    ];
    let moved: Vec<String> = pinned
        .into_iter()
        .filter_map(|(protocol, want)| {
            let (metrics, trace) = run_once(protocol, 7, 90);
            assert!(
                trace.contains("\"reboot\"") && trace.contains("\"clock-desync\""),
                "{}: both faults must fire inside the traced window",
                protocol.name()
            );
            let got = fnv1a64(&[&metrics, &trace]);
            (got != want)
                .then(|| format!("{}: got {got:#018x}, pinned {want:#018x}", protocol.name()))
        })
        .collect();
    assert!(moved.is_empty(), "pinned digests moved: {moved:#?}");
}

/// The telemetry exporter is held to the same cross-commit identity: FNV-1a-64
/// of `telemetry::to_jsonl` for what `digs-cli telemetry export --secs 300
/// --jam 120:180` runs (30 epochs, 14 alerts, `pdr-collapse` among them),
/// pinned before the alert writer moved onto the shared escaper. Re-pin the
/// same way as above.
#[test]
fn pinned_telemetry_digest_holds_across_commits() {
    let spec = digs_digsd::SingleSpec {
        secs: 300,
        trace_cap: Some(0),
        telemetry: Some((1000, 4096)),
        jam: Some((120, 180)),
        ..digs_digsd::SingleSpec::default()
    };
    let mut net = spec.build().expect("spec builds");
    net.run_secs(spec.secs);
    let text = telemetry::to_jsonl(net.telemetry().expect("telemetry is on"));
    assert!(text.contains("\"rule\":\"pdr-collapse\""), "the jam must raise pdr-collapse alerts");
    let (got, want) = (fnv1a64(&[&text]), 0xccb7_75e9_56e9_bbfau64);
    assert_eq!(got, want, "telemetry digest moved: got {got:#018x}, pinned {want:#018x}");
}

/// The recorder remembers what happened, however long nothing did: at
/// `digs-cli`'s default `--trace-cap` a 900 s traced run keeps in its trace
/// every `HealthAlert` the sampler raised over the same jam window. (While the
/// network ring also took a marker per slot, the 90 000 of them evicted all
/// but the last 4.)
#[test]
fn a_long_traced_run_keeps_every_health_alert_the_sampler_raised() {
    let spec = digs_digsd::SingleSpec {
        secs: 900,
        trace_cap: Some(65_536),
        telemetry: Some((1000, 4096)),
        jam: Some((120, 180)),
        ..digs_digsd::SingleSpec::default()
    };
    let mut net = spec.build().expect("spec builds");
    net.run_secs(spec.secs);
    let raised = net.telemetry().expect("telemetry is on").alerts().len();
    let kept = net
        .trace()
        .node_events(digs_trace::NETWORK_NODE)
        .iter()
        .filter(|e| matches!(e.kind, digs_trace::EventKind::HealthAlert { .. }))
        .count();
    assert_eq!((raised, kept), (14, 14), "(alerts raised, alerts still in the trace)");
}

/// An adaptive jammer next to each access point, learning from 30 s, with
/// trace and telemetry both recording; `randomize` is the schedule
/// randomization secret (`None`: the static Eq. 4 schedule the sniffers
/// learn). Returns (trace JSONL, telemetry JSONL, final `EngineStats` as
/// `Debug`).
fn adversarial_once(seed: u64, secs: u64, randomize: Option<u64>) -> (String, String, String) {
    let topology = Topology::testbed_a_half();
    let jammers = scenarios::adaptive_jammers_near_aps(&topology, Asn::from_secs(30));
    let mut builder = NetworkConfig::builder(topology)
        .protocol(Protocol::Digs)
        .seed(seed)
        .random_flows(2, 500, seed)
        .trace_cap(8192)
        .telemetry_epoch(1000)
        .telemetry_cap(4096);
    if let Some(secret) = randomize {
        builder = builder.randomize(secret);
    }
    for j in jammers {
        builder = builder.jammer(j);
    }
    let mut net = Network::new(builder.build());
    net.run_secs(secs);
    let trace = digs_trace::to_jsonl(&net.trace().events());
    let tele = telemetry::to_jsonl(net.telemetry().expect("telemetry pinned on"));
    (trace, tele, format!("{:?}", net.engine().stats()))
}

/// The attack-vs-defense duel with every observer on: the adaptive jammers
/// against schedule randomization.
fn duel_once(seed: u64, secs: u64) -> (String, String, String) {
    adversarial_once(seed, secs, Some(0x5afe_c0de))
}

/// The attack alone: the sniffers against the static schedule.
fn attack_once(seed: u64, secs: u64) -> (String, String, String) {
    adversarial_once(seed, secs, None)
}

#[test]
fn adversarial_duel_is_byte_identical_across_runs() {
    // The duel exercises every nondeterminism-prone path at once — the
    // sniffer's learned state machine, per-epoch permutations, and both
    // observability exports — so byte-equality here is the strongest
    // cheap determinism check the adversarial family gets.
    let (trace_a, tele_a, _) = duel_once(7, 150);
    let (trace_b, tele_b, _) = duel_once(7, 150);
    assert!(trace_a.lines().count() > 100, "duel trace must record a non-trivial event stream");
    assert!(
        tele_a.lines().count() > 5,
        "duel telemetry must sample a non-trivial number of epochs"
    );
    assert_eq!(trace_a, trace_b, "duel trace JSONL diverged between identical runs");
    assert_eq!(tele_a, tele_b, "duel telemetry JSONL diverged between identical runs");
}

/// The adversarial runs' bytes across commits: FNV-1a-64 of the trace JSONL,
/// the telemetry JSONL (the `jam.*` counters and hit-rate gauges) and the
/// final `EngineStats` (the sniffers' summed counters) of the duel and of the
/// attack alone, each pinned on its own so a moved byte says where. The
/// sniffers observe every slot, and under randomization every node's receive
/// cells move each epoch, so these are the runs the engine's gap jumps and the
/// scheduler's per-epoch placement have to leave alone. Re-pin as above.
#[test]
fn pinned_adversarial_digests_hold_across_commits() {
    let pinned = [
        (
            "duel",
            duel_once(7, 150),
            [0x04c8_f6b2_3edb_7d87u64, 0x9317_0535_0ac8_07c3, 0xf0f8_5eb8_51ac_f285],
        ),
        (
            "attack",
            attack_once(7, 150),
            [0x83e0_0438_bbab_2171, 0x4201_752a_30fd_fc21, 0x6dfa_b9b0_3ccb_a689],
        ),
    ];
    let mut moved = Vec::new();
    for (name, (trace, tele, stats), want) in pinned {
        assert!(trace.contains("\"attack-phase\""), "{name}: the sniffers must change phase");
        assert!(tele.contains("jam."), "{name}: telemetry must carry the jam counters");
        for (part, text, want) in
            [("trace", &trace, want[0]), ("telemetry", &tele, want[1]), ("stats", &stats, want[2])]
        {
            let got = fnv1a64(&[text]);
            if got != want {
                moved.push(format!("{name} {part}: got {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "pinned digests moved: {moved:#?}");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against the determinism test passing vacuously because the
    // seed never reaches the simulation.
    let (metrics_a, _) = run_once(Protocol::Digs, 7, 90);
    let (metrics_c, _) = run_once(Protocol::Digs, 8, 90);
    assert_ne!(metrics_a, metrics_c, "distinct seeds should not collide byte-for-byte");
}
