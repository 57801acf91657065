//! Differential oracle for wake-driven stepping (ROADMAP 4a): the same
//! configuration is run twice, once as production runs it and once with
//! every stack wrapped in [`crate::stack::AskEverySlot`], so that the
//! engine asks every alive node in every slot the way it did before stacks
//! named their wake slots. Whatever the harness can observe must agree
//! after every chunk. Std only, deterministic, runs offline.

use super::*;
use crate::config::NetworkConfig;
use digs_sim::fault::{ChaosPlan, Fault, FaultPlan};
use digs_sim::ids::NodeId;
use digs_sim::interference::Jammer;
use digs_sim::topology::Topology;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Clean,
    /// Reboots, desyncs, node and link outages, jammer bursts, and two
    /// devices that die for good (their parents' child sweeps and their
    /// neighbours' evictions come due 192 s later, inside the run).
    Chaos,
    /// Schedule randomization on (DiGS).
    Randomized,
    /// An adaptive jammer beside each access point, learning from 60 s:
    /// the jumped slots are counted into its sniffer in bulk, and the slots
    /// its windows end in are stepped.
    Sniffed,
    /// `Sniffed` against `Randomized` (DiGS).
    Duel,
    /// A new central schedule installed mid-run (WirelessHART).
    Reprovisioned,
    /// All of Testbed A, on which three devices die for good: every
    /// neighbour's eviction and, where one had registered as a child, the
    /// sweep of its receive cell come due 192 s later, inside the run.
    Deaths,
}

/// Which `Network` entry point advances the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    Run,
    Audited,
    Resume,
}

const SEEDS: [u64; 3] = [1, 7, 23];
const RUN_SLOTS: u64 = 30_000;
/// Odd sizes, so chunk edges fall inside slotframes, Trickle intervals and
/// telemetry epochs; the rest of the run is the last chunk.
const CHUNKS: [u64; 5] = [1, 2_999, 7_777, 64, 9_000];
const DEAD_FROM_SECS: u64 = 45;

struct Quiet;

impl RunObserver for Quiet {}

fn config(protocol: Protocol, scenario: Scenario, traced: bool, seed: u64) -> NetworkConfig {
    let topology = match scenario {
        Scenario::Deaths => Topology::testbed_a(),
        _ => Topology::testbed_a_half(),
    };
    let mut builder = NetworkConfig::builder(topology.clone())
        .protocol(protocol)
        .seed(seed)
        .random_flows(3, 700, seed)
        .trace_cap(if traced { 400_000 } else { 0 })
        .telemetry_epoch(1_000)
        .telemetry_cap(4_096);
    match scenario {
        Scenario::Chaos => {
            // Two draws of the chaos profile over the rest of the run: twice
            // its rates.
            let mut faults = FaultPlan::none();
            for draw in [seed, !seed] {
                let plan = ChaosPlan::generate(Asn::from_secs(30), 270, &topology, draw);
                plan.faults.iter().for_each(|fault| faults.push(*fault));
                builder = plan.jammers.into_iter().fold(builder, |b, j| b.jammer(j));
            }
            for victim in topology.field_devices().into_iter().skip(2).step_by(9).take(2) {
                faults.push(Fault::outage(victim, Asn::from_secs(DEAD_FROM_SECS), None));
            }
            builder = builder.faults(faults);
        }
        Scenario::Deaths => {
            let dead_from = Asn::from_secs(DEAD_FROM_SECS);
            let victims = topology.field_devices().into_iter().skip(5).step_by(16);
            builder = builder.faults(victims.map(|v| Fault::outage(v, dead_from, None)).collect());
        }
        Scenario::Sniffed | Scenario::Duel => {
            let app_len = digs_scheduling::SlotframeLengths::paper().app;
            for (i, ap) in topology.access_points().into_iter().enumerate() {
                let at = topology.position(ap);
                let at = digs_sim::position::Position::new(at.x + 2.0, at.y + 2.0);
                let salt = 0x5_1ff ^ ((i as u64) << 8);
                builder = builder.jammer(Jammer::adaptive(at, app_len, Asn::from_secs(60), salt));
            }
        }
        Scenario::Randomized | Scenario::Clean | Scenario::Reprovisioned => {}
    }
    let randomized = matches!(scenario, Scenario::Randomized | Scenario::Duel);
    builder.randomize(if randomized { 0x5ec2e7 } else { 0 }).build()
}

/// A schedule for the same flows over a longer superframe, so every cell
/// moves.
fn new_schedule(network: &Network) -> digs_whart::CentralSchedule {
    let config = network.config();
    let db = digs_whart::LinkDb::from_link_model(network.engine().link_model());
    let graph = digs_whart::build_uplink_graph(&db, &config.topology.access_points());
    let sources: Vec<_> = config.flows.iter().map(|f| f.source).collect();
    digs_whart::CentralSchedule::build(&graph, &sources, 811).expect("the flows still fit")
}

/// Everything observable about `wake` equals `every`; `cursor` is the
/// trace sequence number compared so far.
fn assert_same(what: &str, wake: &Network, every: &Network, cursor: &mut u64) {
    let at = wake.asn();
    assert_eq!(at, every.asn(), "{what}: slot clocks");
    assert_eq!(wake.engine().stats(), every.engine().stats(), "{what} at {at}: engine stats");
    assert_eq!(
        wake.engine().energy_meters(),
        every.engine().energy_meters(),
        "{what} at {at}: energy meters"
    );
    assert_eq!(wake.engine().peek_rng(), every.engine().peek_rng(), "{what} at {at}: next draw");
    assert_eq!(wake.results(), every.results(), "{what} at {at}: results");
    assert_eq!(wake.violations(), every.violations(), "{what} at {at}: audit violations");
    let (ours, theirs) = (wake.trace().events_since(*cursor), every.trace().events_since(*cursor));
    assert_eq!(
        digs_trace::to_jsonl(&ours),
        digs_trace::to_jsonl(&theirs),
        "{what} at {at}: trace JSONL from seq {cursor}"
    );
    *cursor += ours.len() as u64;
    let telemetry = |n: &Network| crate::telemetry::to_jsonl(n.telemetry().expect("telemetry on"));
    assert_eq!(telemetry(wake), telemetry(every), "{what} at {at}: telemetry JSONL");
}

fn differential(protocol: Protocol, scenario: Scenario, traced: bool, drive: Drive, seed: u64) {
    let what = format!("{protocol:?}/{scenario:?}/traced={traced}/{drive:?}/seed {seed}");
    let mut wake = Network::new(config(protocol, scenario, traced, seed));
    let mut every = Network::new(config(protocol, scenario, traced, seed));
    every.ask_every_slot = true;
    if drive == Drive::Resume {
        wake.set_observer(Box::new(Quiet));
        every.set_observer(Box::new(Quiet));
    }
    let mut cursor = 0;
    let last = RUN_SLOTS - CHUNKS.iter().sum::<u64>();
    for (i, slots) in CHUNKS.into_iter().chain([last]).enumerate() {
        if scenario == Scenario::Reprovisioned && i == 3 {
            let schedule = new_schedule(&wake);
            wake.reprovision_wirelesshart(&schedule);
            every.reprovision_wirelesshart(&schedule);
        }
        for network in [&mut wake, &mut every] {
            match drive {
                Drive::Run => network.run(slots),
                Drive::Audited => network.run_audited(slots, 100),
                Drive::Resume => network.resume_to(network.asn().0 + slots),
            }
        }
        assert_same(&what, &wake, &every, &mut cursor);
    }
    assert_eq!(wake.asn(), Asn(RUN_SLOTS));
    if traced {
        exercised(&what, protocol, scenario, &wake);
    }
}

/// The runs are only a proof if the things the closed forms mirror really
/// happened in them.
fn exercised(what: &str, protocol: Protocol, scenario: Scenario, network: &Network) {
    let events = network.trace().events();
    let count = |name: &str| events.iter().filter(|e| e.kind.name() == name).count();
    assert!(count("generated") > 0 && count("delivered") > 0, "{what}: no traffic");
    if protocol != Protocol::WirelessHart {
        // Formation: unsynchronised scanning, first join, Trickle resets.
        assert!(count("parent-switch") > 0 && count("cell-alloc") > 0, "{what}: no formation");
    }
    if matches!(scenario, Scenario::Sniffed | Scenario::Duel) {
        // Learned, jammed and judged: the phase changes land in the trace.
        assert!(count("attack-phase") > 1, "{what}: the sniffers never changed phase");
        assert!(network.engine().stats().adaptive_jam_opportunities > 0, "{what}: never jammed");
    }
    if scenario == Scenario::Deaths {
        let dead_from = Asn::from_secs(DEAD_FROM_SECS);
        let dead = |id: NodeId| !network.config().faults.is_alive(id, dead_from);
        for (id, stack) in network.stacks().iter().enumerate() {
            let ProtocolStack::Orchestra(stack) = stack else { panic!("{what}: not Orchestra") };
            let known = stack.routing().neighbors().iter().filter(|(n, _)| dead(*n)).count();
            assert!(dead(NodeId(id as u16)) || known == 0, "{what}: node {id} evicted nobody");
        }
    }
    if matches!(scenario, Scenario::Chaos | Scenario::Deaths) {
        if scenario == Scenario::Chaos {
            assert!(count("node-reset") > 0 && count("clock-desync") > 0, "{what}: no chaos");
        }
        if protocol != Protocol::WirelessHart {
            let swept = events
                .iter()
                .any(|e| e.kind.name() == "cell-release" && e.asn > (DEAD_FROM_SECS + 192) * 100);
            assert!(swept, "{what}: no child was swept for silence");
        }
    }
}

/// Every (trace, drive) pair of one protocol and scenario, the three seeds
/// spread over them.
fn matrix(protocol: Protocol, scenarios: &[Scenario]) {
    for &scenario in scenarios {
        for traced in [false, true] {
            for (k, drive) in [Drive::Run, Drive::Audited, Drive::Resume].into_iter().enumerate() {
                let seed = SEEDS[(k + usize::from(traced)) % SEEDS.len()];
                differential(protocol, scenario, traced, drive, seed);
            }
        }
    }
}

#[test]
fn digs_wake_driven_matches_ask_every_slot() {
    matrix(Protocol::Digs, &[Scenario::Clean, Scenario::Chaos, Scenario::Randomized]);
}

#[test]
fn digs_under_a_sniffer_wake_driven_matches_ask_every_slot() {
    matrix(Protocol::Digs, &[Scenario::Sniffed, Scenario::Duel]);
}

#[test]
fn orchestra_wake_driven_matches_ask_every_slot() {
    matrix(Protocol::Orchestra, &[Scenario::Clean, Scenario::Chaos, Scenario::Sniffed]);
}

#[test]
fn orchestra_on_all_of_testbed_a_sweeps_children_and_evicts_neighbours() {
    differential(Protocol::Orchestra, Scenario::Deaths, true, Drive::Run, SEEDS[0]);
}

/// Formation, while most nodes scan, cut into single slots: the meters are
/// settled on return from every one of them.
#[test]
fn formation_cut_into_single_slots_matches_ask_every_slot() {
    for protocol in [Protocol::Digs, Protocol::Orchestra] {
        let what = format!("{protocol:?} forming slot by slot");
        let mut wake = Network::new(config(protocol, Scenario::Clean, true, SEEDS[1]));
        let mut every = Network::new(config(protocol, Scenario::Clean, true, SEEDS[1]));
        every.ask_every_slot = true;
        let mut cursor = 0;
        for slot in 1..=3_000 {
            wake.run(1);
            every.run(1);
            let meters = |n: &Network| n.engine().energy_meters().to_vec();
            assert_eq!(meters(&wake), meters(&every), "{what}: energy meters after {slot}");
            if slot % 250 == 0 {
                assert_same(&what, &wake, &every, &mut cursor);
            }
        }
        let scanning = wake.stacks().iter().filter(|s| s.telemetry().synced_at.is_none()).count();
        assert!(scanning > 0, "{what}: every node synchronised inside the cut");
        wake.run(7_000);
        every.run(7_000);
        assert_same(&what, &wake, &every, &mut cursor);
        assert!(wake.stacks().iter().all(ProtocolStack::is_joined), "{what}: not formed");
    }
}

/// The exactness above holds for a kernel that asks every node in every
/// slot, too: this holds the gain. On the idle configuration (Testbed A,
/// two slow flows, formed) the production run asks each stack in fewer than
/// one node-slot in 25 — the sync cells, the shared routing cell every 47
/// slots, and what little is due besides; its `AskEverySlot` twin asks in
/// every one, and before receive cells, scanning, empty transmit cells and
/// the two 64-slot polls left `next_wake` it was one in 11 under DiGS and
/// one in 4 under Orchestra.
#[test]
fn an_idle_network_is_asked_in_a_small_share_of_its_node_slots() {
    for protocol in [Protocol::Digs, Protocol::Orchestra] {
        let nodes = Topology::testbed_a().len() as u64;
        let asks_with = |trace_cap: usize| {
            let config = NetworkConfig::builder(Topology::testbed_a())
                .protocol(protocol)
                .seed(1)
                .random_flows(2, 3000, 1)
                .trace_cap(trace_cap)
                .telemetry_epoch(0);
            let mut network = Network::new(config.build());
            network.run(18_000);
            network.asks = Some(0);
            network.run(40_000);
            network.asks.expect("counted")
        };
        let asks = asks_with(0);
        let twin_asks = nodes * 40_000;
        assert!(asks * 25 < twin_asks, "{protocol:?}: {asks} asks in {twin_asks} node-slots");
        // The recorder holds what happened, not which slots passed: a traced
        // run is asked exactly as often.
        assert_eq!(asks_with(digs_trace::DEFAULT_CAPACITY), asks, "{protocol:?}: traced twin");
    }
}

#[test]
fn wirelesshart_wake_driven_matches_ask_every_slot() {
    matrix(Protocol::WirelessHart, &[Scenario::Clean, Scenario::Chaos, Scenario::Reprovisioned]);
}
