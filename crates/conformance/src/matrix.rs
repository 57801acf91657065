//! The scenario catalogue: every paper scenario the repo runs, and how to
//! run one seed of it.
//!
//! `CATALOGUE` is the only place a paper scenario is defined: the gate's
//! matrices and `digs-cli figures` both name their runs from it. A
//! [`ScenarioSpec`] owns a pre-built topology — the expensive immutable
//! setup is hoisted out of the per-seed loop, and each run receives a
//! cheap clone — plus the scenario's duration and metric context (where
//! its disturbance window and repair event sit). The two gated matrices
//! are ordered name lists over the catalogue: [`MatrixKind::Full`] covers
//! the paper's evaluation (Figs. 4/5, 9–13), the three-way comparison, the
//! chaos soak and the adversarial family; [`MatrixKind::Small`] is the CI
//! subset (Testbed A scenarios only). The ablations are catalogue entries
//! no golden gates.

use crate::metrics::{MetricContext, RunMetrics};
use digs::config::{NetworkConfig, Protocol};
use digs::flows::FlowSpec;
use digs::network::Network;
use digs::results::{RunResults, Secs};
use digs::scenarios;
use digs_sim::fault::{ChaosPlan, Fault};
use digs_sim::ids::NodeId;
use digs_sim::link::LinkModel;
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_sim::topology::Topology;

/// Quiet period (seconds) that ends a repair burst when deriving the
/// repair-time metric.
pub const REPAIR_SETTLE_SECS: u64 = 10;

/// Auditor sampling period for the audited scenarios: every 10 s.
pub const AUDIT_EVERY_SLOTS: u64 = 10 * SLOTS_PER_SECOND;

/// Chaos scenario phases: clean formation before the first fault, and a
/// chaos-free tail so the last fault has room to recover.
const CHAOS_WARMUP_SECS: u64 = 120;
const CHAOS_TAIL_SECS: u64 = 120;
/// The most fault events a chaos scenario's plan may hold. The plan is
/// generated whole before the run's first slot, so a length override that
/// asks for more (about 20 days of the moderate rates) is refused rather
/// than allocated.
const MAX_CHAOS_EVENTS: u64 = 100_000;

/// When the three-way comparison's shared relay fails / recovers.
const THREEWAY_FAIL_START_SECS: u64 = 120;
const THREEWAY_FAIL_END_SECS: u64 = 240;

/// Paper Fig. 5 medians for Orchestra's per-flow PDR during repair with
/// 1–4 jammers. The golden encodes `paper − 0.05` as an absolute floor
/// on the windowed-PDR median: the reproduction may beat the testbed,
/// but a regression that collapses delivery during repair to below the
/// paper's own numbers is a hard failure.
pub const FIG5_PAPER_MEDIANS: [f64; 4] = [0.90, 0.87, 0.845, 0.825];

/// Slack under the paper median allowed before the floor trips.
pub const FIG5_FLOOR_SLACK: f64 = 0.05;

/// When the adaptive jammer's learning window ends and selective jamming
/// begins, seconds into the run ([`digs_sim::interference::Jammer::adaptive`]
/// sniffs for 3 000 slots = 30 s after switching on). The adversarial
/// scenarios start their PDR window here so the metric measures the
/// schedule under active attack, not diluted by the silent learning phase.
pub const ADAPTIVE_ACTIVE_SECS: u64 = scenarios::JAM_START_SECS + 30;

/// Adversarial-gate attack bound: a working schedule-learning attack must
/// hold the victim windowed-PDR median at or below this ceiling. The clean
/// (and defended) baseline sits near 0.95+, so the ceiling asserts the
/// attack cuts at least ~30 % of delivery during the jamming window.
pub const ADAPTIVE_ATTACK_PDR_CEILING: f64 = 0.65;

/// Adversarial-gate defense bound: with schedule randomization on, the
/// windowed-PDR median must stay at or above this floor — within normal
/// interference tolerance of the clean baseline — both with the jammers
/// present (duel) and without them (overhead check).
pub const ADAPTIVE_DEFENSE_PDR_FLOOR: f64 = 0.85;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Fig. 9: Testbed A, 8 flows, 3 WiFi jammers.
    TestbedAInterference,
    /// Fig. 10: Testbed B, 6 flows, 3 jammers over two floors.
    TestbedBInterference,
    /// Figs. 4+5: Testbed A with `jammers` jammers (Orchestra sweep).
    JammerSweep { jammers: usize },
    /// Fig. 11: Testbed A, four central relays fail in turn.
    NodeFailure,
    /// Fig. 12: 150 nodes + 2 APs, 20 flows, five disturbers.
    LargeScale,
    /// Fig. 13: cold-start join times, no flows.
    Initialization,
    /// Three-way comparison, undisturbed.
    ThreewayClean,
    /// Three-way comparison with a shared relay outage 120–240 s.
    ThreewayFail,
    /// Randomized chaos soak with the runtime invariant auditor on.
    Chaos,
    /// Adversarial attack: adaptive schedule-learning jammers parked at
    /// the access points, no defense.
    AdaptiveJam,
    /// Defense-overhead leg: the attack's network with its jammers
    /// cleared and schedule randomization on, runtime auditor on (the
    /// permutation must not break Eq. 4).
    Randomized,
    /// Attack-vs-defense duel: the attack's network with schedule
    /// randomization on — the sniffers' learned cell rankings go stale
    /// every application-slotframe epoch — runtime auditor on.
    AdaptiveDuel,
    /// Ablation: Fig. 9 without the backup parent
    /// (`use_second_parent = false`) — single-path routing on the Eq. 4
    /// schedule.
    SinglePath,
    /// Ablation: Fig. 9 with the plain accumulated ETX in place of
    /// Eq. 1–3's weighting (`use_weighted_etx = false`).
    PlainEtx,
    /// Ablation: Fig. 9 without jammers, the application slotframe `app`
    /// slots long.
    AppSlotframe { app: u32 },
}

impl Kind {
    /// Run length when nothing overrides it.
    fn default_secs(self) -> u64 {
        match self {
            Kind::Initialization => 120,
            Kind::AppSlotframe { .. } => 300,
            Kind::ThreewayClean | Kind::ThreewayFail => 360,
            Kind::Chaos => 600,
            _ => 420,
        }
    }

    /// Shortest run that still fits the scenario's warm-up and events.
    fn min_secs(self) -> u64 {
        match self {
            Kind::Initialization => 60,
            Kind::ThreewayClean => 120,
            Kind::ThreewayFail => THREEWAY_FAIL_END_SECS + 60,
            Kind::Chaos => CHAOS_WARMUP_SECS + CHAOS_TAIL_SECS + 60,
            // Adversarial legs need the learning window plus a solid
            // stretch of active jamming inside the PDR window.
            Kind::AdaptiveJam | Kind::AdaptiveDuel | Kind::Randomized => ADAPTIVE_ACTIVE_SECS + 120,
            _ => scenarios::JAM_START_SECS + 60,
        }
    }

    /// Index into [`TESTBEDS`].
    fn testbed(self) -> usize {
        match self {
            Kind::TestbedBInterference => 1,
            Kind::LargeScale => 2,
            _ => 0,
        }
    }

    /// Where the scenario's disturbance window and repair event sit.
    fn context(self) -> MetricContext {
        let from = |event_secs: u64, window_secs: u64| MetricContext {
            repair_event_secs: Some(event_secs),
            repair_settle_secs: REPAIR_SETTLE_SECS,
            window_start_slot: Some(window_secs * SLOTS_PER_SECOND),
        };
        let jam = scenarios::JAM_START_SECS;
        match self {
            Kind::TestbedAInterference
            | Kind::TestbedBInterference
            | Kind::JammerSweep { .. }
            | Kind::SinglePath
            | Kind::PlainEtx => from(jam, jam),
            Kind::NodeFailure => from(scenarios::FAILURE_START_SECS, scenarios::FAILURE_START_SECS),
            Kind::ThreewayFail => from(THREEWAY_FAIL_START_SECS, THREEWAY_FAIL_START_SECS),
            // Adversarial legs measure PDR only while the sniffer actively
            // jams (its learning phase is silent).
            Kind::AdaptiveJam | Kind::AdaptiveDuel => from(jam, ADAPTIVE_ACTIVE_SECS),
            Kind::Randomized => MetricContext {
                repair_event_secs: None,
                repair_settle_secs: 0,
                window_start_slot: Some(ADAPTIVE_ACTIVE_SECS * SLOTS_PER_SECOND),
            },
            _ => MetricContext::default(),
        }
    }
}

/// The three topologies, built only when a listed scenario needs one.
const TESTBEDS: [fn() -> Topology; 3] =
    [Topology::testbed_a, Topology::testbed_b, || Topology::cooja_150(7)];

/// Every scenario: its name (stable across releases — golden files index
/// on it), the protocol under test, and what it runs.
const CATALOGUE: &[(&str, Protocol, Kind)] = &[
    ("fig04-05-jam1", Protocol::Orchestra, Kind::JammerSweep { jammers: 1 }),
    ("fig04-05-jam2", Protocol::Orchestra, Kind::JammerSweep { jammers: 2 }),
    ("fig04-05-jam3", Protocol::Orchestra, Kind::JammerSweep { jammers: 3 }),
    ("fig04-05-jam4", Protocol::Orchestra, Kind::JammerSweep { jammers: 4 }),
    ("fig09-digs", Protocol::Digs, Kind::TestbedAInterference),
    ("fig09-orchestra", Protocol::Orchestra, Kind::TestbedAInterference),
    ("fig10-digs", Protocol::Digs, Kind::TestbedBInterference),
    ("fig10-orchestra", Protocol::Orchestra, Kind::TestbedBInterference),
    ("fig11-digs", Protocol::Digs, Kind::NodeFailure),
    ("fig11-orchestra", Protocol::Orchestra, Kind::NodeFailure),
    ("fig12-digs", Protocol::Digs, Kind::LargeScale),
    ("fig12-orchestra", Protocol::Orchestra, Kind::LargeScale),
    ("fig13-digs", Protocol::Digs, Kind::Initialization),
    ("fig13-orchestra", Protocol::Orchestra, Kind::Initialization),
    ("threeway-clean-digs", Protocol::Digs, Kind::ThreewayClean),
    ("threeway-clean-orchestra", Protocol::Orchestra, Kind::ThreewayClean),
    ("threeway-clean-wirelesshart", Protocol::WirelessHart, Kind::ThreewayClean),
    ("threeway-fail-digs", Protocol::Digs, Kind::ThreewayFail),
    ("threeway-fail-orchestra", Protocol::Orchestra, Kind::ThreewayFail),
    ("threeway-fail-wirelesshart", Protocol::WirelessHart, Kind::ThreewayFail),
    ("chaos-digs", Protocol::Digs, Kind::Chaos),
    ("chaos-orchestra", Protocol::Orchestra, Kind::Chaos),
    ("chaos-wirelesshart", Protocol::WirelessHart, Kind::Chaos),
    ("adv-attack-digs", Protocol::Digs, Kind::AdaptiveJam),
    ("adv-attack-orchestra", Protocol::Orchestra, Kind::AdaptiveJam),
    ("adv-defense-digs", Protocol::Digs, Kind::Randomized),
    ("adv-duel-digs", Protocol::Digs, Kind::AdaptiveDuel),
    ("ablation-single-path", Protocol::Digs, Kind::SinglePath),
    ("ablation-plain-etx", Protocol::Digs, Kind::PlainEtx),
    ("ablation-app53", Protocol::Digs, Kind::AppSlotframe { app: 53 }),
    ("ablation-app101", Protocol::Digs, Kind::AppSlotframe { app: 101 }),
    ("ablation-app151", Protocol::Digs, Kind::AppSlotframe { app: 151 }),
    ("ablation-app307", Protocol::Digs, Kind::AppSlotframe { app: 307 }),
];

/// The full matrix, in `goldens/full.json`'s order (record order feeds
/// the gate's output, so it is part of the contract).
const FULL: &[&str] = &[
    "fig09-digs",
    "fig10-digs",
    "fig11-digs",
    "fig12-digs",
    "fig13-digs",
    "fig09-orchestra",
    "fig10-orchestra",
    "fig11-orchestra",
    "fig12-orchestra",
    "fig13-orchestra",
    "fig04-05-jam1",
    "fig04-05-jam2",
    "fig04-05-jam3",
    "fig04-05-jam4",
    "threeway-clean-digs",
    "threeway-fail-digs",
    "chaos-digs",
    "threeway-clean-orchestra",
    "threeway-fail-orchestra",
    "chaos-orchestra",
    "threeway-clean-wirelesshart",
    "threeway-fail-wirelesshart",
    "chaos-wirelesshart",
    "adv-attack-digs",
    "adv-attack-orchestra",
    "adv-defense-digs",
    "adv-duel-digs",
];

/// The CI subset — every Testbed A scenario family once, cheap enough for
/// every CI run — in `goldens/small.json`'s order.
const SMALL: &[&str] = &[
    "fig09-digs",
    "fig11-digs",
    "fig09-orchestra",
    "fig11-orchestra",
    "fig13-digs",
    "fig04-05-jam1",
    "fig04-05-jam4",
    "threeway-clean-digs",
    "threeway-fail-digs",
    "chaos-digs",
    "adv-attack-digs",
    "adv-defense-digs",
    "adv-duel-digs",
];

/// Every catalogue name, in catalogue order.
pub fn catalogue_names() -> impl Iterator<Item = &'static str> {
    CATALOGUE.iter().map(|(name, _, _)| *name)
}

/// Builds the named scenarios, in the order given, each topology once.
/// `secs_override` shortens or lengthens every scenario (clamped to each
/// scenario's minimum).
///
/// # Errors
///
/// Names `secs` when the override's slots do not fit the slot counter, or
/// when it would give a chaos scenario more than 100 000 faults; else the
/// first scenario the catalogue lacks.
pub fn scenarios(names: &[&str], secs_override: Option<u64>) -> Result<Vec<ScenarioSpec>, String> {
    if let Some(secs) = secs_override {
        Secs::slots("secs", secs)?;
    }
    let mut topologies: [Option<Topology>; 3] = Default::default();
    names
        .iter()
        .map(|name| {
            let &(name, protocol, kind) = CATALOGUE
                .iter()
                .find(|entry| entry.0 == *name)
                .ok_or_else(|| format!("unknown scenario `{name}`"))?;
            let topology = topologies[kind.testbed()].get_or_insert_with(TESTBEDS[kind.testbed()]);
            let spec = ScenarioSpec::new(name, protocol, kind, topology, secs_override);
            match spec.chaos_window().map(|(_, secs)| ChaosPlan::max_events(secs)) {
                Some(events) if events > MAX_CHAOS_EVENTS => Err(format!(
                    "`secs`: {} s of `{name}` would schedule {events} chaos faults, \
                     more than {MAX_CHAOS_EVENTS}",
                    spec.secs
                )),
                _ => Ok(spec),
            }
        })
        .collect()
}

/// One scenario of the catalogue.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Catalogue key (stable across releases — golden files index on it).
    pub name: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Simulated seconds per run.
    pub secs: u64,
    /// Absolute floor for the `windowed_pdr_median` golden check, when
    /// the paper states one (Fig. 5) or the adversarial gate requires the
    /// defense to hold delivery up.
    pub windowed_pdr_floor: Option<f64>,
    /// Absolute ceiling for the `windowed_pdr_median` golden check: the
    /// adversarial attack legs must keep the victim PDR at or below it,
    /// or the attack has regressed into ineffectiveness.
    pub windowed_pdr_ceiling: Option<f64>,
    kind: Kind,
    topology: Topology,
}

impl ScenarioSpec {
    fn new(
        name: &str,
        protocol: Protocol,
        kind: Kind,
        topology: &Topology,
        secs_override: Option<u64>,
    ) -> Self {
        let (windowed_pdr_floor, windowed_pdr_ceiling) = match kind {
            Kind::JammerSweep { jammers } => {
                (Some(FIG5_PAPER_MEDIANS[jammers - 1] - FIG5_FLOOR_SLACK), None)
            }
            Kind::AdaptiveJam => (None, Some(ADAPTIVE_ATTACK_PDR_CEILING)),
            Kind::Randomized | Kind::AdaptiveDuel => (Some(ADAPTIVE_DEFENSE_PDR_FLOOR), None),
            _ => (None, None),
        };
        ScenarioSpec {
            name: name.to_string(),
            protocol,
            secs: secs_override.unwrap_or(kind.default_secs()).max(kind.min_secs()),
            windowed_pdr_floor,
            windowed_pdr_ceiling,
            kind,
            topology: topology.clone(),
        }
    }

    /// The seeded chaos plan of a chaos scenario: which faults and jammer
    /// bursts its run injects, and when (`None` for any other scenario).
    pub fn chaos_plan(&self, seed: u64) -> Option<ChaosPlan> {
        let (start, secs) = self.chaos_window()?;
        Some(ChaosPlan::generate(start, secs, &self.topology, seed))
    }

    /// The first slot and the length in seconds of a chaos scenario's
    /// chaos window.
    fn chaos_window(&self) -> Option<(Asn, u64)> {
        (self.kind == Kind::Chaos).then(|| {
            let secs = self.secs - CHAOS_WARMUP_SECS - CHAOS_TAIL_SECS;
            (Asn::from_secs(CHAOS_WARMUP_SECS), secs)
        })
    }

    /// The network one seed of the scenario runs: everything the run
    /// does — flows, jammers, failures, chaos — is declared in it, so a
    /// run of the config for [`ScenarioSpec::secs`] is the scenario.
    pub fn config(&self, seed: u64) -> NetworkConfig {
        let topology = self.topology.clone();
        let protocol = self.protocol;
        let mut config = match self.kind {
            Kind::TestbedAInterference
            | Kind::SinglePath
            | Kind::PlainEtx
            | Kind::AppSlotframe { .. } => {
                scenarios::testbed_a_interference(topology, protocol, seed)
            }
            Kind::TestbedBInterference => {
                scenarios::testbed_b_interference(topology, protocol, seed)
            }
            Kind::JammerSweep { jammers } => {
                scenarios::testbed_a_jammer_sweep(topology, protocol, jammers, seed)
            }
            Kind::NodeFailure => scenarios::testbed_a_node_failure(topology, protocol, seed),
            Kind::LargeScale => scenarios::large_scale_on(topology, protocol, seed),
            Kind::Initialization => scenarios::initialization(topology, protocol, seed),
            Kind::ThreewayClean | Kind::ThreewayFail | Kind::Chaos => {
                scenarios::far_flows(topology, protocol, seed)
            }
            Kind::AdaptiveJam | Kind::Randomized | Kind::AdaptiveDuel => {
                scenarios::testbed_a_adaptive_jam(topology, protocol, seed)
            }
        };
        match self.kind {
            Kind::SinglePath => config.routing.use_second_parent = false,
            Kind::PlainEtx => config.routing.use_weighted_etx = false,
            Kind::AppSlotframe { app } => {
                config.jammers.clear();
                config.slotframes.app = app;
            }
            Kind::ThreewayFail => {
                if let Some(victim) = shared_relay_victim(&config) {
                    config.faults.push(Fault::outage(
                        victim,
                        Asn::from_secs(THREEWAY_FAIL_START_SECS),
                        Some(Asn::from_secs(THREEWAY_FAIL_END_SECS)),
                    ));
                }
            }
            Kind::Chaos => {
                let plan = self.chaos_plan(seed).expect("a chaos scenario");
                config.faults = plan.faults;
                config.jammers.extend(plan.jammers);
            }
            // The defense alone: what randomization costs with nobody
            // jamming (a bijection per epoch should cost nothing).
            Kind::Randomized => {
                config.jammers.clear();
                config.sched_randomize = Some(scenarios::DEFENSE_SECRET);
            }
            // The duel: the same sniffers against a randomized schedule.
            Kind::AdaptiveDuel => config.sched_randomize = Some(scenarios::DEFENSE_SECRET),
            _ => {}
        }
        config
    }

    /// How often the scenario's runs are audited, in slots (`None` for an
    /// unaudited scenario). The chaos soak and the defense legs run
    /// audited: the golden pins their `audit_violations.max` to zero — for
    /// the defense, proof that the per-epoch permutation never breaks
    /// Eq. 4 conflict-freedom.
    pub fn audit_every(&self) -> Option<u64> {
        matches!(self.kind, Kind::Chaos | Kind::Randomized | Kind::AdaptiveDuel)
            .then_some(AUDIT_EVERY_SLOTS)
    }

    /// Runs one seed of the scenario: the results and the flows they
    /// measure. Deterministic: same spec + seed → same results.
    pub fn results(&self, seed: u64) -> (RunResults, Vec<FlowSpec>) {
        let config = self.config(seed);
        let flows = config.flows.clone();
        let mut network = Network::new(config);
        let slots = self.secs * SLOTS_PER_SECOND;
        match self.audit_every() {
            Some(every) => network.run_audited(slots, every),
            None => network.run(slots),
        }
        (network.results(), flows)
    }

    /// One seed's results reduced to the scenario's canonical record.
    pub fn record(&self, seed: u64, results: &RunResults, flows: &[FlowSpec]) -> RunMetrics {
        let context = self.kind.context();
        let protocol = self.protocol.name();
        RunMetrics::from_results(&self.name, protocol, seed, self.secs, results, flows, context)
    }

    /// Runs one seed of the scenario and reduces it to its canonical
    /// record. Deterministic: same spec + seed → same record.
    pub fn run(&self, seed: u64) -> RunMetrics {
        let (results, flows) = self.results(seed);
        self.record(seed, &results, &flows)
    }
}

/// Picks a relay on the centralized schedule's uplink paths: the first
/// flow source's best parent that is neither an access point nor itself a
/// source. Derived from the link *model*, so it is known before the run and
/// all three protocol stacks fail at the same node — the shared victim of
/// the three-way comparison. `None` when every flow is single-hop.
fn shared_relay_victim(config: &NetworkConfig) -> Option<NodeId> {
    let model = LinkModel::new(&config.topology, config.rf.clone(), config.seed);
    let db = digs_whart::LinkDb::from_link_model(&model);
    let graph = digs_whart::build_uplink_graph(&db, &config.topology.access_points());
    let sources: Vec<NodeId> = config.flows.iter().map(|f| f.source).collect();
    sources.iter().find_map(|s| {
        graph
            .entry(*s)
            .and_then(|e| e.best)
            .filter(|p| !config.topology.is_access_point(*p) && !sources.contains(p))
    })
}

digs_json::named! {
    /// Which gated matrix to run. Its name is the golden file's stem.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MatrixKind: "matrix" {
        /// CI subset: Testbed A scenarios only.
        Small = "small",
        /// The whole evaluation.
        Full = "full",
    }
}

impl MatrixKind {
    /// The catalogue names the matrix runs, in its golden's order.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            MatrixKind::Small => SMALL,
            MatrixKind::Full => FULL,
        }
    }

    /// Builds the tier's scenario list. `secs_override` shortens or
    /// lengthens every scenario (clamped to each scenario's minimum).
    ///
    /// # Panics
    ///
    /// When [`scenarios()`] refuses the override (its slots do not fit the
    /// slot counter, or a chaos plan would exceed its ceiling).
    pub fn scenarios(self, secs_override: Option<u64>) -> Vec<ScenarioSpec> {
        scenarios(self.names(), secs_override).expect("a countable run in the catalogue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::Golden;

    #[test]
    fn matrix_names_are_unique() {
        for names in [catalogue_names().collect(), SMALL.to_vec(), FULL.to_vec()] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "{names:?} repeats a name");
        }
    }

    /// Each matrix runs exactly its golden's scenarios, at the golden's
    /// lengths and in the golden's order.
    #[test]
    fn the_matrices_equal_the_goldens() {
        for (kind, text) in [
            (MatrixKind::Small, include_str!("../../../goldens/small.json")),
            (MatrixKind::Full, include_str!("../../../goldens/full.json")),
        ] {
            let golden = Golden::parse(text).expect("the golden parses");
            let blessed: Vec<(&str, u64)> =
                golden.scenarios.iter().map(|s| (s.name.as_str(), s.secs)).collect();
            let specs = kind.scenarios(None);
            let built: Vec<(&str, u64)> = specs.iter().map(|s| (s.name.as_str(), s.secs)).collect();
            assert_eq!(built, blessed, "the {} matrix vs its golden", kind.as_str());
        }
    }

    #[test]
    fn small_is_a_subset_of_full() {
        for name in SMALL {
            assert!(FULL.contains(name), "{name} missing from the full matrix");
        }
    }

    #[test]
    fn the_small_matrix_builds_testbed_a_only() {
        assert!(MatrixKind::Small.scenarios(None).iter().all(|s| s.kind.testbed() == 0));
    }

    #[test]
    fn an_unknown_name_is_refused_by_name() {
        let err = scenarios(&["fig09-digs", "fig07-digs"], None).expect_err("unknown");
        assert_eq!(err, "unknown scenario `fig07-digs`");
    }

    #[test]
    fn an_override_whose_slots_overflow_is_refused_naming_secs() {
        // `secs × 100` used to wrap in `ScenarioSpec::results`: the tables
        // were headed with the asked length and filled from 84-slot runs.
        let edge = u64::MAX / SLOTS_PER_SECOND;
        for secs in [edge + 1, 184_467_440_737_095_517, u64::MAX] {
            let err = scenarios(&["fig09-digs"], Some(secs)).expect_err("overflows");
            assert!(err.starts_with("`secs`"), "{err}");
        }
        assert_eq!(scenarios(&["fig09-digs"], Some(edge)).expect("fits")[0].secs, edge);
    }

    #[test]
    fn a_chaos_override_past_the_event_ceiling_is_refused_naming_secs() {
        // The plan is drawn whole before the first slot: 10^15 s of chaos
        // asked for some 6·10^13 events, a length whose slots fit a `u64`.
        let chaos = |secs| scenarios(&["fig09-digs", "chaos-digs"], Some(secs));
        let err = chaos(1_000_000_000_000_000).expect_err("too many faults");
        assert!(err.starts_with("`secs`") && err.contains("`chaos-digs`"), "{err}");
        // 10^6 s plans at most some 58 000 faults, 2·10^6 s twice that.
        assert!(chaos(1_000_000).is_ok() && chaos(2_000_000).is_err());
        // The bound holds the plans drawn.
        let spec = scenarios(&["chaos-digs"], None).expect("in the catalogue").remove(0);
        let max = ChaosPlan::max_events(spec.chaos_window().expect("chaos").1);
        for seed in 1..=20 {
            let plan = spec.chaos_plan(seed).expect("chaos");
            assert!((plan.faults.iter().count() + plan.jammers.len()) as u64 <= max, "seed {seed}");
        }
        // Other scenarios take the same length.
        let secs = 1_000_000_000_000_000;
        assert_eq!(scenarios(&["fig09-digs"], Some(secs)).expect("no chaos")[0].secs, secs);
    }

    #[test]
    fn secs_override_respects_scenario_minimums() {
        let names: Vec<&str> = catalogue_names().collect();
        for spec in scenarios(&names, Some(10)).expect("the catalogue builds") {
            assert!(spec.secs >= spec.kind.min_secs(), "{} shrunk below its minimum", spec.name);
        }
    }

    #[test]
    fn jammer_sweep_carries_paper_floor() {
        let specs = MatrixKind::Full.scenarios(None);
        let jam1 = specs.iter().find(|s| s.name == "fig04-05-jam1").expect("present");
        assert_eq!(jam1.windowed_pdr_floor, Some(FIG5_PAPER_MEDIANS[0] - FIG5_FLOOR_SLACK));
    }

    #[test]
    fn adversarial_specs_carry_their_bounds() {
        for kind in [MatrixKind::Small, MatrixKind::Full] {
            let specs = kind.scenarios(None);
            let attack = specs.iter().find(|s| s.name == "adv-attack-digs").expect("present");
            assert_eq!(attack.windowed_pdr_ceiling, Some(ADAPTIVE_ATTACK_PDR_CEILING));
            assert_eq!(attack.windowed_pdr_floor, None);
            for name in ["adv-defense-digs", "adv-duel-digs"] {
                let spec = specs.iter().find(|s| s.name == name).expect("present");
                assert_eq!(spec.windowed_pdr_floor, Some(ADAPTIVE_DEFENSE_PDR_FLOOR));
                assert_eq!(spec.windowed_pdr_ceiling, None);
            }
        }
        let full = MatrixKind::Full.scenarios(None);
        assert!(full.iter().any(|s| s.name == "adv-attack-orchestra"));
    }

    /// The defense legs are the attack's network with the defense switched
    /// on: same seed and flows, the attack's jammers or none.
    #[test]
    fn the_adversarial_family_differs_only_by_jammers_and_defense() {
        let names = ["adv-attack-digs", "adv-defense-digs", "adv-duel-digs"];
        let specs = scenarios(&names, None).expect("in the catalogue");
        let [attack, defense, duel] = [0, 1, 2].map(|i| specs[i].config(1));
        assert_eq!(attack.seed, defense.seed);
        assert_eq!(attack.seed, duel.seed);
        assert_eq!(attack.flows, defense.flows);
        assert_eq!(attack.flows, duel.flows);
        assert_eq!(attack.jammers.len(), 2);
        assert!(defense.jammers.is_empty());
        assert_eq!(format!("{:?}", attack.jammers), format!("{:?}", duel.jammers));
        assert_eq!(attack.resolve_randomize(), None);
        assert_eq!(defense.resolve_randomize(), Some(scenarios::DEFENSE_SECRET));
        assert_eq!(duel.resolve_randomize(), Some(scenarios::DEFENSE_SECRET));
    }

    #[test]
    fn one_cheap_scenario_runs_deterministically() {
        let testbed = Topology::testbed_a_half();
        let spec = ScenarioSpec::new("t", Protocol::Digs, Kind::Initialization, &testbed, Some(60));
        let a = spec.run(1);
        let b = spec.run(1);
        assert_eq!(a.to_line(), b.to_line());
        assert_eq!(a.scenario, "t");
        assert!(a.fraction_joined > 0.0);
    }
}
