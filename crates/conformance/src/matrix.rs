//! The conformance matrix: every gated scenario and how to run one seed
//! of it.
//!
//! A [`ScenarioSpec`] owns a pre-built topology — the expensive immutable
//! setup is hoisted out of the per-seed loop, and each run receives a
//! cheap clone — plus the scenario's duration and metric context (where
//! its disturbance window and repair event sit). [`full_matrix`] covers
//! the paper's evaluation (Figs. 4/5, 9–13), the three-way comparison,
//! and the chaos soak; [`small_matrix`] is the CI subset (Testbed A
//! scenarios only).

use crate::metrics::{MetricContext, RunMetrics};
use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::scenarios;
use digs_sim::fault::{ChaosConfig, ChaosPlan, FaultPlan, Outage};
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_sim::topology::Topology;

/// Quiet period (seconds) that ends a repair burst when deriving the
/// repair-time metric.
pub const REPAIR_SETTLE_SECS: u64 = 10;

/// Auditor sampling period for the chaos scenarios: every 10 s.
const AUDIT_EVERY_SLOTS: u64 = 10 * SLOTS_PER_SECOND;

/// Chaos scenario phases (mirrors the `chaos_soak` binary).
const CHAOS_WARMUP_SECS: u64 = 120;
const CHAOS_TAIL_SECS: u64 = 120;

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
    /// Defense-overhead leg: schedule randomization on, no jammers,
    /// runtime auditor on (the permutation must not break Eq. 4).
    Randomized,
    /// Attack-vs-defense duel: adaptive jammers against a randomized
    /// schedule, runtime auditor on.
    AdaptiveDuel,
}

impl Kind {
    /// Shortest run that still fits the scenario's warm-up and events.
    fn min_secs(self) -> u64 {
        match self {
            Kind::Initialization => 60,
            Kind::TestbedAInterference
            | Kind::TestbedBInterference
            | Kind::JammerSweep { .. }
            | Kind::NodeFailure
            | Kind::LargeScale => scenarios::JAM_START_SECS + 60,
            Kind::ThreewayClean => 120,
            Kind::ThreewayFail => THREEWAY_FAIL_END_SECS + 60,
            Kind::Chaos => CHAOS_WARMUP_SECS + CHAOS_TAIL_SECS + 60,
            // Adversarial legs need the learning window plus a solid
            // stretch of active jamming inside the PDR window.
            Kind::AdaptiveJam | Kind::AdaptiveDuel => ADAPTIVE_ACTIVE_SECS + 120,
            Kind::Randomized => ADAPTIVE_ACTIVE_SECS + 120,
        }
    }
}

/// One scenario of the conformance matrix.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Matrix key (stable across releases — golden files index on it).
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
    fn new(name: &str, protocol: Protocol, secs: u64, kind: Kind, topology: &Topology) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            protocol,
            secs: secs.max(kind.min_secs()),
            windowed_pdr_floor: None,
            windowed_pdr_ceiling: None,
            kind,
            topology: topology.clone(),
        }
    }

    /// Runs one seed of the scenario and reduces it to its canonical
    /// record. Deterministic: same spec + seed → same record.
    pub fn run(&self, seed: u64) -> RunMetrics {
        let topology = self.topology.clone();
        let secs = self.secs;
        let jam_ctx = MetricContext {
            repair_event_secs: Some(scenarios::JAM_START_SECS),
            repair_settle_secs: REPAIR_SETTLE_SECS,
            window_start_slot: Some(scenarios::JAM_START_SECS * SLOTS_PER_SECOND),
        };
        // Adversarial legs measure PDR only while the sniffer actively
        // jams (its learning phase is silent).
        let adaptive_ctx = MetricContext {
            repair_event_secs: Some(scenarios::JAM_START_SECS),
            repair_settle_secs: REPAIR_SETTLE_SECS,
            window_start_slot: Some(ADAPTIVE_ACTIVE_SECS * SLOTS_PER_SECOND),
        };
        let (config, ctx) = match self.kind {
            Kind::TestbedAInterference => {
                (scenarios::testbed_a_interference_on(topology, self.protocol, seed), jam_ctx)
            }
            Kind::TestbedBInterference => {
                (scenarios::testbed_b_interference_on(topology, self.protocol, seed), jam_ctx)
            }
            Kind::JammerSweep { jammers } => (
                scenarios::testbed_a_jammer_sweep_on(topology, self.protocol, jammers, seed),
                jam_ctx,
            ),
            Kind::NodeFailure => (
                scenarios::testbed_a_node_failure_on(topology, self.protocol, seed),
                MetricContext {
                    repair_event_secs: Some(scenarios::FAILURE_START_SECS),
                    repair_settle_secs: REPAIR_SETTLE_SECS,
                    window_start_slot: Some(scenarios::FAILURE_START_SECS * SLOTS_PER_SECOND),
                },
            ),
            Kind::LargeScale => {
                (scenarios::large_scale_on(topology, self.protocol, seed), MetricContext::default())
            }
            Kind::Initialization => (
                scenarios::initialization_on(topology, self.protocol, seed),
                MetricContext::default(),
            ),
            Kind::ThreewayClean => {
                (threeway_config(topology, self.protocol, seed), MetricContext::default())
            }
            Kind::ThreewayFail => (
                threeway_config(topology, self.protocol, seed),
                MetricContext {
                    repair_event_secs: Some(THREEWAY_FAIL_START_SECS),
                    repair_settle_secs: REPAIR_SETTLE_SECS,
                    window_start_slot: Some(THREEWAY_FAIL_START_SECS * SLOTS_PER_SECOND),
                },
            ),
            Kind::Chaos => {
                return self.run_chaos(seed);
            }
            Kind::AdaptiveJam => {
                (scenarios::testbed_a_adaptive_jam_on(topology, self.protocol, seed), adaptive_ctx)
            }
            Kind::Randomized => (
                scenarios::testbed_a_randomized_on(topology, self.protocol, seed),
                MetricContext {
                    repair_event_secs: None,
                    repair_settle_secs: 0,
                    window_start_slot: Some(ADAPTIVE_ACTIVE_SECS * SLOTS_PER_SECOND),
                },
            ),
            Kind::AdaptiveDuel => {
                (scenarios::testbed_a_adaptive_duel_on(topology, self.protocol, seed), adaptive_ctx)
            }
        };
        let specs = config.flows.clone();
        let results = match self.kind {
            Kind::ThreewayFail => {
                let mut network = Network::new(config.clone());
                network.run_secs(THREEWAY_FAIL_START_SECS);
                if let Some(victim) = digs::experiment::shared_relay_victim(&config) {
                    network.set_fault_plan(FaultPlan::none().with(Outage::transient(
                        victim,
                        Asn::from_secs(THREEWAY_FAIL_START_SECS),
                        Asn::from_secs(THREEWAY_FAIL_END_SECS),
                    )));
                }
                network.run_secs(secs - THREEWAY_FAIL_START_SECS);
                network.results()
            }
            // The defense legs run audited: the golden pins their
            // `audit_violations.max` to zero, proving the per-epoch
            // permutation never breaks Eq. 4 conflict-freedom.
            Kind::Randomized | Kind::AdaptiveDuel => {
                let mut network = Network::new(config);
                network.run_audited(secs * SLOTS_PER_SECOND, AUDIT_EVERY_SLOTS);
                network.results()
            }
            _ => digs::experiment::run_for(config, secs),
        };
        RunMetrics::from_results(
            &self.name,
            self.protocol.name(),
            seed,
            secs,
            &results,
            &specs,
            ctx,
        )
    }

    /// The chaos soak leg: seeded [`ChaosPlan`] faults + jammer bursts
    /// with the runtime invariant auditor sampling every 10 s. The
    /// record's `audit_violations` count is the robustness metric the
    /// golden pins to zero for DiGS.
    fn run_chaos(&self, seed: u64) -> RunMetrics {
        let secs = self.secs;
        let chaos_secs = secs - CHAOS_WARMUP_SECS - CHAOS_TAIL_SECS;
        let chaos_config = ChaosConfig::moderate(Asn::from_secs(CHAOS_WARMUP_SECS), chaos_secs);
        let plan = ChaosPlan::generate(&chaos_config, &self.topology, seed);
        let mut flows = scenarios::far_flow_set(&self.topology, 6, 500, seed);
        for f in &mut flows {
            f.phase += 60 * SLOTS_PER_SECOND;
        }
        let mut builder = NetworkConfig::builder(self.topology.clone())
            .protocol(self.protocol)
            .seed(seed)
            .flows(flows)
            .faults(plan.faults().clone());
        for jammer in plan.jammers() {
            builder = builder.jammer(jammer.clone());
        }
        let config = builder.build();
        let specs = config.flows.clone();
        let mut network = Network::new(config);
        network.run_audited(secs * SLOTS_PER_SECOND, AUDIT_EVERY_SLOTS);
        let results = network.results();
        RunMetrics::from_results(
            &self.name,
            self.protocol.name(),
            seed,
            secs,
            &results,
            &specs,
            MetricContext::default(),
        )
    }
}

/// The three-way comparison's configuration: six far-source flows on
/// Testbed A, phased past a 60 s warm-up.
fn threeway_config(topology: Topology, protocol: Protocol, seed: u64) -> NetworkConfig {
    let mut flows = scenarios::far_flow_set(&topology, 6, 500, seed);
    for f in &mut flows {
        f.phase += 60 * SLOTS_PER_SECOND;
    }
    NetworkConfig::builder(topology).protocol(protocol).seed(seed).flows(flows).build()
}

/// Which matrix tier to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// CI subset: Testbed A scenarios only.
    Small,
    /// The whole evaluation.
    Full,
}

impl MatrixKind {
    /// Parses `small` / `full`.
    ///
    /// # Errors
    ///
    /// Returns a message on anything else.
    pub fn parse(s: &str) -> Result<MatrixKind, String> {
        match s {
            "small" => Ok(MatrixKind::Small),
            "full" => Ok(MatrixKind::Full),
            other => Err(format!("unknown matrix `{other}` (small|full)")),
        }
    }

    /// The tier's name (used as the golden file stem).
    pub fn name(self) -> &'static str {
        match self {
            MatrixKind::Small => "small",
            MatrixKind::Full => "full",
        }
    }

    /// Builds the tier's scenario list. `secs_override` shortens or
    /// lengthens every scenario (clamped to each scenario's minimum).
    pub fn scenarios(self, secs_override: Option<u64>) -> Vec<ScenarioSpec> {
        match self {
            MatrixKind::Small => small_matrix(secs_override),
            MatrixKind::Full => full_matrix(secs_override),
        }
    }
}

fn jammer_sweep_specs(
    testbed_a: &Topology,
    secs: u64,
    jammer_counts: &[usize],
) -> Vec<ScenarioSpec> {
    jammer_counts
        .iter()
        .map(|&jammers| {
            let mut spec = ScenarioSpec::new(
                &format!("fig04-05-jam{jammers}"),
                Protocol::Orchestra,
                secs,
                Kind::JammerSweep { jammers },
                testbed_a,
            );
            spec.windowed_pdr_floor = Some(FIG5_PAPER_MEDIANS[jammers - 1] - FIG5_FLOOR_SLACK);
            spec
        })
        .collect()
}

/// The adversarial family: attack legs per requested protocol, plus the
/// DiGS-only defense-overhead and duel legs (schedule randomization is a
/// DiGS mechanism — Orchestra has no Eq. 4 schedule to permute).
fn adversarial_specs(
    testbed_a: &Topology,
    secs: u64,
    attack_protocols: &[Protocol],
) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &protocol in attack_protocols {
        let mut attack = ScenarioSpec::new(
            &format!("adv-attack-{}", protocol.name()),
            protocol,
            secs,
            Kind::AdaptiveJam,
            testbed_a,
        );
        attack.windowed_pdr_ceiling = Some(ADAPTIVE_ATTACK_PDR_CEILING);
        specs.push(attack);
    }
    let mut defense =
        ScenarioSpec::new("adv-defense-digs", Protocol::Digs, secs, Kind::Randomized, testbed_a);
    defense.windowed_pdr_floor = Some(ADAPTIVE_DEFENSE_PDR_FLOOR);
    specs.push(defense);
    let mut duel =
        ScenarioSpec::new("adv-duel-digs", Protocol::Digs, secs, Kind::AdaptiveDuel, testbed_a);
    duel.windowed_pdr_floor = Some(ADAPTIVE_DEFENSE_PDR_FLOOR);
    specs.push(duel);
    specs
}

/// The full conformance matrix: paper figures, the three-way comparison,
/// and the chaos soak, for all protocols each figure compares.
pub fn full_matrix(secs_override: Option<u64>) -> Vec<ScenarioSpec> {
    // Hoisted shared setup: one topology build per testbed, cloned into
    // every spec (and from there into every seeded run).
    let testbed_a = Topology::testbed_a();
    let testbed_b = Topology::testbed_b();
    let cooja = Topology::cooja_150(7);
    let s = |default: u64| secs_override.unwrap_or(default);

    let mut specs = Vec::new();
    for protocol in [Protocol::Digs, Protocol::Orchestra] {
        let p = protocol.name();
        specs.push(ScenarioSpec::new(
            &format!("fig09-{p}"),
            protocol,
            s(420),
            Kind::TestbedAInterference,
            &testbed_a,
        ));
        specs.push(ScenarioSpec::new(
            &format!("fig10-{p}"),
            protocol,
            s(420),
            Kind::TestbedBInterference,
            &testbed_b,
        ));
        specs.push(ScenarioSpec::new(
            &format!("fig11-{p}"),
            protocol,
            s(420),
            Kind::NodeFailure,
            &testbed_a,
        ));
        specs.push(ScenarioSpec::new(
            &format!("fig12-{p}"),
            protocol,
            s(420),
            Kind::LargeScale,
            &cooja,
        ));
        specs.push(ScenarioSpec::new(
            &format!("fig13-{p}"),
            protocol,
            s(120),
            Kind::Initialization,
            &testbed_a,
        ));
    }
    specs.extend(jammer_sweep_specs(&testbed_a, s(420), &[1, 2, 3, 4]));
    for protocol in [Protocol::Digs, Protocol::Orchestra, Protocol::WirelessHart] {
        let p = protocol.name();
        specs.push(ScenarioSpec::new(
            &format!("threeway-clean-{p}"),
            protocol,
            s(360),
            Kind::ThreewayClean,
            &testbed_a,
        ));
        specs.push(ScenarioSpec::new(
            &format!("threeway-fail-{p}"),
            protocol,
            s(360),
            Kind::ThreewayFail,
            &testbed_a,
        ));
        specs.push(ScenarioSpec::new(
            &format!("chaos-{p}"),
            protocol,
            s(600),
            Kind::Chaos,
            &testbed_a,
        ));
    }
    specs.extend(adversarial_specs(&testbed_a, s(420), &[Protocol::Digs, Protocol::Orchestra]));
    specs
}

/// The CI subset: every Testbed A scenario family once, cheap enough for
/// a per-PR wall-clock budget.
pub fn small_matrix(secs_override: Option<u64>) -> Vec<ScenarioSpec> {
    let testbed_a = Topology::testbed_a();
    let s = |default: u64| secs_override.unwrap_or(default);
    let mut specs = Vec::new();
    for protocol in [Protocol::Digs, Protocol::Orchestra] {
        let p = protocol.name();
        specs.push(ScenarioSpec::new(
            &format!("fig09-{p}"),
            protocol,
            s(420),
            Kind::TestbedAInterference,
            &testbed_a,
        ));
        specs.push(ScenarioSpec::new(
            &format!("fig11-{p}"),
            protocol,
            s(420),
            Kind::NodeFailure,
            &testbed_a,
        ));
    }
    specs.push(ScenarioSpec::new(
        "fig13-digs",
        Protocol::Digs,
        s(120),
        Kind::Initialization,
        &testbed_a,
    ));
    specs.extend(jammer_sweep_specs(&testbed_a, s(420), &[1, 4]));
    specs.push(ScenarioSpec::new(
        "threeway-clean-digs",
        Protocol::Digs,
        s(360),
        Kind::ThreewayClean,
        &testbed_a,
    ));
    specs.push(ScenarioSpec::new(
        "threeway-fail-digs",
        Protocol::Digs,
        s(360),
        Kind::ThreewayFail,
        &testbed_a,
    ));
    specs.push(ScenarioSpec::new("chaos-digs", Protocol::Digs, s(600), Kind::Chaos, &testbed_a));
    specs.extend(adversarial_specs(&testbed_a, s(420), &[Protocol::Digs]));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_names_are_unique() {
        for kind in [MatrixKind::Small, MatrixKind::Full] {
            let specs = kind.scenarios(None);
            let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{} matrix has duplicate names", kind.name());
        }
    }

    #[test]
    fn small_is_a_subset_of_full() {
        let full = full_matrix(None);
        for small in small_matrix(None) {
            assert!(
                full.iter().any(|f| f.name == small.name),
                "{} missing from the full matrix",
                small.name
            );
        }
    }

    #[test]
    fn secs_override_respects_scenario_minimums() {
        for spec in full_matrix(Some(10)) {
            assert!(spec.secs >= spec.kind.min_secs(), "{} shrunk below its minimum", spec.name);
        }
    }

    #[test]
    fn jammer_sweep_carries_paper_floor() {
        let specs = full_matrix(None);
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
        let full = full_matrix(None);
        assert!(full.iter().any(|s| s.name == "adv-attack-orchestra"));
    }

    #[test]
    fn one_cheap_scenario_runs_deterministically() {
        let testbed = Topology::testbed_a_half();
        let spec = ScenarioSpec::new("t", Protocol::Digs, 60, Kind::Initialization, &testbed);
        let a = spec.run(1);
        let b = spec.run(1);
        assert_eq!(a.to_line(), b.to_line());
        assert_eq!(a.scenario, "t");
        assert!(a.fraction_joined > 0.0);
    }
}
