//! `figures`: the paper's figures, each one markdown table over its runs
//! of the conformance catalogue.
//!
//! A figure is a row of [`FIGURES`]: the catalogue scenarios it reads and,
//! per table row, the metric, the paper's value and the function that
//! reduces the runs to the measured value. Every (scenario, seed) run goes
//! through `digs-pool` once, however many figures read it. A per-set mean
//! carries its 95 % interval; a DiGS − Orchestra mean gap is the mean of
//! per-seed differences (both protocols draw the same flow set from a
//! seed); an order statistic or a pooled quantity carries none.

use crate::flags::Args;
use crate::run::manager_update;
use digs::flows::FlowSpec;
use digs::results::{FlowResult, RunResults};
use digs::scenarios::JAM_START_SECS;
use digs::watchdog::{self, WatchdogSummary};
use digs_conformance::matrix::{self, REPAIR_SETTLE_SECS};
use digs_conformance::{pool, ScenarioSpec};
use digs_metrics::stats::{mean_confidence_interval, ConfidenceInterval};
use digs_metrics::Cdf;
use digs_scheduling::analysis::digs_skip_probabilities;
use digs_scheduling::SlotframeLengths;
use digs_sim::seeds::SeedSpec;
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_sim::topology::Topology;
use std::fmt;

/// One paper figure (or study beyond the paper) as a table.
pub struct Figure {
    /// What `--fig` selects it by.
    pub id: &'static str,
    title: &'static str,
    /// The catalogue scenarios it reads, each at every seed.
    pub scenarios: &'static [&'static str],
    rows: &'static [Row],
}

struct Row {
    metric: &'static str,
    paper: &'static str,
    measure: fn(&Runs) -> Measured,
}

const fn row(metric: &'static str, paper: &'static str, measure: fn(&Runs) -> Measured) -> Row {
    Row { metric, paper, measure }
}

/// Every figure, in the order `figures` prints them.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "3",
        title: "Fig. 3 — WirelessHART Network Manager update time",
        scenarios: &[],
        rows: &[
            row("Half Testbed A update (s)", "203", |_| manager(Topology::testbed_a_half(), 8)),
            row("Full Testbed A update (s)", "506", |_| manager(Topology::testbed_a(), 8)),
            row("Half Testbed B update (s)", "191", |_| manager(Topology::testbed_b_half(), 6)),
            row("Full Testbed B update (s)", "443", |_| manager(Topology::testbed_b(), 6)),
        ],
    },
    Figure {
        id: "4",
        title: "Fig. 4 — Orchestra repair time under 1–4 jammers",
        scenarios: JAMMER_SWEEP,
        rows: &[
            row("repair time min (s)", "20", |r| r.sweep(repair).min()),
            row("repair time median (s)", "45", |r| r.sweep(repair).median()),
            row("repair time max (s)", "95", |r| r.sweep(repair).max()),
        ],
    },
    Figure {
        id: "5",
        title: "Fig. 5 — Orchestra per-flow PDR during repair, 1–4 jammers",
        scenarios: JAMMER_SWEEP,
        rows: &[
            row("median PDR with 1 jammer(s)", "0.9", |r| {
                r.pooled("fig04-05-jam1", jammed).median()
            }),
            row("median PDR with 2 jammer(s)", "0.87", |r| {
                r.pooled("fig04-05-jam2", jammed).median()
            }),
            row("median PDR with 3 jammer(s)", "0.845", |r| {
                r.pooled("fig04-05-jam3", jammed).median()
            }),
            row("median PDR with 4 jammer(s)", "0.825", |r| {
                r.pooled("fig04-05-jam4", jammed).median()
            }),
        ],
    },
    Figure {
        id: "9",
        title: "Fig. 9 — Testbed A under interference: DiGS vs Orchestra",
        scenarios: &["fig09-digs", "fig09-orchestra"],
        rows: &[
            row("DiGS mean PDR − Orchestra mean PDR", "+0.083", |r| {
                r.gap("fig09-digs", "fig09-orchestra", pdr)
            }),
            row("DiGS flow sets ≥ 95% PDR", "0.75", |r| r.sets("fig09-digs", pdr).share(0.95)),
            row("Orchestra flow sets ≥ 95% PDR", "0.125", |r| {
                r.sets("fig09-orchestra", pdr).share(0.95)
            }),
            row("DiGS worst-case set PDR", "0.903", |r| r.sets("fig09-digs", pdr).min()),
            row("Orchestra worst-case set PDR", "0.760", |r| r.sets("fig09-orchestra", pdr).min()),
            row("DiGS median latency (ms)", "601.3", |r| r.pooled("fig09-digs", ms).median()),
            row("Orchestra median latency (ms)", "917.5", |r| {
                r.pooled("fig09-orchestra", ms).median()
            }),
            row("DiGS mean latency (ms)", "649.5", |r| r.pooled("fig09-digs", ms).mean()),
            row("Orchestra mean latency (ms)", "1214.1", |r| {
                r.pooled("fig09-orchestra", ms).mean()
            }),
            row("power/packet DiGS − Orchestra (mW)", "-0.056", |r| {
                r.gap("fig09-digs", "fig09-orchestra", mw)
            }),
        ],
    },
    Figure {
        id: "10",
        title: "Fig. 10 — Testbed B under interference: DiGS vs Orchestra",
        scenarios: &["fig10-digs", "fig10-orchestra"],
        rows: &[
            row("DiGS worst-case set PDR", "0.932", |r| r.sets("fig10-digs", pdr).min()),
            row("DiGS median set PDR", "0.945", |r| r.sets("fig10-digs", pdr).median()),
            row("DiGS p90 set PDR", "0.977", |r| r.sets("fig10-digs", pdr).p90()),
            row("worst PDR gap (DiGS − Orch)", "+0.076", |r| {
                r.sets("fig10-digs", pdr).min().minus(r.sets("fig10-orchestra", pdr).min())
            }),
            row("median PDR gap (DiGS − Orch)", "+0.052", |r| {
                r.sets("fig10-digs", pdr).median().minus(r.sets("fig10-orchestra", pdr).median())
            }),
            row("median latency gap (Orch − DiGS, ms)", "232.7", |r| {
                r.pooled("fig10-orchestra", ms).median().minus(r.pooled("fig10-digs", ms).median())
            }),
            row("power/packet DiGS − Orchestra (mW)", "-0.057", |r| {
                r.gap("fig10-digs", "fig10-orchestra", mw)
            }),
        ],
    },
    Figure {
        id: "11",
        title: "Fig. 11 — Testbed A with node failure: DiGS vs Orchestra",
        scenarios: &["fig11-digs", "fig11-orchestra"],
        rows: &[
            row("DiGS mean set PDR under failure", "1.00", |r| r.sets("fig11-digs", pdr).mean()),
            row("Orchestra mean set PDR under failure", "<1.00", |r| {
                r.sets("fig11-orchestra", pdr).mean()
            }),
            row("DiGS flows degraded (<90% PDR)", "0", |r| {
                r.pooled("fig11-digs", flow_pdrs).below(0.9)
            }),
            row("Orchestra flows degraded (<90% PDR)", "~6 of 8/set", |r| {
                r.pooled("fig11-orchestra", flow_pdrs).below(0.9)
            }),
            row("power/packet DiGS − Orchestra (mW)", "-9.01", |r| {
                r.gap("fig11-digs", "fig11-orchestra", mw)
            }),
        ],
    },
    Figure {
        id: "12",
        title: "Fig. 12 — 150-node large-scale simulation: DiGS vs Orchestra",
        scenarios: &["fig12-digs", "fig12-orchestra"],
        rows: &[
            row("DiGS mean PDR − Orchestra", "+0.163", |r| {
                r.gap("fig12-digs", "fig12-orchestra", pdr)
            }),
            row("DiGS flow sets ≥ 95% PDR", "0.53", |r| r.sets("fig12-digs", pdr).share(0.95)),
            row("Orchestra flow sets ≥ 95% PDR", "0.11", |r| {
                r.sets("fig12-orchestra", pdr).share(0.95)
            }),
            row("DiGS worst-case set PDR", "0.867", |r| r.sets("fig12-digs", pdr).min()),
            row("Orchestra worst-case set PDR", "0.630", |r| r.sets("fig12-orchestra", pdr).min()),
            row("DiGS median latency (ms)", "1560", |r| r.pooled("fig12-digs", ms).median()),
            row("Orchestra median latency (ms)", "1950", |r| {
                r.pooled("fig12-orchestra", ms).median()
            }),
            row("duty cycle/pkt DiGS − Orchestra (%)", "+0.056", |r| {
                r.gap("fig12-digs", "fig12-orchestra", duty_per_packet)
            }),
        ],
    },
    Figure {
        id: "13",
        title: "Fig. 13 — Network initialization: per-node join time",
        scenarios: &["fig13-digs", "fig13-orchestra"],
        rows: &[
            row("DiGS mean join time (s)", "15.4", |r| r.pooled("fig13-digs", joins).mean()),
            row("Orchestra mean join time (s)", "14.3", |r| {
                r.pooled("fig13-orchestra", joins).mean()
            }),
            row("DiGS max join time (s)", "24.1", |r| r.pooled("fig13-digs", joins).max()),
            row("Orchestra max join time (s)", "23.0", |r| {
                r.pooled("fig13-orchestra", joins).max()
            }),
            row("join-time penalty of DiGS (s, mean)", "+1.1", |r| {
                r.pooled("fig13-digs", joins)
                    .mean()
                    .minus(r.pooled("fig13-orchestra", joins).mean())
            }),
        ],
    },
    Figure {
        id: "threeway",
        title: "Three-way comparison — DiGS vs Orchestra vs centralized WirelessHART, \
                clean and with a shared relay failed for 120–240 s",
        scenarios: &[
            "threeway-clean-digs",
            "threeway-fail-digs",
            "threeway-clean-orchestra",
            "threeway-fail-orchestra",
            "threeway-clean-wirelesshart",
            "threeway-fail-wirelesshart",
        ],
        rows: &[
            row("DiGS clean PDR", "—", |r| r.sets("threeway-clean-digs", pdr).mean()),
            row("DiGS PDR with the relay failed", "—", |r| {
                r.sets("threeway-fail-digs", pdr).mean()
            }),
            row("DiGS clean median latency (ms)", "—", |r| {
                r.pooled("threeway-clean-digs", ms).median()
            }),
            row("DiGS clean power/packet (mW)", "—", |r| {
                r.sets("threeway-clean-digs", mw).mean()
            }),
            row("Orchestra clean PDR", "—", |r| r.sets("threeway-clean-orchestra", pdr).mean()),
            row("Orchestra PDR with the relay failed", "—", |r| {
                r.sets("threeway-fail-orchestra", pdr).mean()
            }),
            row("Orchestra clean median latency (ms)", "—", |r| {
                r.pooled("threeway-clean-orchestra", ms).median()
            }),
            row("Orchestra clean power/packet (mW)", "—", |r| {
                r.sets("threeway-clean-orchestra", mw).mean()
            }),
            row("WirelessHART clean PDR", "—", |r| {
                r.sets("threeway-clean-wirelesshart", pdr).mean()
            }),
            row("WirelessHART PDR with the relay failed", "—", |r| {
                r.sets("threeway-fail-wirelesshart", pdr).mean()
            }),
            row("WirelessHART clean median latency (ms)", "—", |r| {
                r.pooled("threeway-clean-wirelesshart", ms).median()
            }),
            row("WirelessHART clean power/packet (mW)", "—", |r| {
                r.sets("threeway-clean-wirelesshart", mw).mean()
            }),
        ],
    },
    Figure {
        id: "soak",
        title: "Chaos soak — survival, recovery and invariant audit under randomized faults",
        scenarios: &["chaos-digs", "chaos-orchestra", "chaos-wirelesshart"],
        rows: &[
            row("DiGS PDR", "—", |r| r.sets("chaos-digs", pdr).mean()),
            row("DiGS min windowed PDR", "—", |r| r.soak("chaos-digs", valley_pdr).min()),
            row("DiGS packets lost in valleys", "—", |r| {
                r.soak("chaos-digs", valley_lost).mean()
            }),
            row("DiGS faults converged", "—", |r| r.soak("chaos-digs", converged).mean()),
            row("DiGS worst recovery (s)", "—", |r| r.soak("chaos-digs", worst_recovery).max()),
            row("DiGS audit violations", "0", |r| r.sets("chaos-digs", violations).max()),
            row("Orchestra PDR", "—", |r| r.sets("chaos-orchestra", pdr).mean()),
            row("Orchestra min windowed PDR", "—", |r| {
                r.soak("chaos-orchestra", valley_pdr).min()
            }),
            row("Orchestra packets lost in valleys", "—", |r| {
                r.soak("chaos-orchestra", valley_lost).mean()
            }),
            row("Orchestra faults converged", "—", |r| {
                r.soak("chaos-orchestra", converged).mean()
            }),
            row("Orchestra worst recovery (s)", "—", |r| {
                r.soak("chaos-orchestra", worst_recovery).max()
            }),
            row("Orchestra audit violations", "—", |r| {
                r.sets("chaos-orchestra", violations).max()
            }),
            row("WirelessHART PDR", "—", |r| r.sets("chaos-wirelesshart", pdr).mean()),
            row("WirelessHART min windowed PDR", "—", |r| {
                r.soak("chaos-wirelesshart", valley_pdr).min()
            }),
            row("WirelessHART packets lost in valleys", "—", |r| {
                r.soak("chaos-wirelesshart", valley_lost).mean()
            }),
            row("WirelessHART faults converged", "—", |r| {
                r.soak("chaos-wirelesshart", converged).mean()
            }),
            row("WirelessHART worst recovery (s)", "—", |r| {
                r.soak("chaos-wirelesshart", worst_recovery).max()
            }),
            row("WirelessHART audit violations", "—", |r| {
                r.sets("chaos-wirelesshart", violations).max()
            }),
        ],
    },
    Figure {
        id: "backup",
        title: "Ablation — DiGS with vs without the backup parent (Fig. 9 scenario)",
        scenarios: &["fig09-digs", "ablation-single-path"],
        rows: &[
            row("mean PDR with backup parent", "(higher)", |r| r.sets("fig09-digs", pdr).mean()),
            row("mean PDR without backup parent", "(lower)", |r| {
                r.sets("ablation-single-path", pdr).mean()
            }),
            row("mean PDR gap (with − without)", "(> 0)", |r| {
                r.gap("fig09-digs", "ablation-single-path", pdr)
            }),
            row("worst-case set PDR with backup", "(higher)", |r| r.sets("fig09-digs", pdr).min()),
            row("worst-case set PDR without backup", "(lower)", |r| {
                r.sets("ablation-single-path", pdr).min()
            }),
            row("median latency with backup (ms)", "—", |r| r.pooled("fig09-digs", ms).median()),
            row("median latency without backup (ms)", "—", |r| {
                r.pooled("ablation-single-path", ms).median()
            }),
        ],
    },
    Figure {
        id: "etx",
        title: "Ablation — weighted ETX (Eq. 1–3) vs plain accumulated ETX (Fig. 9 scenario)",
        scenarios: &["fig09-digs", "ablation-plain-etx"],
        rows: &[
            row("mean PDR with weighted ETX", "—", |r| r.sets("fig09-digs", pdr).mean()),
            row("mean PDR with plain ETX", "—", |r| r.sets("ablation-plain-etx", pdr).mean()),
            row("mean PDR gap (weighted − plain)", "—", |r| {
                r.gap("fig09-digs", "ablation-plain-etx", pdr)
            }),
            row("worst-case set PDR, weighted", "—", |r| r.sets("fig09-digs", pdr).min()),
            row("worst-case set PDR, plain", "—", |r| r.sets("ablation-plain-etx", pdr).min()),
        ],
    },
    Figure {
        id: "slotframe",
        title: "Ablation — application slotframe length (DiGS, Fig. 9 scenario without jammers)",
        scenarios: &["ablation-app53", "ablation-app101", "ablation-app151", "ablation-app307"],
        rows: &[
            row("L_app 53: mean PDR", "—", |r| r.sets("ablation-app53", pdr).mean()),
            row("L_app 53: median latency (ms)", "—", |r| {
                r.pooled("ablation-app53", ms).median()
            }),
            row("L_app 53: duty cycle (%)", "—", |r| r.sets("ablation-app53", duty).mean()),
            row("L_app 101: mean PDR", "—", |r| r.sets("ablation-app101", pdr).mean()),
            row("L_app 101: median latency (ms)", "—", |r| {
                r.pooled("ablation-app101", ms).median()
            }),
            row("L_app 101: duty cycle (%)", "—", |r| r.sets("ablation-app101", duty).mean()),
            row("L_app 151: mean PDR", "—", |r| r.sets("ablation-app151", pdr).mean()),
            row("L_app 151: median latency (ms)", "—", |r| {
                r.pooled("ablation-app151", ms).median()
            }),
            row("L_app 151: duty cycle (%)", "—", |r| r.sets("ablation-app151", duty).mean()),
            row("L_app 307: mean PDR", "—", |r| r.sets("ablation-app307", pdr).mean()),
            row("L_app 307: median latency (ms)", "—", |r| {
                r.pooled("ablation-app307", ms).median()
            }),
            row("L_app 307: duty cycle (%)", "—", |r| r.sets("ablation-app307", duty).mean()),
            row("Eq. 6 skip probability of an application cell", "(small)", |_| skip_app()),
        ],
    },
];

const JAMMER_SWEEP: &[&str] = &["fig04-05-jam1", "fig04-05-jam2", "fig04-05-jam3", "fig04-05-jam4"];

/// One seed of one scenario.
struct Run {
    seed: u64,
    results: RunResults,
    flows: Vec<FlowSpec>,
}

/// Every run the selected figures read: per scenario, one run per seed,
/// in seed order.
struct Runs {
    specs: Vec<ScenarioSpec>,
    runs: Vec<Vec<Run>>,
}

impl Runs {
    fn of(&self, name: &str) -> (&ScenarioSpec, &[Run]) {
        let i = self.specs.iter().position(|s| s.name == name);
        let i = i.unwrap_or_else(|| panic!("a row reads `{name}`, which its figure does not list"));
        (&self.specs[i], &self.runs[i])
    }

    /// One value per set (seed).
    fn sets(&self, name: &str, value: fn(&Run) -> f64) -> Sample {
        Sample::sets(self.of(name).1.iter().map(value))
    }

    /// Every set's values, pooled.
    fn pooled(&self, name: &str, values: fn(&Run) -> Vec<f64>) -> Sample {
        let values = self.of(name).1.iter().flat_map(values);
        Sample { values: values.filter(|v| v.is_finite()).collect(), per_set: false }
    }

    /// One value per set of every jammer count, pooled.
    fn sweep(&self, value: fn(&Run) -> f64) -> Sample {
        Sample::sets(JAMMER_SWEEP.iter().flat_map(|name| self.of(name).1.iter().map(value)))
    }

    /// The mean of the per-seed differences `a − b`, with its interval.
    fn gap(&self, a: &str, b: &str, value: fn(&Run) -> f64) -> Measured {
        let (a, b) = (self.of(a).1, self.of(b).1);
        Sample::sets(a.iter().zip(b).map(|(a, b)| value(a) - value(b))).mean()
    }

    /// One watchdog value per set of a chaos scenario, scored against the
    /// chaos plan regenerated from the set's seed.
    fn soak(&self, name: &str, value: fn(&WatchdogSummary) -> f64) -> Sample {
        let (spec, runs) = self.of(name);
        Sample::sets(runs.iter().map(|run| {
            let plan = spec.chaos_plan(run.seed).expect("a chaos scenario");
            let faults = plan.faults.iter().map(|fault| fault.from);
            let onsets: Vec<_> = faults.chain(plan.jammers.iter().map(|j| j.start)).collect();
            let reports = watchdog::analyze(&run.results, &run.flows, &onsets);
            value(&watchdog::summarize(&reports))
        }))
    }
}

/// The finite values a row reduces: one per set, or pooled over every
/// packet or node of every set.
struct Sample {
    values: Vec<f64>,
    per_set: bool,
}

impl Sample {
    fn sets(values: impl Iterator<Item = f64>) -> Sample {
        Sample { values: values.filter(|v| v.is_finite()).collect(), per_set: true }
    }

    fn stat(&self, statistic: fn(&Cdf) -> f64) -> Measured {
        let value = Cdf::new(self.values.iter().copied()).map_or(f64::NAN, |cdf| statistic(&cdf));
        Measured { value, interval: None, n: self.values.len() }
    }

    fn min(&self) -> Measured {
        self.stat(Cdf::min)
    }

    fn max(&self) -> Measured {
        self.stat(Cdf::max)
    }

    fn median(&self) -> Measured {
        self.stat(Cdf::median)
    }

    fn p90(&self) -> Measured {
        self.stat(|cdf| cdf.percentile(90.0))
    }

    /// The mean; a per-set mean carries its 95 % interval, a pooled one
    /// none (values from one run are not independent).
    fn mean(&self) -> Measured {
        let interval = mean_confidence_interval(&self.values, 0.95).filter(|_| self.per_set);
        Measured { interval, ..self.stat(Cdf::mean) }
    }

    /// The share of values at or above `x`, with the mean's interval.
    fn share(&self, x: f64) -> Measured {
        let hits = self.values.iter().map(|v| if *v >= x { 1.0 } else { 0.0 });
        Sample { values: hits.collect(), ..*self }.mean()
    }

    /// How many values lie below `x`.
    fn below(&self, x: f64) -> Measured {
        let below = self.values.iter().filter(|v| **v < x).count();
        Measured { value: below as f64, interval: None, n: self.values.len() }
    }
}

/// A table cell triple: the measured value, its 95 % interval and the
/// number of values behind it.
struct Measured {
    value: f64,
    interval: Option<ConfidenceInterval>,
    n: usize,
}

impl Measured {
    /// The difference of two statistics (no interval: they are not paired).
    fn minus(self, other: Measured) -> Measured {
        Measured { value: self.value - other.value, interval: None, n: self.n.min(other.n) }
    }
}

impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.value.is_finite(), self.interval) {
            (false, _) => write!(f, "— | — | {}", self.n),
            (true, None) => write!(f, "{:.3} | — | {}", self.value, self.n),
            (true, Some(ci)) => {
                write!(f, "{:.3} | [{:.3}, {:.3}] | {}", self.value, ci.lo, ci.hi, self.n)
            }
        }
    }
}

fn pdr(run: &Run) -> f64 {
    run.results.network_pdr()
}

/// Radio power per delivered packet.
fn mw(run: &Run) -> f64 {
    run.results.power_per_received_packet_mw()
}

fn duty(run: &Run) -> f64 {
    run.results.mean_duty_cycle_percent()
}

fn duty_per_packet(run: &Run) -> f64 {
    run.results.duty_cycle_per_received_packet()
}

fn violations(run: &Run) -> f64 {
    run.results.invariant_violations.len() as f64
}

/// End-to-end latency of every delivered packet.
fn ms(run: &Run) -> Vec<f64> {
    run.results.all_latencies_ms()
}

fn flow_pdrs(run: &Run) -> Vec<f64> {
    run.results.flows.iter().map(FlowResult::pdr).collect()
}

/// Join times of the field devices (the access points join at 0 s).
fn joins(run: &Run) -> Vec<f64> {
    run.results.join_times_secs().into_iter().filter(|t| *t > 0.0).collect()
}

/// Repair after the jammers switch on; not a number when nothing repaired.
fn repair(run: &Run) -> f64 {
    let settle = REPAIR_SETTLE_SECS * SLOTS_PER_SECOND;
    run.results.repair_time_secs(Asn::from_secs(JAM_START_SECS), settle).unwrap_or(f64::NAN)
}

/// Each flow's PDR over the packets generated after the jammers switched on.
fn jammed(run: &Run) -> Vec<f64> {
    let start = JAM_START_SECS * SLOTS_PER_SECOND;
    let flows = run.results.flows.iter().zip(&run.flows);
    flows
        .filter_map(|(flow, spec)| digs::experiment::windowed_flow_pdr(flow, spec, start))
        .collect()
}

fn valley_pdr(summary: &WatchdogSummary) -> f64 {
    summary.min_window_pdr
}

fn valley_lost(summary: &WatchdogSummary) -> f64 {
    f64::from(summary.total_packets_lost)
}

fn converged(summary: &WatchdogSummary) -> f64 {
    summary.converged as f64 / summary.events as f64
}

fn worst_recovery(summary: &WatchdogSummary) -> f64 {
    summary.worst_recovery_secs.unwrap_or(f64::NAN)
}

/// Fig. 3: one full manager update cycle for the `flows` farthest devices.
fn manager(topology: Topology, flows: usize) -> Measured {
    let secs = manager_update(&topology, flows).map_or(f64::NAN, |(_, report)| report.total_secs());
    Measured { value: secs, interval: None, n: 1 }
}

/// Eq. 6: the chance a higher-priority slotframe preempts an application
/// cell (it depends on the sync and routing slotframes only).
fn skip_app() -> Measured {
    let l = SlotframeLengths::paper();
    let (_, _, p_skip_app) = digs_skip_probabilities((l.sync, l.routing, l.app), 2, 3);
    Measured { value: p_skip_app, interval: None, n: 1 }
}

impl Figure {
    /// The figure's heading, what it ran and its table, then a blank line.
    fn render(&self, runs: &Runs, seeds: &SeedSpec) -> String {
        let mut out = format!("## {}\n\n", self.title);
        if self.scenarios.is_empty() {
            out.push_str("The manager's cost model on each topology; nothing is simulated.\n\n");
        } else {
            let listed: Vec<String> = self
                .scenarios
                .iter()
                .map(|name| format!("`{name}` ({} s)", runs.of(name).0.secs))
                .collect();
            out.push_str(&format!("{}; seeds {seeds}.\n\n", listed.join(", ")));
        }
        out.push_str("| metric | paper | measured | 95 % interval | n |\n|---|---|---|---|---|\n");
        for row in self.rows {
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                row.metric,
                row.paper,
                (row.measure)(runs)
            ));
        }
        out.push('\n');
        out
    }
}

pub fn figures(args: &Args) -> Result<(), String> {
    let seeds = args.get::<String>("seeds")?.unwrap_or_else(|| "6".into());
    let seeds = SeedSpec::parse(&seeds).map_err(|e| e.to_string())?;
    let selected: Vec<&Figure> = match args.get::<String>("fig")? {
        None => FIGURES.iter().collect(),
        Some(id) => {
            let figure = FIGURES.iter().find(|f| f.id == id).ok_or_else(|| {
                let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                format!("unknown figure `{id}` ({})", ids.join("|"))
            })?;
            vec![figure]
        }
    };
    let mut names: Vec<&str> = Vec::new();
    for name in selected.iter().flat_map(|f| f.scenarios) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    let specs = matrix::scenarios(&names, args.get("secs")?)?;

    let tasks: Vec<(usize, u64)> =
        (0..specs.len()).flat_map(|i| seeds.seeds().iter().map(move |s| (i, *s))).collect();
    let jobs = pool::default_jobs(tasks.len());
    if !tasks.is_empty() {
        eprintln!(
            "figures: {} scenarios x {} seeds = {} runs on {jobs} worker(s)",
            specs.len(),
            seeds.len(),
            tasks.len()
        );
    }
    let done = pool::par_map_labeled(
        tasks,
        jobs,
        |_, (i, seed)| format!("{}/seed{seed}", specs[*i].name),
        |(i, seed)| {
            let (results, flows) = specs[i].results(seed);
            Run { seed, results, flows }
        },
    );
    let mut done = done.into_iter().map(|timed| timed.value);
    let runs = specs.iter().map(|_| done.by_ref().take(seeds.len()).collect()).collect();
    let runs = Runs { specs, runs };
    for figure in selected {
        print!("{}", figure.render(&runs, &seeds));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_conformance::MatrixKind;

    /// Every scenario a figure names is in the catalogue, and every
    /// catalogue entry is gated by a matrix or read by some figure.
    #[test]
    fn the_figures_and_the_matrices_cover_the_catalogue() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "two figures share an id");
        let read: Vec<&str> = FIGURES.iter().flat_map(|f| f.scenarios.iter().copied()).collect();
        matrix::scenarios(&read, None).expect("every figure reads the catalogue");
        let gated = [MatrixKind::Small, MatrixKind::Full].map(MatrixKind::names).concat();
        for name in matrix::catalogue_names() {
            assert!(gated.contains(&name) || read.contains(&name), "nothing runs `{name}`");
        }
    }

    #[test]
    fn a_per_set_mean_carries_its_interval_and_a_pooled_one_or_an_order_statistic_none() {
        let sets = Sample::sets([0.9, 1.0, f64::NAN, 0.8].into_iter());
        let ci = mean_confidence_interval(&[0.9, 1.0, 0.8], 0.95).expect("three values");
        assert_eq!(sets.mean().to_string(), format!("0.900 | [{:.3}, {:.3}] | 3", ci.lo, ci.hi));
        assert_eq!(sets.min().to_string(), "0.800 | — | 3");
        let ci = mean_confidence_interval(&[1.0, 1.0, 0.0], 0.95).expect("three values");
        assert_eq!(
            sets.share(0.9).to_string(),
            format!("0.667 | [{:.3}, {:.3}] | 3", ci.lo, ci.hi)
        );
        assert_eq!(sets.below(0.9).to_string(), "1.000 | — | 3");
        let pooled = Sample { per_set: false, ..sets };
        assert_eq!(pooled.mean().to_string(), "0.900 | — | 3");
        assert_eq!(Sample::sets([].into_iter()).mean().to_string(), "— | — | 0");
    }
}
