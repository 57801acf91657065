//! Golden baselines: per-scenario aggregate checks with explicit
//! tolerance bands.
//!
//! Blessing (`digs-cli gate --bless`) aggregates the fresh records into
//! per-scenario distributions (median, p90, min, max per metric) and
//! derives a `[lo, hi]` band for each gated aggregate from the tolerance
//! policy in [`band`]. The checked-in golden stores the observed value
//! *and* the band, so a later gate run needs no policy knowledge — it
//! just compares, and the diff table can show how far outside the band
//! an observation landed.
//!
//! Two checks encode paper bounds rather than pure self-consistency:
//!
//! - `windowed_pdr_median.median` (the Fig. 5 "PDR during repair"
//!   metric) is floored at the paper's median minus a small slack — the
//!   old eyeball check was flagged "too forgiving" in EXPERIMENTS.md and
//!   is now a hard assertion;
//! - `repair_time_secs.median` (Fig. 4) gets a tight ±40 % band instead
//!   of the loose range overlap noted there.

use crate::matrix::ScenarioSpec;
use crate::metrics::RunMetrics;
use digs_json::message::{decode_line, Rows};
use digs_json::Value;

/// The aggregate statistics a check can gate on.
pub const STATS: &[&str] = &["median", "p90", "min", "max"];

/// Computes one aggregate statistic over a metric's samples.
pub fn aggregate_stat(samples: &[f64], stat: &str) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    match stat {
        "median" => Some(digs_metrics::stats::percentile_sorted(&sorted, 50.0)),
        "p90" => Some(digs_metrics::stats::percentile_sorted(&sorted, 90.0)),
        "min" => Some(sorted[0]),
        "max" => Some(*sorted.last().expect("non-empty")),
        _ => None,
    }
}

/// All aggregates for one scenario's records, as `("metric.stat", value)`
/// pairs in canonical order. Metrics absent from every record contribute
/// nothing.
pub fn aggregate(records: &[RunMetrics]) -> Vec<(String, f64)> {
    let encoded: Vec<Value> = records.iter().map(Rows::to_value).collect();
    let mut out = Vec::new();
    for row in RunMetrics::metric_rows() {
        let samples: Vec<f64> = encoded.iter().filter_map(|r| r.field(row.key)?.as_f64()).collect();
        if samples.is_empty() {
            continue;
        }
        for stat in STATS {
            if let Some(v) = aggregate_stat(&samples, stat) {
                out.push((format!("{}.{stat}", row.key), v));
            }
        }
    }
    out
}

/// How a gated aggregate's band follows from its blessed value.
#[derive(Debug, Clone, Copy)]
enum Slack {
    /// A ratio: absolute slack below and above, the band kept in [0, 1].
    Ratio(f64, f64),
    /// A scale: this fraction of the value, at least this much.
    Relative(f64, f64),
    /// Never above the blessed value.
    AtMost,
}

/// The aggregates each scenario is gated on, with their slack. Everything
/// else is recorded but not checked (p90/max of most metrics track the
/// gated stats and would only double-report the same regression).
const GATED: &[(&str, Slack)] = &[
    ("pdr.median", Slack::Ratio(0.04, 0.04)),
    ("pdr.min", Slack::Ratio(0.08, 1.0)),
    ("worst_flow_pdr.median", Slack::Ratio(0.08, 0.08)),
    ("worst_flow_pdr.min", Slack::Ratio(0.15, 1.0)),
    ("median_latency_ms.median", Slack::Relative(0.30, 20.0)),
    ("worst_latency_ms.median", Slack::Relative(0.60, 50.0)),
    ("duty_cycle_percent.median", Slack::Relative(0.25, 0.05)),
    ("power_per_packet_mw.median", Slack::Relative(0.30, 0.01)),
    ("energy_per_packet_mj.median", Slack::Relative(0.30, 0.5)),
    // Fig. 4: tightened from the old "range overlaps" eyeball check.
    ("repair_time_secs.median", Slack::Relative(0.40, 2.0)),
    // Fig. 5: tight absolute band; `floor` adds the paper bound.
    ("windowed_pdr_median.median", Slack::Ratio(0.03, 0.03)),
    ("windowed_pdr_worst.min", Slack::Ratio(0.10, 1.0)),
    ("fraction_joined.min", Slack::Ratio(0.05, 1.0)),
    ("mean_join_secs.median", Slack::Relative(0.40, 5.0)),
    // Robustness: violations may never exceed the blessed count (zero on
    // a healthy tree), and a later drop to zero is fine.
    ("audit_violations.max", Slack::AtMost),
];

/// Derives the `[lo, hi]` tolerance band for the aggregate `key` observed
/// at `observed`, or `None` when `key` is not gated. `floor` is an
/// optional absolute lower bound (the paper-derived Fig. 5 floor) that
/// tightens `lo` upward; `ceiling` is an optional absolute upper bound
/// (the adversarial-gate attack ceiling) that tightens `hi` downward — an
/// attack scenario whose victim PDR *recovers* above the ceiling means
/// the attack stopped working, which is just as much a conformance
/// failure as a regression.
pub fn band(
    key: &str,
    observed: f64,
    floor: Option<f64>,
    ceiling: Option<f64>,
) -> Option<(f64, f64)> {
    let &(_, slack) = GATED.iter().find(|(gated, _)| *gated == key)?;
    let (lo, hi) = match slack {
        Slack::Ratio(below, above) => ((observed - below).max(0.0), (observed + above).min(1.0)),
        Slack::Relative(fraction, at_least) => {
            let slack = (observed.abs() * fraction).max(at_least);
            ((observed - slack).max(0.0), observed + slack)
        }
        Slack::AtMost => (0.0, observed),
    };
    let (lo, hi) = match floor {
        Some(f) => (lo.max(f), hi.max(f)),
        None => (lo, hi),
    };
    Some(match ceiling {
        Some(c) => (lo.min(c), hi.min(c)),
        None => (lo, hi),
    })
}

digs_json::message! {
    /// One gated aggregate with its blessed value and tolerance band.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Check {
        /// `metric.stat` key, e.g. `pdr.median`.
        metric: String,
        /// The aggregate at bless time.
        observed: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    }
}

impl Check {
    /// Whether `value` satisfies the band.
    pub fn passes(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

digs_json::message! {
    /// One scenario's golden baseline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScenarioGolden {
        /// Matrix key.
        name: String,
        /// Simulated seconds the baseline was blessed at.
        secs: u64,
        /// The gated aggregates.
        checks: Vec<Check>,
    }
}

digs_json::message! {
    /// A checked-in golden baseline for one matrix tier.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Golden {
        /// Matrix tier name (`small` / `full`).
        matrix: String,
        /// The seeds the baseline was blessed over. A gate run must use the
        /// same sweep — different seeds sample a different distribution and
        /// comparing them would be meaningless.
        seeds: Vec<u64>,
        /// Per-scenario baselines, in matrix order.
        scenarios: Vec<ScenarioGolden>,
    }
}

impl Golden {
    /// Blesses fresh records into a golden baseline. `groups` pairs each
    /// scenario spec with its per-seed records.
    pub fn bless(
        matrix: &str,
        seeds: &[u64],
        groups: &[(&ScenarioSpec, Vec<RunMetrics>)],
    ) -> Golden {
        let scenarios = groups
            .iter()
            .map(|(spec, records)| {
                let checks = aggregate(records)
                    .into_iter()
                    .filter_map(|(key, observed)| {
                        let is_windowed = key == "windowed_pdr_median.median";
                        let floor = is_windowed.then_some(spec.windowed_pdr_floor).flatten();
                        let ceiling = is_windowed.then_some(spec.windowed_pdr_ceiling).flatten();
                        let (lo, hi) = band(&key, observed, floor, ceiling)?;
                        Some(Check { metric: key, observed, lo, hi })
                    })
                    .collect();
                ScenarioGolden { name: spec.name.clone(), secs: spec.secs, checks }
            })
            .collect();
        Golden { matrix: matrix.to_string(), seeds: seeds.to_vec(), scenarios }
    }

    /// Finds a scenario baseline by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioGolden> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Serializes to the checked-in pretty JSON form.
    pub fn to_pretty(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses a golden file.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, or naming the first missing or
    /// ill-typed field.
    pub fn parse(text: &str) -> Result<Golden, String> {
        decode_line(text, Golden::take_fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, pdr: f64) -> RunMetrics {
        RunMetrics {
            scenario: "t".into(),
            protocol: "digs".into(),
            seed,
            secs: 60,
            pdr,
            worst_flow_pdr: pdr - 0.1,
            median_latency_ms: Some(300.0),
            worst_latency_ms: Some(900.0),
            duty_cycle_percent: 1.2,
            power_per_packet_mw: Some(0.4),
            energy_per_packet_mj: Some(20.0),
            repair_time_secs: Some(8.0),
            windowed_pdr_median: Some(0.97),
            windowed_pdr_worst: Some(0.9),
            fraction_joined: 1.0,
            mean_join_secs: Some(18.0),
            parent_changes: 40,
            retry_drops: 2,
            queue_drops: 0,
            audit_violations: 0,
            telemetry_epochs: None,
            health_alerts: None,
            epoch_pdr_min: None,
        }
    }

    #[test]
    fn aggregates_cover_present_metrics() {
        let records = vec![record(1, 0.9), record(2, 1.0), record(3, 0.95)];
        let aggs = aggregate(&records);
        let get = |k: &str| aggs.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("pdr.min"), Some(0.9));
        assert_eq!(get("pdr.max"), Some(1.0));
        assert_eq!(get("pdr.median"), Some(0.95));
        assert_eq!(get("audit_violations.max"), Some(0.0));
    }

    #[test]
    fn absent_metrics_produce_no_aggregates() {
        let mut r = record(1, 0.9);
        r.repair_time_secs = None;
        let aggs = aggregate(&[r]);
        assert!(aggs.iter().all(|(k, _)| !k.starts_with("repair_time_secs")));
    }

    fn gated(key: &str, observed: f64, floor: Option<f64>, ceiling: Option<f64>) -> (f64, f64) {
        band(key, observed, floor, ceiling).expect("a gated aggregate")
    }

    #[test]
    fn only_the_gated_aggregates_get_a_band() {
        assert_eq!(band("pdr.p90", 0.9, None, None), None);
        let golden = Golden::parse(include_str!("../../../goldens/full.json")).expect("parses");
        let checks: Vec<&str> = golden
            .scenarios
            .iter()
            .flat_map(|s| s.checks.iter().map(|c| c.metric.as_str()))
            .collect();
        for (key, _) in GATED {
            assert!(checks.contains(key), "no golden checks {key}");
        }
    }

    #[test]
    fn bands_clamp_ratios_to_unit_interval() {
        let (lo, hi) = gated("pdr.median", 0.99, None, None);
        assert!(lo < 0.99 && hi <= 1.0);
        let (lo, _) = gated("pdr.min", 0.05, None, None);
        assert!(lo >= 0.0);
    }

    #[test]
    fn repair_band_is_tight_but_not_degenerate() {
        let (lo, hi) = gated("repair_time_secs.median", 10.0, None, None);
        assert!((lo - 6.0).abs() < 1e-9 && (hi - 14.0).abs() < 1e-9);
        // Small medians fall back to the absolute slack.
        let (lo, hi) = gated("repair_time_secs.median", 1.0, None, None);
        assert!(lo == 0.0 && hi == 3.0);
    }

    #[test]
    fn paper_floor_tightens_the_lower_bound() {
        let (lo, _) = gated("windowed_pdr_median.median", 0.97, Some(0.85), None);
        assert!((lo - 0.94).abs() < 1e-9, "band slack wins when above the floor");
        let (lo, _) = gated("windowed_pdr_median.median", 0.86, Some(0.85), None);
        assert!((lo - 0.85).abs() < 1e-9, "floor wins when the band dips below it");
    }

    #[test]
    fn attack_ceiling_tightens_the_upper_bound() {
        // A collapsed victim PDR sits far under the ceiling: the band's
        // own slack applies unchanged.
        let (lo, hi) = gated("windowed_pdr_median.median", 0.11, None, Some(0.65));
        assert!((lo - 0.08).abs() < 1e-9 && (hi - 0.14).abs() < 1e-9);
        // An observation near the ceiling clamps `hi` down — a recovering
        // victim means the attack stopped working, which must fail the
        // gate rather than slide through as drift.
        let (_, hi) = gated("windowed_pdr_median.median", 0.64, None, Some(0.65));
        assert!((hi - 0.65).abs() < 1e-9, "ceiling wins when the band rises above it");
        // Floor and ceiling compose without crossing.
        let (lo, hi) = gated("windowed_pdr_median.median", 0.5, Some(0.4), Some(0.6));
        assert!(lo <= hi && (lo - 0.47).abs() < 1e-9 && (hi - 0.53).abs() < 1e-9);
    }

    #[test]
    fn violations_band_pins_increases() {
        let c = {
            let (lo, hi) = gated("audit_violations.max", 0.0, None, None);
            Check { metric: "audit_violations.max".into(), observed: 0.0, lo, hi }
        };
        assert!(c.passes(0.0));
        assert!(!c.passes(1.0));
    }

    #[test]
    fn golden_round_trips_through_pretty_json() {
        let specs = crate::MatrixKind::Small.scenarios(Some(60));
        let spec = &specs[0];
        let records = vec![record(1, 0.9), record(2, 0.95)];
        let golden = Golden::bless("small", &[1, 2], &[(spec, records)]);
        let text = golden.to_pretty();
        let back = Golden::parse(&text).expect("parse");
        assert_eq!(back, golden);
        assert!(!golden.scenarios[0].checks.is_empty());
    }
}
