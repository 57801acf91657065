//! The canonical per-run metric record.
//!
//! Every simulation in the conformance matrix reduces to one
//! [`RunMetrics`] record: the paper's headline metrics plus the robustness
//! counters. (`digs-cli figures` reads the runs' `RunResults` instead, for
//! what a record does not carry: latency and join-time distributions, the
//! per-flow PDRs, the duty cycle per packet.)
//! The JSON encoding is canonical (fixed field order, shortest
//! round-trip floats, `null` for absent values), so identical runs
//! produce byte-identical lines; the double-run determinism test pins
//! exactly that.

use crate::json::{self, Value};
use digs::flows::FlowSpec;
use digs::results::RunResults;
use digs_sim::time::Asn;

/// Context a raw [`RunResults`] cannot supply on its own: which window
/// and repair event the scenario defines.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricContext {
    /// When the disturbance (jammer start / first failure) struck,
    /// seconds into the run — enables the repair-time metric.
    pub repair_event_secs: Option<u64>,
    /// Quiet period that ends a repair burst, seconds (only read when
    /// `repair_event_secs` is set).
    pub repair_settle_secs: u64,
    /// Start of the "during repair" PDR window, slots — enables the
    /// Fig. 5 windowed-PDR metrics.
    pub window_start_slot: Option<u64>,
}

/// One run's canonical metrics. Field order here is the canonical JSON
/// field order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Scenario name (matrix key, e.g. `fig09-digs`).
    pub scenario: String,
    /// Protocol short name.
    pub protocol: String,
    /// Flow-set seed of the run.
    pub seed: u64,
    /// Simulated seconds.
    pub secs: u64,
    /// Mean per-flow PDR (the paper's flow-set PDR).
    pub pdr: f64,
    /// Worst per-flow PDR.
    pub worst_flow_pdr: f64,
    /// Median end-to-end latency, ms (`None` if nothing delivered).
    pub median_latency_ms: Option<f64>,
    /// Worst-case end-to-end latency across all flows, ms.
    pub worst_latency_ms: Option<f64>,
    /// Mean per-node radio duty cycle, percent.
    pub duty_cycle_percent: f64,
    /// Network radio power per delivered packet, mW (`None` when nothing
    /// was delivered — the metric is infinite there).
    pub power_per_packet_mw: Option<f64>,
    /// Radio energy per delivered packet, mJ (`None` as above).
    pub energy_per_packet_mj: Option<f64>,
    /// Repair time after the scenario's disturbance, seconds (`None`
    /// without a disturbance or without repair activity).
    pub repair_time_secs: Option<f64>,
    /// Median per-flow PDR inside the disturbance window (Fig. 5).
    pub windowed_pdr_median: Option<f64>,
    /// Worst per-flow PDR inside the disturbance window.
    pub windowed_pdr_worst: Option<f64>,
    /// Fraction of nodes that joined.
    pub fraction_joined: f64,
    /// Mean join time over joined nodes, seconds (Fig. 13).
    pub mean_join_secs: Option<f64>,
    /// Parent-set changes across all nodes.
    pub parent_changes: u64,
    /// Packets dropped after exhausting retries.
    pub retry_drops: u64,
    /// Packets dropped on queue overflow.
    pub queue_drops: u64,
    /// Invariant violations recorded by the runtime auditor (0 for
    /// unaudited runs).
    pub audit_violations: u64,
    /// Telemetry epochs sampled (`None` when telemetry was off — the
    /// golden aggregator skips absent metrics, so gate runs with
    /// telemetry pinned off are unaffected).
    pub telemetry_epochs: Option<u64>,
    /// Health alerts the telemetry monitor raised (`None` as above).
    pub health_alerts: Option<u64>,
    /// Lowest non-idle epoch PDR the telemetry stream saw (`None` when
    /// telemetry was off or no epoch carried traffic).
    pub epoch_pdr_min: Option<f64>,
}

/// The scalar metrics a golden check can reference, in canonical order.
pub const METRIC_KEYS: &[&str] = &[
    "pdr",
    "worst_flow_pdr",
    "median_latency_ms",
    "worst_latency_ms",
    "duty_cycle_percent",
    "power_per_packet_mw",
    "energy_per_packet_mj",
    "repair_time_secs",
    "windowed_pdr_median",
    "windowed_pdr_worst",
    "fraction_joined",
    "mean_join_secs",
    "parent_changes",
    "retry_drops",
    "queue_drops",
    "audit_violations",
    "telemetry_epochs",
    "health_alerts",
    "epoch_pdr_min",
];

impl RunMetrics {
    /// Reduces a finished run to its canonical record.
    pub fn from_results(
        scenario: &str,
        protocol: &str,
        seed: u64,
        secs: u64,
        results: &RunResults,
        specs: &[FlowSpec],
        ctx: MetricContext,
    ) -> RunMetrics {
        let mut latency = digs_metrics::StreamingSummary::new();
        for l in results.all_latencies_ms() {
            latency.push(l);
        }
        let worst_latency_ms = latency.max();
        let delivered = results.total_delivered();
        let energy_per_packet_mj = if delivered == 0 {
            None
        } else {
            let total_mj: f64 = results.nodes.iter().map(|n| n.energy_mj).sum();
            Some(total_mj / f64::from(delivered))
        };
        let repair_time_secs = ctx.repair_event_secs.and_then(|event| {
            results.repair_time_secs(Asn::from_secs(event), ctx.repair_settle_secs * 100)
        });
        let (windowed_pdr_median, windowed_pdr_worst) = match ctx.window_start_slot {
            None => (None, None),
            Some(start) => {
                let mut pdrs: Vec<f64> = results
                    .flows
                    .iter()
                    .zip(specs)
                    .filter_map(|(flow, spec)| {
                        digs::experiment::windowed_flow_pdr(flow, spec, start)
                    })
                    .collect();
                pdrs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                if pdrs.is_empty() {
                    (None, None)
                } else {
                    (Some(digs_metrics::stats::percentile_sorted(&pdrs, 50.0)), Some(pdrs[0]))
                }
            }
        };
        let mut join = digs_metrics::StreamingSummary::new();
        for t in results.join_times_secs() {
            join.push(t);
        }
        let mean_join_secs = join.mean();
        let power = results.power_per_received_packet_mw();
        RunMetrics {
            scenario: scenario.to_string(),
            protocol: protocol.to_string(),
            seed,
            secs,
            pdr: results.network_pdr(),
            worst_flow_pdr: results.worst_flow_pdr(),
            median_latency_ms: results.median_latency_ms(),
            worst_latency_ms,
            duty_cycle_percent: results.mean_duty_cycle_percent(),
            power_per_packet_mw: power.is_finite().then_some(power),
            energy_per_packet_mj,
            repair_time_secs,
            windowed_pdr_median,
            windowed_pdr_worst,
            fraction_joined: results.fraction_joined(),
            mean_join_secs,
            parent_changes: results.parent_change_times.len() as u64,
            retry_drops: results.retry_drops,
            queue_drops: results.queue_drops,
            audit_violations: results.invariant_violations.len() as u64,
            telemetry_epochs: None,
            health_alerts: None,
            epoch_pdr_min: None,
        }
    }

    /// The value of one scalar metric by key, `None` when absent for
    /// this run (so it contributes no sample to the aggregate).
    pub fn metric(&self, key: &str) -> Option<f64> {
        match key {
            "pdr" => Some(self.pdr),
            "worst_flow_pdr" => Some(self.worst_flow_pdr),
            "median_latency_ms" => self.median_latency_ms,
            "worst_latency_ms" => self.worst_latency_ms,
            "duty_cycle_percent" => Some(self.duty_cycle_percent),
            "power_per_packet_mw" => self.power_per_packet_mw,
            "energy_per_packet_mj" => self.energy_per_packet_mj,
            "repair_time_secs" => self.repair_time_secs,
            "windowed_pdr_median" => self.windowed_pdr_median,
            "windowed_pdr_worst" => self.windowed_pdr_worst,
            "fraction_joined" => Some(self.fraction_joined),
            "mean_join_secs" => self.mean_join_secs,
            "parent_changes" => Some(self.parent_changes as f64),
            "retry_drops" => Some(self.retry_drops as f64),
            "queue_drops" => Some(self.queue_drops as f64),
            "audit_violations" => Some(self.audit_violations as f64),
            "telemetry_epochs" => self.telemetry_epochs.map(|v| v as f64),
            "health_alerts" => self.health_alerts.map(|v| v as f64),
            "epoch_pdr_min" => self.epoch_pdr_min,
            _ => None,
        }
    }

    /// The canonical JSON value (fixed field order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("protocol".into(), Value::Str(self.protocol.clone())),
            ("seed".into(), Value::Int(self.seed)),
            ("secs".into(), Value::Int(self.secs)),
            ("pdr".into(), Value::num(self.pdr)),
            ("worst_flow_pdr".into(), Value::num(self.worst_flow_pdr)),
            ("median_latency_ms".into(), Value::opt(self.median_latency_ms)),
            ("worst_latency_ms".into(), Value::opt(self.worst_latency_ms)),
            ("duty_cycle_percent".into(), Value::num(self.duty_cycle_percent)),
            ("power_per_packet_mw".into(), Value::opt(self.power_per_packet_mw)),
            ("energy_per_packet_mj".into(), Value::opt(self.energy_per_packet_mj)),
            ("repair_time_secs".into(), Value::opt(self.repair_time_secs)),
            ("windowed_pdr_median".into(), Value::opt(self.windowed_pdr_median)),
            ("windowed_pdr_worst".into(), Value::opt(self.windowed_pdr_worst)),
            ("fraction_joined".into(), Value::num(self.fraction_joined)),
            ("mean_join_secs".into(), Value::opt(self.mean_join_secs)),
            ("parent_changes".into(), Value::Int(self.parent_changes)),
            ("retry_drops".into(), Value::Int(self.retry_drops)),
            ("queue_drops".into(), Value::Int(self.queue_drops)),
            ("audit_violations".into(), Value::Int(self.audit_violations)),
            ("telemetry_epochs".into(), Value::opt_int(self.telemetry_epochs)),
            ("health_alerts".into(), Value::opt_int(self.health_alerts)),
            ("epoch_pdr_min".into(), Value::opt(self.epoch_pdr_min)),
        ])
    }

    /// One canonical JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decodes a record from its JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn from_value(v: &Value) -> Result<RunMetrics, String> {
        Ok(RunMetrics {
            scenario: v.str("scenario")?.to_string(),
            protocol: v.str("protocol")?.to_string(),
            seed: v.uint("seed")?,
            secs: v.uint("secs")?,
            pdr: v.f64("pdr")?,
            worst_flow_pdr: v.f64("worst_flow_pdr")?,
            median_latency_ms: v.opt_f64("median_latency_ms")?,
            worst_latency_ms: v.opt_f64("worst_latency_ms")?,
            duty_cycle_percent: v.f64("duty_cycle_percent")?,
            power_per_packet_mw: v.opt_f64("power_per_packet_mw")?,
            energy_per_packet_mj: v.opt_f64("energy_per_packet_mj")?,
            repair_time_secs: v.opt_f64("repair_time_secs")?,
            windowed_pdr_median: v.opt_f64("windowed_pdr_median")?,
            windowed_pdr_worst: v.opt_f64("windowed_pdr_worst")?,
            fraction_joined: v.f64("fraction_joined")?,
            mean_join_secs: v.opt_f64("mean_join_secs")?,
            parent_changes: v.uint("parent_changes")?,
            retry_drops: v.uint("retry_drops")?,
            queue_drops: v.uint("queue_drops")?,
            audit_violations: v.uint("audit_violations")?,
            telemetry_epochs: v.opt_uint("telemetry_epochs")?,
            health_alerts: v.opt_uint("health_alerts")?,
            epoch_pdr_min: v.opt_f64("epoch_pdr_min")?,
        })
    }

    /// Parses one canonical JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing field.
    pub fn from_line(line: &str) -> Result<RunMetrics, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        RunMetrics::from_value(&v)
    }
}

/// Encodes records as canonical JSONL (one line each, trailing newline).
pub fn to_jsonl(records: &[RunMetrics]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Parses canonical JSONL back into records (blank lines skipped).
///
/// # Errors
///
/// Returns the first line's error, 1-indexed.
pub fn from_jsonl(text: &str) -> Result<Vec<RunMetrics>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| RunMetrics::from_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs::config::Protocol;
    use digs::flows::flow_set_from_sources;
    use digs_sim::ids::NodeId;
    use digs_sim::topology::Topology;

    fn sample() -> RunMetrics {
        let config = digs::config::NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::Digs)
            .seed(7)
            .flows(flow_set_from_sources(&[NodeId(10), NodeId(15)], 300))
            .build();
        let specs = config.flows.clone();
        let results = digs::experiment::run_for(config, 60);
        RunMetrics::from_results(
            "unit-test",
            "digs",
            7,
            60,
            &results,
            &specs,
            MetricContext {
                repair_event_secs: Some(10),
                repair_settle_secs: 10,
                window_start_slot: Some(1000),
            },
        )
    }

    #[test]
    fn record_round_trips_through_canonical_json() {
        let m = sample();
        let line = m.to_line();
        let back = RunMetrics::from_line(&line).expect("parse back");
        assert_eq!(back, m);
        assert_eq!(back.to_line(), line, "re-encoding is stable");
    }

    #[test]
    fn jsonl_round_trips() {
        let m = sample();
        let records = vec![m.clone(), m];
        let text = to_jsonl(&records);
        assert_eq!(from_jsonl(&text).expect("parse"), records);
    }

    #[test]
    fn every_metric_key_resolves() {
        let m = sample();
        for key in METRIC_KEYS {
            // Keys must at least be known (absent values are fine).
            let _ = m.metric(key);
        }
        assert_eq!(m.metric("no-such-metric"), None);
        assert_eq!(m.metric("pdr"), Some(m.pdr));
    }

    #[test]
    fn absent_metrics_encode_as_null() {
        let mut m = sample();
        m.repair_time_secs = None;
        let line = m.to_line();
        assert!(line.contains("\"repair_time_secs\":null"), "{line}");
        let back = RunMetrics::from_line(&line).unwrap();
        assert_eq!(back.repair_time_secs, None);
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(RunMetrics::from_line("{\"scenario\":\"x\"}").is_err());
        assert!(RunMetrics::from_line("not json").is_err());
    }

    #[test]
    fn integer_fields_are_exact_and_ill_typed_ones_are_named() {
        let mut m = sample();
        m.seed = u64::MAX;
        m.telemetry_epochs = Some((1 << 53) + 1);
        let line = m.to_line();
        assert!(line.contains("\"seed\":18446744073709551615"), "{line}");
        assert_eq!(RunMetrics::from_line(&line).expect("parse back"), m);
        let err = RunMetrics::from_line(&line.replace("18446744073709551615", "-7")).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
