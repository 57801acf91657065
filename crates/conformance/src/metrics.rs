//! The canonical per-run metric record.
//!
//! Every simulation in the conformance matrix reduces to one
//! [`RunMetrics`] record: the paper's headline metrics plus the robustness
//! counters. (`digs-cli figures` reads the runs' `RunResults` instead, for
//! what a record does not carry: latency and join-time distributions, the
//! per-flow PDRs, the duty cycle per packet.)
//! The record is declared by its rows ([`digs_json::message`](mod@digs_json::message)), and its
//! JSON encoding is canonical (fixed field order, shortest round-trip
//! floats, `null` for absent values), so identical runs produce
//! byte-identical lines; the double-run determinism test pins exactly that.

use digs::flows::FlowSpec;
use digs::results::RunResults;
use digs_json::message::{decode_line, FieldDef, Rows};
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

digs_json::message! {
    /// One run's canonical metrics. The rows' order is the canonical JSON
    /// field order; a non-finite number is written `null`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunMetrics {
        /// Scenario name (matrix key, e.g. `fig09-digs`).
        scenario: String,
        /// Protocol short name.
        protocol: String,
        /// Flow-set seed of the run.
        seed: u64,
        /// Simulated seconds.
        secs: u64,
        /// Mean per-flow PDR (the paper's flow-set PDR).
        pdr: f64,
        /// Worst per-flow PDR.
        worst_flow_pdr: f64,
        /// Median end-to-end latency, ms (`None` if nothing delivered).
        median_latency_ms: Option<f64>,
        /// Worst-case end-to-end latency across all flows, ms.
        worst_latency_ms: Option<f64>,
        /// Mean per-node radio duty cycle, percent.
        duty_cycle_percent: f64,
        /// Network radio power per delivered packet, mW (`None` when nothing
        /// was delivered — the metric is infinite there).
        power_per_packet_mw: Option<f64>,
        /// Radio energy per delivered packet, mJ (`None` as above).
        energy_per_packet_mj: Option<f64>,
        /// Repair time after the scenario's disturbance, seconds (`None`
        /// without a disturbance or without repair activity).
        repair_time_secs: Option<f64>,
        /// Median per-flow PDR inside the disturbance window (Fig. 5).
        windowed_pdr_median: Option<f64>,
        /// Worst per-flow PDR inside the disturbance window.
        windowed_pdr_worst: Option<f64>,
        /// Fraction of nodes that joined.
        fraction_joined: f64,
        /// Mean join time over joined nodes, seconds (Fig. 13).
        mean_join_secs: Option<f64>,
        /// Parent-set changes across all nodes.
        parent_changes: u64,
        /// Packets dropped after exhausting retries.
        retry_drops: u64,
        /// Packets dropped on queue overflow.
        queue_drops: u64,
        /// Invariant violations recorded by the runtime auditor (0 for
        /// unaudited runs).
        audit_violations: u64,
        /// Telemetry epochs sampled (`None` when telemetry was off — the
        /// golden aggregator skips absent metrics, so gate runs with
        /// telemetry pinned off are unaffected).
        telemetry_epochs: Option<u64>,
        /// Health alerts the telemetry monitor raised (`None` as above).
        health_alerts: Option<u64>,
        /// Lowest non-idle epoch PDR the telemetry stream saw (`None` when
        /// telemetry was off or no epoch carried traffic).
        epoch_pdr_min: Option<f64>,
    }
}

impl RunMetrics {
    /// The scalar metrics a golden aggregates: every row after `secs`, in
    /// canonical order.
    pub fn metric_rows() -> &'static [FieldDef] {
        let secs = RunMetrics::FIELDS.iter().position(|f| f.key == "secs").expect("a `secs` row");
        &RunMetrics::FIELDS[secs + 1..]
    }

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

    /// One canonical JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json_line()
    }

    /// Parses one canonical JSONL line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, or naming the first missing or
    /// ill-typed field.
    pub fn from_line(line: &str) -> Result<RunMetrics, String> {
        decode_line(line, RunMetrics::take_fields)
    }
}

/// Encodes records as canonical JSONL (one line each, trailing newline).
pub fn to_jsonl(records: &[RunMetrics]) -> String {
    let mut out = String::new();
    for r in records {
        r.write_json(&mut out);
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
        let mut network = digs::network::Network::new(config);
        network.run_secs(60);
        let results = network.results();
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
    fn the_metrics_are_the_rows_after_secs() {
        let keys: Vec<&str> = RunMetrics::metric_rows().iter().map(|f| f.key).collect();
        assert_eq!((keys.len(), keys[0], keys[18]), (19, "pdr", "epoch_pdr_min"));
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
