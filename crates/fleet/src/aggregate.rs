//! Fleet-level aggregation: merge per-network summaries into one SLO
//! report, check it against the SLO floors, and render it as canonical
//! JSON (byte-identical for identical spec + seed — wall-clock timings are
//! deliberately excluded) or a human-readable table.

use crate::runner::{DegradedRun, NetworkSummary};
use digs::telemetry::HealthRule;
use digs_json::message;
use digs_json::message::Map;
use digs_metrics::histogram::LogHistogram;
use std::borrow::Cow;

/// How many worst networks the report names.
pub const WORST_K: usize = 5;

// The fleet service-level objectives; a breach makes `digs-cli fleet run`
// exit non-zero (the CI gate). They are calibrated to clean (un-jammed,
// un-faulted) scenarios. The alert ceiling sits above the measured clean
// realization tail: over 600 s, 150 of 1600 template networks (9.4%: 57 of
// 800 oil-field, 93 of 800 factory-floor) raise at least one alert, and the
// first 400 and 42 raise 11.75% and 11.9%. Those alerts are steady-state,
// spread over the whole armed window rather than bunched after the settle
// time: oil-field churn storms of 16–23 parent changes per epoch, and
// factory-floor epochs that deliver 3–5 of their 8 packets. Violations stay
// zero-tolerance because a frozen invariant breach is an incident, not
// noise.

/// Minimum pooled fleet PDR (delivered / generated across every network).
pub const FLEET_PDR_FLOOR: f64 = 0.90;
/// Minimum per-network PDR: the single worst network may not fall below it.
pub const WORST_NETWORK_PDR_FLOOR: f64 = 0.50;
/// Maximum fraction of networks with at least one health alert.
pub const MAX_ALERT_RATE: f64 = 0.15;
/// Maximum fraction of networks with at least one audit violation.
pub const MAX_VIOLATION_RATE: f64 = 0.0;

message! {
    /// The canonical fleet SLO report: `fleet run --report` saves it pretty,
    /// the digsd fleet runner publishes it as one line, and [`render`]
    /// prints it. No wall-clock timing is in it, so two runs of the same
    /// spec + seed write the same bytes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetReport {
        /// Networks aggregated (shards count individually).
        networks: u64,
        /// Total nodes simulated.
        nodes: u64,
        /// Simulated seconds per network.
        secs: u64,
        /// Packets generated fleet-wide.
        generated: u64,
        /// Packets delivered fleet-wide.
        delivered: u64,
        /// Pooled fleet PDR (delivered / generated).
        fleet_pdr: f64,
        /// Mean of per-network PDRs.
        mean_network_pdr: f64,
        /// Mean fraction of nodes joined.
        mean_fraction_joined: f64,
        /// End-to-end latency samples, fleet-wide.
        latency_samples: u64,
        /// Median end-to-end latency, ms (`null` without samples).
        latency_p50_ms: Option<f64>,
        /// 99th-percentile end-to-end latency, ms.
        latency_p99_ms: Option<f64>,
        /// Networks with at least one health alert.
        alert_networks: u64,
        /// Total health alerts.
        total_alerts: u64,
        /// Fleet-wide alerts by rule name, in [`HealthRule::ALL`] order.
        alerts_by_rule: Vec<(Cow<'static, str>, u64)> as Map<u64>,
        /// Networks with at least one audit violation.
        violation_networks: u64,
        /// Total audit violations.
        total_violations: u64,
        /// The worst [`WORST_K`] networks by PDR, ascending.
        worst_networks: Vec<WorstNetwork>,
        /// The [`WORST_K`] networks with the most health alerts,
        /// descending; empty when nothing alerted.
        alerting_networks: Vec<AlertingNetwork>,
        /// The [`WORST_K`] networks with the most audit violations,
        /// descending; empty when nothing violated.
        violating_networks: Vec<ViolatingNetwork>,
        /// Networks the runner could not run cleanly.
        degraded: Degraded,
        /// The verdict against the SLO floors.
        slo: Slo,
    }
}

message! {
    /// One of the worst networks by PDR.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WorstNetwork {
        /// The network's label.
        label: String,
        /// Its PDR.
        pdr: f64,
    }
}

message! {
    /// One of the networks with the most health alerts.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AlertingNetwork {
        /// The network's label.
        label: String,
        /// Its health alerts.
        alerts: u64,
    }
}

message! {
    /// One of the networks with the most audit violations.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ViolatingNetwork {
        /// The network's label.
        label: String,
        /// Its audit violations.
        violations: u64,
    }
}

message! {
    /// The networks the runner could not run cleanly. Quarantined ones
    /// contributed no summary: the rest of the report is partial, and the
    /// SLO gates on them.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Degraded {
        /// Networks skipped by cancellation before they started.
        skipped: u64,
        /// Networks that completed only after at least one retry.
        retried: u64,
        /// Networks quarantined after exhausting their attempts.
        quarantined: u64,
        /// Every retried or quarantined network, in spec order.
        runs: Vec<DegradedRun>,
    }
}

message! {
    /// The report against the SLO floors.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Slo {
        /// Whether nothing was breached.
        passed: bool,
        /// Every breach, in the order the floors are checked.
        breaches: Vec<String>,
    }
}

/// Merges per-network summaries, the runner's degraded list and its skip
/// count into the fleet report, and checks it against the SLO floors, so
/// quarantined and skipped networks gate the SLO instead of vanishing from
/// a silently-partial report. The latency histograms merge per bucket
/// ([`LogHistogram::merge`]), so the fleet quantiles agree with a single
/// histogram fed every network's samples.
pub fn aggregate_partial(
    summaries: &[NetworkSummary],
    secs: u64,
    runs: Vec<DegradedRun>,
    skipped: u64,
) -> FleetReport {
    let mut latency = LogHistogram::new();
    let mut generated = 0u64;
    let mut delivered = 0u64;
    let mut alerts = (0u64, 0u64);
    let mut alert_kind_totals = [0u64; HealthRule::ALL.len()];
    let mut violations = (0u64, 0u64);
    let mut pdr_sum = 0.0;
    let mut joined_sum = 0.0;
    let mut nodes = 0u64;
    for s in summaries {
        latency.merge(&s.latency);
        generated += s.generated;
        delivered += s.delivered;
        alerts = (alerts.0 + u64::from(s.alerts > 0), alerts.1 + s.alerts);
        for (total, kind) in alert_kind_totals.iter_mut().zip(&s.alert_kinds) {
            *total += kind;
        }
        violations = (violations.0 + u64::from(s.violations > 0), violations.1 + s.violations);
        pdr_sum += s.pdr;
        joined_sum += s.fraction_joined;
        nodes += u64::from(s.nodes);
    }
    let n = summaries.len().max(1) as f64;
    let mut worst: Vec<WorstNetwork> =
        summaries.iter().map(|s| WorstNetwork { label: s.label.clone(), pdr: s.pdr }).collect();
    // Ascending by PDR; label breaks ties so the report is deterministic.
    worst.sort_by(|a, b| a.pdr.total_cmp(&b.pdr).then_with(|| a.label.cmp(&b.label)));
    worst.truncate(WORST_K);
    // Descending by count, label breaking ties — deterministic like the
    // worst-PDR table.
    let top_by = |count: fn(&NetworkSummary) -> u64| {
        let mut v: Vec<(String, u64)> = summaries
            .iter()
            .filter(|s| count(s) > 0)
            .map(|s| (s.label.clone(), count(s)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(WORST_K);
        v
    };
    let quarantined = runs.iter().filter(|d| d.quarantined).count() as u64;
    let mut report = FleetReport {
        networks: summaries.len() as u64,
        nodes,
        secs,
        generated,
        delivered,
        fleet_pdr: if generated == 0 { 1.0 } else { delivered as f64 / generated as f64 },
        mean_network_pdr: pdr_sum / n,
        mean_fraction_joined: joined_sum / n,
        latency_samples: latency.count(),
        latency_p50_ms: latency.quantile(50.0),
        latency_p99_ms: latency.quantile(99.0),
        alert_networks: alerts.0,
        total_alerts: alerts.1,
        alerts_by_rule: HealthRule::ALL
            .iter()
            .zip(alert_kind_totals)
            .map(|(rule, n)| (Cow::Borrowed(rule.as_str()), n))
            .collect(),
        violation_networks: violations.0,
        total_violations: violations.1,
        worst_networks: worst,
        alerting_networks: top_by(|s| s.alerts)
            .into_iter()
            .map(|(label, alerts)| AlertingNetwork { label, alerts })
            .collect(),
        violating_networks: top_by(|s| s.violations)
            .into_iter()
            .map(|(label, violations)| ViolatingNetwork { label, violations })
            .collect(),
        degraded: Degraded { skipped, retried: runs.len() as u64 - quarantined, quarantined, runs },
        slo: Slo { passed: true, breaches: Vec::new() },
    };
    let breaches = report.breaches();
    report.slo = Slo { passed: breaches.is_empty(), breaches };
    report
}

/// Test hook mirroring the conformance gate's `--inject-loss`: halve the
/// delivery metrics of summaries whose label contains `pattern`, to
/// demonstrate that a deliberate degradation trips the fleet SLO gate.
pub fn degrade_matching(summaries: &mut [NetworkSummary], pattern: &str) -> usize {
    let mut hit = 0;
    for s in summaries.iter_mut().filter(|s| s.label.contains(pattern)) {
        s.pdr *= 0.5;
        s.worst_flow_pdr *= 0.5;
        s.delivered /= 2;
        hit += 1;
    }
    hit
}

impl FleetReport {
    /// The fraction of networks that `count` of them is.
    fn rate(&self, count: u64) -> f64 {
        count as f64 / self.networks.max(1) as f64
    }

    /// Every SLO floor the report breaches (empty = pass).
    fn breaches(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.fleet_pdr < FLEET_PDR_FLOOR {
            out.push(format!("fleet PDR {:.4} below floor {FLEET_PDR_FLOOR:.4}", self.fleet_pdr));
        }
        if let Some(worst) = self.worst_networks.first() {
            if worst.pdr < WORST_NETWORK_PDR_FLOOR {
                out.push(format!(
                    "worst network `{}` PDR {:.4} below floor {WORST_NETWORK_PDR_FLOOR:.4}",
                    worst.label, worst.pdr
                ));
            }
        }
        let alert_rate = self.rate(self.alert_networks);
        if alert_rate > MAX_ALERT_RATE {
            out.push(format!(
                "{} of {} networks alerting ({alert_rate:.4} > {MAX_ALERT_RATE:.4})",
                self.alert_networks, self.networks
            ));
        }
        let violation_rate = self.rate(self.violation_networks);
        if violation_rate > MAX_VIOLATION_RATE {
            out.push(format!(
                "{} of {} networks with audit violations ({violation_rate:.4} > \
                 {MAX_VIOLATION_RATE:.4})",
                self.violation_networks, self.networks
            ));
        }
        // A partial report must never pass silently: quarantined or
        // skipped networks are missing from every other number above.
        if self.degraded.quarantined > 0 {
            out.push(format!(
                "{} network(s) quarantined after exhausting retries (partial report)",
                self.degraded.quarantined
            ));
        }
        if self.degraded.skipped > 0 {
            out.push(format!(
                "{} network(s) skipped by cancellation (partial report)",
                self.degraded.skipped
            ));
        }
        out
    }
}

/// Renders a fleet report — built in process or decoded from a saved
/// file — as the human-readable table. It is the only renderer, so a saved
/// report prints exactly what its run printed.
pub fn render(report: &FleetReport) -> String {
    use std::fmt::Write;
    let ms = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0} ms"));
    let mut out = String::new();
    let _ = writeln!(out, "fleet SLO report");
    let _ = writeln!(
        out,
        "  networks        : {} ({} nodes, {} s simulated each)",
        report.networks, report.nodes, report.secs
    );
    let _ = writeln!(
        out,
        "  fleet PDR       : {:.4} ({} / {} packets; mean network {:.4})",
        report.fleet_pdr, report.delivered, report.generated, report.mean_network_pdr
    );
    let _ = writeln!(
        out,
        "  e2e latency     : p50 {} / p99 {} ({} samples)",
        ms(report.latency_p50_ms),
        ms(report.latency_p99_ms),
        report.latency_samples
    );
    let _ = writeln!(out, "  joined          : {:.3} mean fraction", report.mean_fraction_joined);
    let _ = writeln!(
        out,
        "  health alerts   : {} network(s), {} alert(s) (rate {:.4})",
        report.alert_networks,
        report.total_alerts,
        report.rate(report.alert_networks)
    );
    if report.total_alerts > 0 {
        let kinds: Vec<String> = report
            .alerts_by_rule
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(rule, n)| format!("{rule} {n}"))
            .collect();
        let _ = writeln!(out, "    by rule: {}", kinds.join(", "));
    }
    let _ = writeln!(
        out,
        "  audit violations: {} network(s), {} violation(s) (rate {:.4})",
        report.violation_networks,
        report.total_violations,
        report.rate(report.violation_networks)
    );
    let _ = writeln!(out, "  worst networks  :");
    for w in &report.worst_networks {
        let _ = writeln!(out, "    {:.4}  {}", w.pdr, w.label);
    }
    let alerting: Vec<(u64, &str)> =
        report.alerting_networks.iter().map(|w| (w.alerts, w.label.as_str())).collect();
    let violating: Vec<(u64, &str)> =
        report.violating_networks.iter().map(|w| (w.violations, w.label.as_str())).collect();
    for (header, rows) in [("  most alerting   :", alerting), ("  violating       :", violating)] {
        if !rows.is_empty() {
            let _ = writeln!(out, "{header}");
            for (count, label) in rows {
                let _ = writeln!(out, "    {count:>6}  {label}");
            }
        }
    }
    let degraded = &report.degraded;
    if !degraded.runs.is_empty() || degraded.skipped > 0 {
        let _ = writeln!(
            out,
            "  degraded        : {} skipped, {} retried, {} quarantined",
            degraded.skipped, degraded.retried, degraded.quarantined
        );
        for d in &degraded.runs {
            let state = if d.quarantined { "quarantined" } else { "recovered" };
            let _ =
                writeln!(out, "    {state}  {} (attempt(s) {}: {})", d.label, d.attempts, d.reason);
        }
    }
    let _ = writeln!(
        out,
        "  SLO             : {}",
        if report.slo.passed { "PASSED" } else { "FAILED" }
    );
    for b in &report.slo.breaches {
        let _ = writeln!(out, "    breach: {b}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_json::message::Rows;
    use digs_json::Value;

    fn summary(label: &str, pdr: f64, alerts: u64, violations: u64) -> NetworkSummary {
        let mut latency = LogHistogram::new();
        for v in [100, 200, 400] {
            latency.record(v);
        }
        NetworkSummary {
            label: label.into(),
            nodes: 47,
            flows: 6,
            generated: 100,
            delivered: (100.0 * pdr) as u64,
            pdr,
            worst_flow_pdr: pdr * 0.9,
            fraction_joined: 1.0,
            alerts,
            alert_kinds: [0, alerts, 0, 0],
            violations,
            latency,
        }
    }

    fn aggregate(summaries: &[NetworkSummary], secs: u64) -> FleetReport {
        aggregate_partial(summaries, secs, Vec::new(), 0)
    }

    #[test]
    fn aggregation_pools_and_ranks() {
        let summaries =
            vec![summary("a", 0.99, 0, 0), summary("b", 0.80, 1, 0), summary("c", 0.95, 0, 2)];
        let report = aggregate(&summaries, 120);
        assert_eq!(report.networks, 3);
        assert_eq!(report.nodes, 141);
        assert_eq!(report.generated, 300);
        assert_eq!(report.delivered, 99 + 80 + 95);
        assert_eq!(report.alert_networks, 1);
        let by_rule: Vec<u64> = report.alerts_by_rule.iter().map(|(_, n)| *n).collect();
        assert_eq!(by_rule, [0, 1, 0, 0]);
        assert_eq!(report.violation_networks, 1);
        assert_eq!(report.total_violations, 2);
        assert_eq!(
            report.alerting_networks,
            vec![AlertingNetwork { label: "b".into(), alerts: 1 }]
        );
        assert_eq!(
            report.violating_networks,
            vec![ViolatingNetwork { label: "c".into(), violations: 2 }]
        );
        assert_eq!(report.latency_samples, 9, "histograms merge");
        assert_eq!(report.worst_networks[0], WorstNetwork { label: "b".into(), pdr: 0.80 });
        assert!((report.mean_network_pdr - (0.99 + 0.80 + 0.95) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn worst_list_is_deterministic_under_ties() {
        let summaries = vec![summary("z", 0.9, 0, 0), summary("a", 0.9, 0, 0)];
        let report = aggregate(&summaries, 60);
        assert_eq!(report.worst_networks[0].label, "a", "label breaks PDR ties");
    }

    #[test]
    fn slo_breaches_trip_on_each_axis() {
        let clean = aggregate(&[summary("a", 0.99, 0, 0)], 60);
        assert!(clean.slo.passed && clean.slo.breaches.is_empty());

        let lossy = aggregate(&[summary("a", 0.40, 0, 0)], 60);
        let breaches = &lossy.slo.breaches;
        assert!(!lossy.slo.passed);
        assert!(breaches.iter().any(|b| b.contains("fleet PDR")), "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("worst network")), "{breaches:?}");

        let alerting = aggregate(&[summary("a", 0.99, 3, 0)], 60);
        assert!(alerting.slo.breaches.iter().any(|b| b.contains("alerting")));

        let violating = aggregate(&[summary("a", 0.99, 0, 1)], 60);
        assert!(violating.slo.breaches.iter().any(|b| b.contains("audit violations")));
    }

    #[test]
    fn degrade_halves_matching_labels_and_trips_the_gate() {
        let mut summaries = vec![summary("oil-field-0000/seed1", 0.99, 0, 0)];
        assert_eq!(degrade_matching(&mut summaries, "factory"), 0);
        assert_eq!(degrade_matching(&mut summaries, "oil-field"), 1);
        assert!((summaries[0].pdr - 0.495).abs() < 1e-12);
        let report = aggregate(&summaries, 60);
        assert!(!report.slo.passed);
    }

    #[test]
    fn quarantined_and_skipped_networks_gate_the_partial_report() {
        let degraded = vec![
            DegradedRun {
                label: "oil-field-0003/seed4".into(),
                reason: "timeout at asn 1200".into(),
                attempts: 2,
                quarantined: true,
            },
            DegradedRun {
                label: "oil-field-0005/seed6".into(),
                reason: "timeout at asn 800".into(),
                attempts: 2,
                quarantined: false,
            },
        ];
        let report = aggregate_partial(&[summary("a", 0.99, 0, 0)], 60, degraded, 3);
        assert_eq!(report.degraded.quarantined, 1);
        assert_eq!(report.degraded.retried, 1);
        let breaches = &report.slo.breaches;
        assert!(breaches.iter().any(|b| b.contains("quarantined")), "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("skipped")), "{breaches:?}");
        assert_eq!(breaches.len(), 2, "a recovered retry alone must not breach: {breaches:?}");

        let json = report.to_json_line();
        assert!(json.contains("\"degraded\":{\"skipped\":3,\"retried\":1,\"quarantined\":1"));
        assert!(json.contains("oil-field-0003/seed4"));
        let rendered = render(&report);
        assert!(rendered.contains("quarantined"), "{rendered}");
        assert!(rendered.contains("FAILED"), "{rendered}");

        // A clean report serializes an empty degraded section and passes.
        let clean = aggregate(&[summary("a", 0.99, 0, 0)], 60);
        assert!(clean.slo.passed);
        assert!(clean
            .to_json_line()
            .contains("\"degraded\":{\"skipped\":0,\"retried\":0,\"quarantined\":0,\"runs\":[]}"));
    }

    #[test]
    fn a_saved_report_renders_what_its_run_rendered() {
        let summaries =
            vec![summary("a", 0.99, 0, 0), summary("b", 0.80, 2, 0), summary("c", 0.95, 0, 3)];
        let degraded = vec![
            DegradedRun {
                label: "d".into(),
                reason: "timeout at asn 900".into(),
                attempts: 2,
                quarantined: false,
            },
            DegradedRun {
                label: "e".into(),
                reason: "panicked: \"boom\"".into(),
                attempts: 3,
                quarantined: true,
            },
        ];
        let report = aggregate_partial(&summaries, 60, degraded, 2);
        assert!(!report.worst_networks.is_empty() && !report.alerting_networks.is_empty());
        assert!(!report.violating_networks.is_empty());
        let text = render(&report);
        let saved = digs_json::parse(&(report.to_value().to_pretty() + "\n")).unwrap();
        assert_eq!(FleetReport::take_fields(&saved).as_ref(), Ok(&report));
        for section in [
            "joined          : 1.000",
            "by rule: churn-storm 2",
            "most alerting   :\n         2  b",
            "violating       :\n         3  c",
            "degraded        : 2 skipped, 1 retried, 1 quarantined",
            "recovered  d (attempt(s) 2: timeout at asn 900)",
            "quarantined  e (attempt(s) 3: panicked: \"boom\")",
            "SLO             : FAILED",
        ] {
            assert!(text.contains(section), "missing `{section}` in\n{text}");
        }
        for breach in &report.slo.breaches {
            assert!(text.contains(&format!("    breach: {breach}\n")), "{text}");
        }

        let mut broken = saved;
        if let Value::Obj(fields) = &mut broken {
            fields.retain(|(k, _)| k != "latency_samples");
        }
        assert_eq!(
            FleetReport::take_fields(&broken).unwrap_err(),
            "missing field `latency_samples`"
        );
    }

    #[test]
    fn json_is_deterministic_and_excludes_wall_clock() {
        let summaries = vec![summary("a", 0.99, 0, 0), summary("b", 0.95, 0, 0)];
        let a = aggregate(&summaries, 120).to_json_line();
        let b = aggregate(&summaries, 120).to_json_line();
        assert_eq!(a, b);
        assert!(a.contains("\"fleet_pdr\""));
        assert!(a.contains("\"slo\""));
        assert!(!a.contains("wall"), "timings must not leak into the canonical report");
    }
}
