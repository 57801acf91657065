//! Fleet-level aggregation: merge per-network summaries into one SLO
//! report, check it against a policy, and render it as canonical JSON
//! (byte-identical for identical spec + seed — wall-clock timings are
//! deliberately excluded) or a human-readable table.

use crate::runner::{DegradedRun, NetworkSummary};
use digs::telemetry::HealthRule;
use digs_json::Value;
use digs_metrics::histogram::LogHistogram;

/// How many worst networks the report names.
pub const WORST_K: usize = 5;

/// Fleet service-level objectives. A breach makes `digs-cli fleet run`
/// exit non-zero (the CI gate).
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Minimum pooled fleet PDR (delivered / generated across every
    /// network).
    pub fleet_pdr_floor: f64,
    /// Minimum per-network PDR — the single worst network may not fall
    /// below this.
    pub worst_network_pdr_floor: f64,
    /// Maximum fraction of networks with at least one health alert.
    pub max_alert_rate: f64,
    /// Maximum fraction of networks with at least one audit violation.
    pub max_violation_rate: f64,
}

impl SloPolicy {
    /// Defaults calibrated to clean (un-jammed, un-faulted) scenarios:
    /// pooled PDR ≥ 0.90, no network below 0.50, at most 15% of networks
    /// alerting, zero invariant violations anywhere. The alert ceiling
    /// sits above the measured clean realization tail: over 600 s, 150 of
    /// 1600 template networks (9.4%: 57 of 800 oil-field, 93 of 800
    /// factory-floor) raise at least one alert, and the first 400 and 42
    /// raise 11.75% and 11.9%. Those alerts are steady-state, spread over
    /// the whole armed window rather than bunched after the settle time:
    /// oil-field churn storms of 16–23 parent changes per epoch, and
    /// factory-floor epochs that deliver 3–5 of their 8 packets.
    /// Violations stay zero-tolerance because a frozen invariant breach is
    /// an incident, not noise.
    pub fn new() -> SloPolicy {
        SloPolicy {
            fleet_pdr_floor: 0.90,
            worst_network_pdr_floor: 0.50,
            max_alert_rate: 0.15,
            max_violation_rate: 0.0,
        }
    }
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy::new()
    }
}

/// The aggregated fleet SLO report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Networks aggregated (shards count individually).
    pub networks: u64,
    /// Total nodes simulated.
    pub nodes: u64,
    /// Simulated seconds per network.
    pub secs: u64,
    /// Packets generated fleet-wide.
    pub generated: u64,
    /// Packets delivered fleet-wide.
    pub delivered: u64,
    /// Pooled fleet PDR (delivered / generated).
    pub fleet_pdr: f64,
    /// Mean of per-network PDRs.
    pub mean_network_pdr: f64,
    /// Mean fraction of nodes joined.
    pub mean_fraction_joined: f64,
    /// Merged end-to-end latency histogram, ms.
    pub latency: LogHistogram,
    /// Networks with at least one health alert.
    pub alert_networks: u64,
    /// Total health alerts.
    pub total_alerts: u64,
    /// Fleet-wide alerts by rule, in [`HealthRule::ALL`] order.
    pub alert_kind_totals: [u64; HealthRule::ALL.len()],
    /// Networks with at least one audit violation.
    pub violation_networks: u64,
    /// Total audit violations.
    pub total_violations: u64,
    /// The worst [`WORST_K`] networks by PDR (label, pdr), ascending.
    pub worst: Vec<(String, f64)>,
    /// The [`WORST_K`] networks with the most health alerts
    /// (label, alerts), descending — empty when nothing alerted.
    pub alerting: Vec<(String, u64)>,
    /// The [`WORST_K`] networks with the most audit violations
    /// (label, violations), descending — empty when nothing violated.
    pub violating: Vec<(String, u64)>,
    /// Networks the runner could not run cleanly (retried or
    /// quarantined), in spec order. Quarantined entries contributed no
    /// summary: the rest of the report is partial, and [`Self::breaches`]
    /// gates on them.
    pub degraded: Vec<DegradedRun>,
    /// Networks skipped by cancellation before they started.
    pub skipped: u64,
}

/// Merges per-network summaries into the fleet report. The latency
/// histograms merge per-bucket ([`LogHistogram::merge`]), so the fleet
/// quantiles agree with a single histogram fed every network's samples.
pub fn aggregate(summaries: &[NetworkSummary], secs: u64) -> FleetReport {
    aggregate_partial(summaries, secs, Vec::new(), 0)
}

/// [`aggregate`] for a degraded fleet run: carries the runner's degraded
/// list and skip count into the report, so quarantined and skipped
/// networks gate the SLO instead of vanishing from a silently-partial
/// report.
pub fn aggregate_partial(
    summaries: &[NetworkSummary],
    secs: u64,
    degraded: Vec<DegradedRun>,
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
    let mut by_pdr: Vec<(String, f64)> =
        summaries.iter().map(|s| (s.label.clone(), s.pdr)).collect();
    // Ascending by PDR; label breaks ties so the report is deterministic.
    by_pdr.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    by_pdr.truncate(WORST_K);
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
    FleetReport {
        networks: summaries.len() as u64,
        nodes,
        secs,
        generated,
        delivered,
        fleet_pdr: if generated == 0 { 1.0 } else { delivered as f64 / generated as f64 },
        mean_network_pdr: pdr_sum / n,
        mean_fraction_joined: joined_sum / n,
        latency,
        alert_networks: alerts.0,
        total_alerts: alerts.1,
        alert_kind_totals,
        violation_networks: violations.0,
        total_violations: violations.1,
        worst: by_pdr,
        alerting: top_by(|s| s.alerts),
        violating: top_by(|s| s.violations),
        degraded,
        skipped,
    }
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
    /// Fraction of networks with at least one health alert.
    pub fn alert_rate(&self) -> f64 {
        self.alert_networks as f64 / self.networks.max(1) as f64
    }

    /// Fraction of networks with at least one audit violation.
    pub fn violation_rate(&self) -> f64 {
        self.violation_networks as f64 / self.networks.max(1) as f64
    }

    /// Networks quarantined after exhausting their attempts.
    pub fn quarantined_count(&self) -> u64 {
        self.degraded.iter().filter(|d| d.quarantined).count() as u64
    }

    /// Networks that completed only after at least one retry.
    pub fn retried_count(&self) -> u64 {
        self.degraded.iter().filter(|d| !d.quarantined).count() as u64
    }

    /// Every SLO the report breaches under `policy` (empty = pass).
    pub fn breaches(&self, policy: &SloPolicy) -> Vec<String> {
        let mut out = Vec::new();
        if self.fleet_pdr < policy.fleet_pdr_floor {
            out.push(format!(
                "fleet PDR {:.4} below floor {:.4}",
                self.fleet_pdr, policy.fleet_pdr_floor
            ));
        }
        if let Some((label, pdr)) = self.worst.first() {
            if *pdr < policy.worst_network_pdr_floor {
                out.push(format!(
                    "worst network `{label}` PDR {:.4} below floor {:.4}",
                    pdr, policy.worst_network_pdr_floor
                ));
            }
        }
        if self.alert_rate() > policy.max_alert_rate {
            out.push(format!(
                "{} of {} networks alerting ({:.4} > {:.4})",
                self.alert_networks,
                self.networks,
                self.alert_rate(),
                policy.max_alert_rate
            ));
        }
        if self.violation_rate() > policy.max_violation_rate {
            out.push(format!(
                "{} of {} networks with audit violations ({:.4} > {:.4})",
                self.violation_networks,
                self.networks,
                self.violation_rate(),
                policy.max_violation_rate
            ));
        }
        // A partial report must never pass silently: quarantined or
        // skipped networks are missing from every other number above.
        let quarantined = self.quarantined_count();
        if quarantined > 0 {
            out.push(format!(
                "{quarantined} network(s) quarantined after exhausting retries (partial report)"
            ));
        }
        if self.skipped > 0 {
            out.push(format!(
                "{} network(s) skipped by cancellation (partial report)",
                self.skipped
            ));
        }
        out
    }

    /// The canonical JSON form — deterministic field order, no wall-clock
    /// timings, so two runs of the same spec + seed serialize to the same
    /// bytes.
    pub fn to_json(&self, policy: &SloPolicy) -> Value {
        let breaches = self.breaches(policy);
        let q = |p: f64| Value::opt(self.latency.quantile(p));
        Value::Obj(vec![
            ("networks".into(), Value::Int(self.networks)),
            ("nodes".into(), Value::Int(self.nodes)),
            ("secs".into(), Value::Int(self.secs)),
            ("generated".into(), Value::Int(self.generated)),
            ("delivered".into(), Value::Int(self.delivered)),
            ("fleet_pdr".into(), Value::num(self.fleet_pdr)),
            ("mean_network_pdr".into(), Value::num(self.mean_network_pdr)),
            ("mean_fraction_joined".into(), Value::num(self.mean_fraction_joined)),
            ("latency_samples".into(), Value::Int(self.latency.count())),
            ("latency_p50_ms".into(), q(50.0)),
            ("latency_p99_ms".into(), q(99.0)),
            ("alert_networks".into(), Value::Int(self.alert_networks)),
            ("total_alerts".into(), Value::Int(self.total_alerts)),
            (
                "alerts_by_rule".into(),
                Value::Obj(
                    HealthRule::ALL
                        .iter()
                        .zip(&self.alert_kind_totals)
                        .map(|(rule, &n)| (rule.as_str().to_string(), Value::Int(n)))
                        .collect(),
                ),
            ),
            ("violation_networks".into(), Value::Int(self.violation_networks)),
            ("total_violations".into(), Value::Int(self.total_violations)),
            (
                "worst_networks".into(),
                Value::Arr(
                    self.worst
                        .iter()
                        .map(|(label, pdr)| {
                            Value::Obj(vec![
                                ("label".into(), Value::Str(label.clone())),
                                ("pdr".into(), Value::num(*pdr)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "alerting_networks".into(),
                Value::Arr(
                    self.alerting
                        .iter()
                        .map(|(label, n)| {
                            Value::Obj(vec![
                                ("label".into(), Value::Str(label.clone())),
                                ("alerts".into(), Value::Int(*n)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "violating_networks".into(),
                Value::Arr(
                    self.violating
                        .iter()
                        .map(|(label, n)| {
                            Value::Obj(vec![
                                ("label".into(), Value::Str(label.clone())),
                                ("violations".into(), Value::Int(*n)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "degraded".into(),
                Value::Obj(vec![
                    ("skipped".into(), Value::Int(self.skipped)),
                    ("retried".into(), Value::Int(self.retried_count())),
                    ("quarantined".into(), Value::Int(self.quarantined_count())),
                    (
                        "runs".into(),
                        Value::Arr(
                            self.degraded
                                .iter()
                                .map(|d| {
                                    Value::Obj(vec![
                                        ("label".into(), Value::Str(d.label.clone())),
                                        ("reason".into(), Value::Str(d.reason.clone())),
                                        ("attempts".into(), Value::Int(u64::from(d.attempts))),
                                        ("quarantined".into(), Value::Bool(d.quarantined)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "slo".into(),
                Value::Obj(vec![
                    ("passed".into(), Value::Bool(breaches.is_empty())),
                    ("breaches".into(), Value::Arr(breaches.into_iter().map(Value::Str).collect())),
                ]),
            ),
        ])
    }
}

/// Renders a canonical fleet report — the [`FleetReport::to_json`] value,
/// built in process or parsed back from a saved file — as the
/// human-readable table. It is the only renderer, so a saved report
/// prints exactly what its run printed. A missing or mistyped field is an
/// error naming it.
pub fn render(report: &Value) -> Result<String, String> {
    use std::fmt::Write;
    let int = |v: &Value, key: &str| v.uint::<u64>(key);
    let networks = int(report, "networks")?;
    let rate = |n: u64| n as f64 / networks.max(1) as f64;
    let ms = |key: &str| -> Result<String, String> {
        Ok(report.opt_f64(key)?.map_or("-".to_string(), |v| format!("{v:.0} ms")))
    };
    let mut out = String::new();
    let _ = writeln!(out, "fleet SLO report");
    let _ = writeln!(
        out,
        "  networks        : {networks} ({} nodes, {} s simulated each)",
        int(report, "nodes")?,
        int(report, "secs")?
    );
    let _ = writeln!(
        out,
        "  fleet PDR       : {:.4} ({} / {} packets; mean network {:.4})",
        report.f64("fleet_pdr")?,
        int(report, "delivered")?,
        int(report, "generated")?,
        report.f64("mean_network_pdr")?
    );
    let _ = writeln!(
        out,
        "  e2e latency     : p50 {} / p99 {} ({} samples)",
        ms("latency_p50_ms")?,
        ms("latency_p99_ms")?,
        int(report, "latency_samples")?
    );
    let _ = writeln!(
        out,
        "  joined          : {:.3} mean fraction",
        report.f64("mean_fraction_joined")?
    );
    let (alert_networks, total_alerts) =
        (int(report, "alert_networks")?, int(report, "total_alerts")?);
    let _ = writeln!(
        out,
        "  health alerts   : {alert_networks} network(s), {total_alerts} alert(s) (rate {:.4})",
        rate(alert_networks)
    );
    if total_alerts > 0 {
        let by_rule = report.req("alerts_by_rule")?;
        let mut kinds = Vec::new();
        for rule in HealthRule::ALL {
            let n = int(by_rule, rule.as_str())?;
            if n > 0 {
                kinds.push(format!("{} {n}", rule.as_str()));
            }
        }
        let _ = writeln!(out, "    by rule: {}", kinds.join(", "));
    }
    let violation_networks = int(report, "violation_networks")?;
    let _ = writeln!(
        out,
        "  audit violations: {violation_networks} network(s), {} violation(s) (rate {:.4})",
        int(report, "total_violations")?,
        rate(violation_networks)
    );
    let _ = writeln!(out, "  worst networks  :");
    for w in report.arr("worst_networks")? {
        let _ = writeln!(out, "    {:.4}  {}", w.f64("pdr")?, w.str("label")?);
    }
    for (key, header, count) in [
        ("alerting_networks", "  most alerting   :", "alerts"),
        ("violating_networks", "  violating       :", "violations"),
    ] {
        let rows = report.arr(key)?;
        if !rows.is_empty() {
            let _ = writeln!(out, "{header}");
            for w in rows {
                let _ = writeln!(out, "    {:>6}  {}", int(w, count)?, w.str("label")?);
            }
        }
    }
    let degraded = report.req("degraded")?;
    let (skipped, runs) = (int(degraded, "skipped")?, degraded.arr("runs")?);
    if !runs.is_empty() || skipped > 0 {
        let _ = writeln!(
            out,
            "  degraded        : {skipped} skipped, {} retried, {} quarantined",
            int(degraded, "retried")?,
            int(degraded, "quarantined")?
        );
        for d in runs {
            let state = if d.bool("quarantined")? { "quarantined" } else { "recovered" };
            let _ = writeln!(
                out,
                "    {state}  {} (attempt(s) {}: {})",
                d.str("label")?,
                int(d, "attempts")?,
                d.str("reason")?
            );
        }
    }
    let slo = report.req("slo")?;
    let _ = writeln!(
        out,
        "  SLO             : {}",
        if slo.bool("passed")? { "PASSED" } else { "FAILED" }
    );
    for b in slo.arr("breaches")? {
        let _ = writeln!(out, "    breach: {}", b.as_str().ok_or("`breaches` holds a non-string")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(report.alert_kind_totals, [0, 1, 0, 0]);
        assert_eq!(report.violation_networks, 1);
        assert_eq!(report.total_violations, 2);
        assert_eq!(report.alerting, vec![("b".to_string(), 1)]);
        assert_eq!(report.violating, vec![("c".to_string(), 2)]);
        assert_eq!(report.latency.count(), 9, "histograms merge");
        assert_eq!(report.worst[0], ("b".to_string(), 0.80));
        assert!((report.mean_network_pdr - (0.99 + 0.80 + 0.95) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn worst_list_is_deterministic_under_ties() {
        let summaries = vec![summary("z", 0.9, 0, 0), summary("a", 0.9, 0, 0)];
        let report = aggregate(&summaries, 60);
        assert_eq!(report.worst[0].0, "a", "label breaks PDR ties");
    }

    #[test]
    fn slo_breaches_trip_on_each_axis() {
        let clean = aggregate(&[summary("a", 0.99, 0, 0)], 60);
        assert!(clean.breaches(&SloPolicy::new()).is_empty());

        let lossy = aggregate(&[summary("a", 0.40, 0, 0)], 60);
        let breaches = lossy.breaches(&SloPolicy::new());
        assert!(breaches.iter().any(|b| b.contains("fleet PDR")), "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("worst network")), "{breaches:?}");

        let alerting = aggregate(&[summary("a", 0.99, 3, 0)], 60);
        assert!(alerting.breaches(&SloPolicy::new()).iter().any(|b| b.contains("alerting")));

        let violating = aggregate(&[summary("a", 0.99, 0, 1)], 60);
        assert!(violating
            .breaches(&SloPolicy::new())
            .iter()
            .any(|b| b.contains("audit violations")));
    }

    #[test]
    fn degrade_halves_matching_labels_and_trips_the_gate() {
        let mut summaries = vec![summary("oil-field-0000/seed1", 0.99, 0, 0)];
        assert_eq!(degrade_matching(&mut summaries, "factory"), 0);
        assert_eq!(degrade_matching(&mut summaries, "oil-field"), 1);
        assert!((summaries[0].pdr - 0.495).abs() < 1e-12);
        let report = aggregate(&summaries, 60);
        assert!(!report.breaches(&SloPolicy::new()).is_empty());
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
        assert_eq!(report.quarantined_count(), 1);
        assert_eq!(report.retried_count(), 1);
        let breaches = report.breaches(&SloPolicy::new());
        assert!(breaches.iter().any(|b| b.contains("quarantined")), "{breaches:?}");
        assert!(breaches.iter().any(|b| b.contains("skipped")), "{breaches:?}");
        assert_eq!(breaches.len(), 2, "a recovered retry alone must not breach: {breaches:?}");

        let json = report.to_json(&SloPolicy::new()).to_compact();
        assert!(json.contains("\"degraded\":{\"skipped\":3,\"retried\":1,\"quarantined\":1"));
        assert!(json.contains("oil-field-0003/seed4"));
        let rendered = render(&report.to_json(&SloPolicy::new())).unwrap();
        assert!(rendered.contains("quarantined"), "{rendered}");
        assert!(rendered.contains("FAILED"), "{rendered}");

        // A clean report serializes an empty degraded section and passes.
        let clean = aggregate(&[summary("a", 0.99, 0, 0)], 60);
        assert!(clean.breaches(&SloPolicy::new()).is_empty());
        assert!(clean
            .to_json(&SloPolicy::new())
            .to_compact()
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
        assert!(!report.worst.is_empty() && !report.alerting.is_empty());
        assert!(!report.violating.is_empty());
        let json = report.to_json(&SloPolicy::new());
        let text = render(&json).unwrap();
        let saved = digs_json::parse(&(json.to_pretty() + "\n")).unwrap();
        assert_eq!(render(&saved).unwrap(), text);
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
        for breach in report.breaches(&SloPolicy::new()) {
            assert!(text.contains(&format!("    breach: {breach}\n")), "{text}");
        }

        let mut broken = saved;
        if let Value::Obj(fields) = &mut broken {
            fields.retain(|(k, _)| k != "latency_samples");
        }
        assert_eq!(render(&broken).unwrap_err(), "missing field `latency_samples`");
    }

    #[test]
    fn json_is_deterministic_and_excludes_wall_clock() {
        let summaries = vec![summary("a", 0.99, 0, 0), summary("b", 0.95, 0, 0)];
        let report = aggregate(&summaries, 120);
        let a = report.to_json(&SloPolicy::new()).to_compact();
        let b = aggregate(&summaries, 120).to_json(&SloPolicy::new()).to_compact();
        assert_eq!(a, b);
        assert!(a.contains("\"fleet_pdr\""));
        assert!(a.contains("\"slo\""));
        assert!(!a.contains("wall"), "timings must not leak into the canonical report");
    }
}
