//! The fleet SLO report's bytes, pinned: one report that reaches every
//! section and one with no latency samples, each as the pretty JSON
//! `fleet run --report` saves, the compact line digsd publishes as the
//! fleet run's final `meta` frame, and the text `fleet run` prints.

use digs_fleet::{aggregate_partial, DegradedRun, FleetReport, NetworkSummary};
use digs_json::message::Rows;
use digs_metrics::histogram::LogHistogram;

fn pretty(report: &FleetReport) -> String {
    report.to_value().to_pretty()
}

fn line(report: &FleetReport) -> String {
    report.to_json_line()
}

fn text(report: &FleetReport) -> String {
    digs_fleet::render(report)
}

fn summary(
    label: &str,
    delivered: u64,
    alert_kinds: [u64; 4],
    violations: u64,
    latencies: &[u64],
) -> NetworkSummary {
    let mut latency = LogHistogram::new();
    for &ms in latencies {
        latency.record(ms);
    }
    NetworkSummary {
        label: label.into(),
        nodes: 47,
        flows: 6,
        generated: 120,
        delivered,
        pdr: delivered as f64 / 120.0,
        worst_flow_pdr: delivered as f64 / 240.0,
        fraction_joined: if violations > 0 { 0.9574468085106383 } else { 1.0 },
        alerts: alert_kinds.iter().sum(),
        alert_kinds,
        violations,
        latency,
    }
}

fn every_section() -> FleetReport {
    let summaries = [
        summary("oil-field-0000/seed1", 119, [0; 4], 0, &[310, 420, 515, 2_050]),
        summary("oil-field-0001/seed2", 97, [1, 2, 0, 0], 0, &[330, 1_470]),
        summary("factory-floor-0000/seed1", 118, [0, 0, 0, 3], 0, &[95, 160]),
        summary("factory-floor-0001/seed2", 120, [0; 4], 2, &[88, 101, 7_600]),
    ];
    let degraded = vec![
        DegradedRun {
            label: "oil-field-0002/seed3".into(),
            reason: "timeout at asn 1200".into(),
            attempts: 2,
            quarantined: false,
        },
        DegradedRun {
            label: "oil-field-0003/seed4".into(),
            reason: "panicked: \"stuck\" in \\ slot".into(),
            attempts: 3,
            quarantined: true,
        },
    ];
    aggregate_partial(&summaries, 600, degraded, 1)
}

fn no_latency() -> FleetReport {
    aggregate_partial(&[summary("quiet/seed9", 0, [0; 4], 0, &[])], 60, Vec::new(), 0)
}

const EVERY_SECTION_PRETTY: &str = r#"{
  "networks": 4,
  "nodes": 188,
  "secs": 600,
  "generated": 480,
  "delivered": 454,
  "fleet_pdr": 0.9458333333333333,
  "mean_network_pdr": 0.9458333333333333,
  "mean_fraction_joined": 0.9893617021276596,
  "latency_samples": 11,
  "latency_p50_ms": 336,
  "latency_p99_ms": 6899.200000000002,
  "alert_networks": 2,
  "total_alerts": 6,
  "alerts_by_rule": {
    "pdr-collapse": 1,
    "churn-storm": 2,
    "queue-saturation": 0,
    "convergence-stall": 3
  },
  "violation_networks": 1,
  "total_violations": 2,
  "worst_networks": [
    {
      "label": "oil-field-0001/seed2",
      "pdr": 0.8083333333333333
    },
    {
      "label": "factory-floor-0000/seed1",
      "pdr": 0.9833333333333333
    },
    {
      "label": "oil-field-0000/seed1",
      "pdr": 0.9916666666666667
    },
    {
      "label": "factory-floor-0001/seed2",
      "pdr": 1
    }
  ],
  "alerting_networks": [
    {
      "label": "factory-floor-0000/seed1",
      "alerts": 3
    },
    {
      "label": "oil-field-0001/seed2",
      "alerts": 3
    }
  ],
  "violating_networks": [
    {
      "label": "factory-floor-0001/seed2",
      "violations": 2
    }
  ],
  "degraded": {
    "skipped": 1,
    "retried": 1,
    "quarantined": 1,
    "runs": [
      {
        "label": "oil-field-0002/seed3",
        "reason": "timeout at asn 1200",
        "attempts": 2,
        "quarantined": false
      },
      {
        "label": "oil-field-0003/seed4",
        "reason": "panicked: \"stuck\" in \\ slot",
        "attempts": 3,
        "quarantined": true
      }
    ]
  },
  "slo": {
    "passed": false,
    "breaches": [
      "2 of 4 networks alerting (0.5000 > 0.1500)",
      "1 of 4 networks with audit violations (0.2500 > 0.0000)",
      "1 network(s) quarantined after exhausting retries (partial report)",
      "1 network(s) skipped by cancellation (partial report)"
    ]
  }
}
"#;

const EVERY_SECTION_LINE: &str = r#"{"networks":4,"nodes":188,"secs":600,"generated":480,"delivered":454,"fleet_pdr":0.9458333333333333,"mean_network_pdr":0.9458333333333333,"mean_fraction_joined":0.9893617021276596,"latency_samples":11,"latency_p50_ms":336,"latency_p99_ms":6899.200000000002,"alert_networks":2,"total_alerts":6,"alerts_by_rule":{"pdr-collapse":1,"churn-storm":2,"queue-saturation":0,"convergence-stall":3},"violation_networks":1,"total_violations":2,"worst_networks":[{"label":"oil-field-0001/seed2","pdr":0.8083333333333333},{"label":"factory-floor-0000/seed1","pdr":0.9833333333333333},{"label":"oil-field-0000/seed1","pdr":0.9916666666666667},{"label":"factory-floor-0001/seed2","pdr":1}],"alerting_networks":[{"label":"factory-floor-0000/seed1","alerts":3},{"label":"oil-field-0001/seed2","alerts":3}],"violating_networks":[{"label":"factory-floor-0001/seed2","violations":2}],"degraded":{"skipped":1,"retried":1,"quarantined":1,"runs":[{"label":"oil-field-0002/seed3","reason":"timeout at asn 1200","attempts":2,"quarantined":false},{"label":"oil-field-0003/seed4","reason":"panicked: \"stuck\" in \\ slot","attempts":3,"quarantined":true}]},"slo":{"passed":false,"breaches":["2 of 4 networks alerting (0.5000 > 0.1500)","1 of 4 networks with audit violations (0.2500 > 0.0000)","1 network(s) quarantined after exhausting retries (partial report)","1 network(s) skipped by cancellation (partial report)"]}}"#;

const EVERY_SECTION_TEXT: &str = r#"fleet SLO report
  networks        : 4 (188 nodes, 600 s simulated each)
  fleet PDR       : 0.9458 (454 / 480 packets; mean network 0.9458)
  e2e latency     : p50 336 ms / p99 6899 ms (11 samples)
  joined          : 0.989 mean fraction
  health alerts   : 2 network(s), 6 alert(s) (rate 0.5000)
    by rule: pdr-collapse 1, churn-storm 2, convergence-stall 3
  audit violations: 1 network(s), 2 violation(s) (rate 0.2500)
  worst networks  :
    0.8083  oil-field-0001/seed2
    0.9833  factory-floor-0000/seed1
    0.9917  oil-field-0000/seed1
    1.0000  factory-floor-0001/seed2
  most alerting   :
         3  factory-floor-0000/seed1
         3  oil-field-0001/seed2
  violating       :
         2  factory-floor-0001/seed2
  degraded        : 1 skipped, 1 retried, 1 quarantined
    recovered  oil-field-0002/seed3 (attempt(s) 2: timeout at asn 1200)
    quarantined  oil-field-0003/seed4 (attempt(s) 3: panicked: "stuck" in \ slot)
  SLO             : FAILED
    breach: 2 of 4 networks alerting (0.5000 > 0.1500)
    breach: 1 of 4 networks with audit violations (0.2500 > 0.0000)
    breach: 1 network(s) quarantined after exhausting retries (partial report)
    breach: 1 network(s) skipped by cancellation (partial report)
"#;

const NO_LATENCY_PRETTY: &str = r#"{
  "networks": 1,
  "nodes": 47,
  "secs": 60,
  "generated": 120,
  "delivered": 0,
  "fleet_pdr": 0,
  "mean_network_pdr": 0,
  "mean_fraction_joined": 1,
  "latency_samples": 0,
  "latency_p50_ms": null,
  "latency_p99_ms": null,
  "alert_networks": 0,
  "total_alerts": 0,
  "alerts_by_rule": {
    "pdr-collapse": 0,
    "churn-storm": 0,
    "queue-saturation": 0,
    "convergence-stall": 0
  },
  "violation_networks": 0,
  "total_violations": 0,
  "worst_networks": [
    {
      "label": "quiet/seed9",
      "pdr": 0
    }
  ],
  "alerting_networks": [],
  "violating_networks": [],
  "degraded": {
    "skipped": 0,
    "retried": 0,
    "quarantined": 0,
    "runs": []
  },
  "slo": {
    "passed": false,
    "breaches": [
      "fleet PDR 0.0000 below floor 0.9000",
      "worst network `quiet/seed9` PDR 0.0000 below floor 0.5000"
    ]
  }
}
"#;

const NO_LATENCY_LINE: &str = r#"{"networks":1,"nodes":47,"secs":60,"generated":120,"delivered":0,"fleet_pdr":0,"mean_network_pdr":0,"mean_fraction_joined":1,"latency_samples":0,"latency_p50_ms":null,"latency_p99_ms":null,"alert_networks":0,"total_alerts":0,"alerts_by_rule":{"pdr-collapse":0,"churn-storm":0,"queue-saturation":0,"convergence-stall":0},"violation_networks":0,"total_violations":0,"worst_networks":[{"label":"quiet/seed9","pdr":0}],"alerting_networks":[],"violating_networks":[],"degraded":{"skipped":0,"retried":0,"quarantined":0,"runs":[]},"slo":{"passed":false,"breaches":["fleet PDR 0.0000 below floor 0.9000","worst network `quiet/seed9` PDR 0.0000 below floor 0.5000"]}}"#;

const NO_LATENCY_TEXT: &str = r#"fleet SLO report
  networks        : 1 (47 nodes, 60 s simulated each)
  fleet PDR       : 0.0000 (0 / 120 packets; mean network 0.0000)
  e2e latency     : p50 - / p99 - (0 samples)
  joined          : 1.000 mean fraction
  health alerts   : 0 network(s), 0 alert(s) (rate 0.0000)
  audit violations: 0 network(s), 0 violation(s) (rate 0.0000)
  worst networks  :
    0.0000  quiet/seed9
  SLO             : FAILED
    breach: fleet PDR 0.0000 below floor 0.9000
    breach: worst network `quiet/seed9` PDR 0.0000 below floor 0.5000
"#;

#[test]
fn a_report_that_reaches_every_section_writes_its_pinned_bytes() {
    let report = every_section();
    assert_eq!(pretty(&report), EVERY_SECTION_PRETTY);
    assert_eq!(line(&report), EVERY_SECTION_LINE);
    assert_eq!(text(&report), EVERY_SECTION_TEXT);
}

#[test]
fn a_report_with_no_latency_samples_writes_null_quantiles() {
    let report = no_latency();
    assert_eq!(pretty(&report), NO_LATENCY_PRETTY);
    assert_eq!(line(&report), NO_LATENCY_LINE);
    assert_eq!(text(&report), NO_LATENCY_TEXT);
}

#[test]
fn the_pinned_bytes_decode_to_the_report_that_wrote_them() {
    for (report, pretty, line) in [
        (every_section(), EVERY_SECTION_PRETTY, EVERY_SECTION_LINE),
        (no_latency(), NO_LATENCY_PRETTY, NO_LATENCY_LINE),
    ] {
        for text in [pretty, line] {
            let back = digs_json::message::decode_line(text, FleetReport::take_fields);
            assert_eq!(back.as_ref(), Ok(&report));
        }
    }
}
