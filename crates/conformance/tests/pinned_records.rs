//! The records the conformance gate writes — `RunMetrics` lines, the
//! `scenario` launch spec, the goldens — held to literal bytes. The
//! literals were written by the hand codecs the row tables replaced. They
//! cover the extremes (`u64::MAX`), both sides of every `Option`, an
//! integral float and non-finite ones, which are written `null`.

use digs_conformance::golden::Golden;
use digs_conformance::{MatrixKind, RunMetrics, ScenarioLaunch};

/// Every `Option` holds a value; the integers are at their extremes.
fn every_field_set() -> RunMetrics {
    RunMetrics {
        scenario: "fig04-05-jam4".into(),
        protocol: "orchestra".into(),
        seed: u64::MAX,
        secs: 420,
        pdr: 0.9826388888888888,
        worst_flow_pdr: 0.5,
        median_latency_ms: Some(1320.0),
        worst_latency_ms: Some(31260.5),
        duty_cycle_percent: 5.2728904,
        power_per_packet_mw: Some(0.2625899284474206),
        energy_per_packet_mj: Some(110.2877699479166),
        repair_time_secs: Some(80.05),
        windowed_pdr_median: Some(0.0),
        windowed_pdr_worst: Some(1.0),
        fraction_joined: 1.0,
        mean_join_secs: Some(16.2244),
        parent_changes: u64::MAX,
        retry_drops: 1,
        queue_drops: 0,
        audit_violations: 7,
        telemetry_epochs: Some(u64::MAX),
        health_alerts: Some(0),
        epoch_pdr_min: Some(0.125),
    }
}

/// Every `Option` is empty; the integers are zero; the name needs escapes.
fn every_option_empty() -> RunMetrics {
    RunMetrics {
        scenario: "q\"b\\s\n".into(),
        protocol: "digs".into(),
        seed: 0,
        secs: 0,
        pdr: 0.0,
        worst_flow_pdr: 1e-7,
        median_latency_ms: None,
        worst_latency_ms: None,
        duty_cycle_percent: 100.0,
        power_per_packet_mw: None,
        energy_per_packet_mj: None,
        repair_time_secs: None,
        windowed_pdr_median: None,
        windowed_pdr_worst: None,
        fraction_joined: 0.0,
        mean_join_secs: None,
        parent_changes: 0,
        retry_drops: 0,
        queue_drops: u64::MAX,
        audit_violations: 0,
        telemetry_epochs: None,
        health_alerts: None,
        epoch_pdr_min: None,
    }
}

const RECORDS: &[&str] = &[
    r#"{"scenario":"fig04-05-jam4","protocol":"orchestra","seed":18446744073709551615,"secs":420,"pdr":0.9826388888888888,"worst_flow_pdr":0.5,"median_latency_ms":1320,"worst_latency_ms":31260.5,"duty_cycle_percent":5.2728904,"power_per_packet_mw":0.2625899284474206,"energy_per_packet_mj":110.2877699479166,"repair_time_secs":80.05,"windowed_pdr_median":0,"windowed_pdr_worst":1,"fraction_joined":1,"mean_join_secs":16.2244,"parent_changes":18446744073709551615,"retry_drops":1,"queue_drops":0,"audit_violations":7,"telemetry_epochs":18446744073709551615,"health_alerts":0,"epoch_pdr_min":0.125}"#,
    r#"{"scenario":"q\"b\\s\n","protocol":"digs","seed":0,"secs":0,"pdr":0,"worst_flow_pdr":0.0000001,"median_latency_ms":null,"worst_latency_ms":null,"duty_cycle_percent":100,"power_per_packet_mw":null,"energy_per_packet_mj":null,"repair_time_secs":null,"windowed_pdr_median":null,"windowed_pdr_worst":null,"fraction_joined":0,"mean_join_secs":null,"parent_changes":0,"retry_drops":0,"queue_drops":18446744073709551615,"audit_violations":0,"telemetry_epochs":null,"health_alerts":null,"epoch_pdr_min":null}"#,
];

#[test]
fn every_record_writes_its_pinned_line() {
    let records = [every_field_set(), every_option_empty()];
    let lines: Vec<String> = records.iter().map(RunMetrics::to_line).collect();
    assert_eq!(lines, RECORDS);
    for (record, line) in records.iter().zip(RECORDS) {
        assert_eq!(RunMetrics::from_line(line).as_ref(), Ok(record), "{line}");
    }
}

#[test]
fn a_non_finite_metric_is_written_null() {
    let record = RunMetrics {
        power_per_packet_mw: Some(f64::INFINITY),
        energy_per_packet_mj: Some(f64::NAN),
        ..every_field_set()
    };
    let line = record.to_line();
    assert!(line.contains(r#""power_per_packet_mw":null,"energy_per_packet_mj":null,"#), "{line}");
    let back = RunMetrics::from_line(&line).expect("an optional metric reads null as none");
    assert_eq!(
        back,
        RunMetrics { power_per_packet_mw: None, energy_per_packet_mj: None, ..record }
    );
    // A required metric that is not finite is written `null` too, and such
    // a line is refused.
    let line = RunMetrics { pdr: f64::NAN, ..every_field_set() }.to_line();
    assert!(line.contains(r#","pdr":null,"#), "{line}");
    assert_eq!(RunMetrics::from_line(&line), Err("`pdr` is not a number".to_string()));
}

const SCENARIO_SPECS: &[&str] = &[
    r#"{"kind":"scenario","matrix":"small","scenario":"fig09-digs","seed":18446744073709551615,"secs":60}"#,
    r#"{"kind":"scenario","matrix":"full","scenario":"adv-duel-digs","seed":1,"secs":null}"#,
];

#[test]
fn every_scenario_spec_writes_its_pinned_line() {
    let specs = [
        ScenarioLaunch {
            matrix: MatrixKind::Small,
            scenario: "fig09-digs".into(),
            seed: u64::MAX,
            secs: Some(60),
        },
        ScenarioLaunch {
            matrix: MatrixKind::Full,
            scenario: "adv-duel-digs".into(),
            seed: 1,
            secs: None,
        },
    ];
    let lines: Vec<String> = specs.iter().map(|spec| spec.to_json().to_compact()).collect();
    assert_eq!(lines, SCENARIO_SPECS);
    for (spec, line) in specs.iter().zip(SCENARIO_SPECS) {
        let back = ScenarioLaunch::from_json(&digs_json::parse(line).expect("parses"));
        assert_eq!(back.as_ref(), Ok(spec), "{line}");
    }
}

#[test]
fn each_golden_parses_and_writes_back_its_own_bytes() {
    for text in
        [include_str!("../../../goldens/small.json"), include_str!("../../../goldens/full.json")]
    {
        let golden = Golden::parse(text).expect("the golden parses");
        assert_eq!(golden.to_pretty(), text);
    }
}
