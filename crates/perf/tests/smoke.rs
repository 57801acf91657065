//! Keeps the benchmark compiling and its schema honest without running it at
//! size: every workload, untraced and traced, in `--smoke` mode.

use digs_json::Value;
use digs_perf::harness::{run, RunOptions};
use digs_perf::schema::Schema;
use digs_perf::workloads::Kind;
use std::time::{Duration, Instant};

#[test]
fn benchmark_json_names_the_workloads_the_program_has() {
    let schema = Schema::load();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(schema.workloads, names);
    assert!(schema.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!(schema.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn every_run_emits_exactly_the_metrics_benchmark_json_lists() {
    let schema = Schema::load();
    let started = Instant::now();
    for kind in Kind::ALL {
        for traced in [false, true] {
            let options = RunOptions { kind, seed: 1, seconds: 0.0, traced, smoke: true };
            let report = run(options, &schema).expect("every listed metric is measured");
            assert!(report.correct(), "{}", report.table());

            let line = digs_json::parse(&report.driver_line()).expect("the driver line is JSON");
            let Some(Value::Obj(metrics)) = line.field("metrics") else {
                panic!("no metrics object in {line:?}");
            };
            let emitted: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let listed: Vec<&str> =
                schema.metrics(traced).iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, listed, "{} traced={traced}", kind.name());
            for (name, metric) in metrics {
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                let value = metric.field("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric:?}");
                let unit = metric.field("unit").and_then(Value::as_str);
                assert!(unit.is_some_and(|u| !u.is_empty()), "{name}: {metric:?}");
            }
        }
    }
    assert!(started.elapsed() < Duration::from_secs(10), "smoke took {:?}", started.elapsed());
}
