//! `digs-perf compare A.json B.json`: holds result set B against result set
//! A with the bounds of `BENCHMARK.json`, one row per metric × workload.

use crate::schema::{MetricDef, Schema};
use crate::stats::{iqr_share, median};
use digs_json::Value;

/// Per-layer counts that are simulated, not timed, and so must not differ
/// between two sets made with the same seed.
const EXACT_COUNTS: [&str; 7] = [
    "sim.engine.tx_per_slot",
    "sim.engine.ack_ratio",
    "sim.engine.cca_deferrals",
    "sim.engine.collision_drops",
    "sim.engine.noise_drops",
    "digsd.stream.frames",
    "trace.events_per_slot",
];

/// How B's metric stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The sets' own run-to-run spread exceeds the bound, and B's runs are
    /// not all better than A's: nothing can be said.
    Unresolved,
}

/// Judges the runs `b` of a metric against the runs `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Status, f64) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if def.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
    let spread = iqr_share(a).into_iter().chain(iqr_share(b)).fold(0.0, f64::max);
    let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let status = if spread > bound {
        if b.iter().all(|x| a.iter().all(|y| better(*x, *y))) {
            Status::Ok
        } else {
            Status::Unresolved
        }
    } else if worse_by > bound {
        Status::Worse
    } else {
        Status::Ok
    };
    (status, worse_by)
}

fn workloads(set: &Value) -> &[Value] {
    set.field("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn runs(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .field("end_to_end")
        .and_then(|m| m.field(metric))
        .and_then(|m| m.field("values"))
        .and_then(Value::as_arr)
        .map(|values| values.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn number(workload: &Value, key: &str) -> f64 {
    workload.field(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The comparison as text, and whether B passes: no metric `worse`, no rise
/// in the share of failed operations.
pub fn compare(schema: &Schema, a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    for wa in workloads(a) {
        let name = wa.field("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) =
            workloads(b).iter().find(|w| w.field("name").and_then(Value::as_str) == Some(name))
        else {
            out.push_str(&format!("{name}: missing from the second set\n"));
            pass = false;
            continue;
        };
        for def in &schema.end_to_end {
            let (ra, rb) = (runs(wa, &def.name), runs(wb, &def.name));
            if ra.is_empty() || rb.is_empty() {
                out.push_str(&format!("{name:<12} {:<22} missing\n", def.name));
                pass = false;
                continue;
            }
            let (status, worse_by) = judge(def, &ra, &rb);
            pass &= status != Status::Worse;
            out.push_str(&format!(
                "{name:<12} {:<22} {:>14.4} -> {:>14.4} {:<6} {:>6.2}% {:<6} (bound {:.0}%, n {}/{})  {}\n",
                def.name,
                median(&ra),
                median(&rb),
                def.unit,
                worse_by.abs() * 100.0,
                if worse_by > 0.0 { "worse" } else { "better" },
                def.bound.unwrap_or(0.0) * 100.0,
                ra.len(),
                rb.len(),
                match status {
                    Status::Ok => "ok",
                    Status::Worse => "worse",
                    Status::Unresolved => "unresolved",
                },
            ));
        }
        let fail_ratio = |w: &Value| number(w, "failed") / number(w, "attempted").max(1.0);
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        pass &= fb <= fa;
        out.push_str(&format!(
            "{name:<12} fail_ratio {fa} -> {fb}  {}\n",
            if fb <= fa { "ok" } else { "worse" }
        ));
        let same = |key: &str| wa.field(key) == wb.field(key);
        out.push_str(&format!(
            "{name:<12} digest {}\n",
            if same("digest") { "identical" } else { "DIFFERS" }
        ));
        let layer = |w: &Value, metric: &str| {
            w.field("per_layer")
                .and_then(|m| m.field(metric))
                .and_then(|m| m.field("value"))
                .cloned()
        };
        let moved: Vec<&str> =
            EXACT_COUNTS.into_iter().filter(|m| layer(wa, m) != layer(wb, m)).collect();
        out.push_str(&format!(
            "{name:<12} simulated counts {}\n",
            if moved.is_empty() { "identical".to_string() } else { format!("DIFFER: {moved:?}") }
        ));
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef { name: "m".into(), unit: "u".into(), higher_is_better, bound: Some(bound) }
    }

    #[test]
    fn a_drop_beyond_the_bound_is_worse_and_within_it_ok() {
        let throughput = def(true, 0.10);
        assert_eq!(judge(&throughput, &[100.0], &[95.0]).0, Status::Ok);
        assert_eq!(judge(&throughput, &[100.0], &[85.0]).0, Status::Worse);
        assert_eq!(judge(&throughput, &[100.0], &[300.0]).0, Status::Ok);
        let latency = def(false, 0.10);
        assert_eq!(judge(&latency, &[10.0], &[10.5]).0, Status::Ok);
        assert_eq!(judge(&latency, &[10.0], &[12.0]).0, Status::Worse);
        assert!((judge(&latency, &[10.0], &[12.0]).1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let latency = def(false, 0.10);
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(judge(&latency, &noisy, &[9.0, 11.0, 13.0, 15.0]).0, Status::Unresolved);
        assert_eq!(judge(&latency, &noisy, &[4.0, 5.0, 6.0, 7.0]).0, Status::Ok);
    }

    #[test]
    fn sets_are_compared_by_workload_and_a_failure_rise_fails() {
        let schema = Schema {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![MetricDef { name: "m".into(), ..def(true, 0.10) }],
            per_layer: vec![],
        };
        let set = |values: &str, failed: u32| {
            digs_json::parse(&format!(
                r#"{{"workloads":[{{"name":"w","digest":"00","attempted":4,"failed":{failed},
                "end_to_end":{{"m":{{"unit":"u","values":{values}}}}},"per_layer":{{}}}}]}}"#
            ))
            .expect("test JSON")
        };
        let (text, pass) = compare(&schema, &set("[100, 101]", 0), &set("[99, 100]", 0));
        assert!(pass, "{text}");
        assert!(text.contains("digest identical"));
        assert!(!compare(&schema, &set("[100, 101]", 0), &set("[80, 81]", 0)).1);
        assert!(!compare(&schema, &set("[100, 101]", 0), &set("[100, 101]", 1)).1);
    }
}
