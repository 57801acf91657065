//! `BENCHMARK.json`, compiled in: the one list of workloads, metrics,
//! units and bounds. The benchmark prints a metric only under a name this
//! file lists, with the unit it gives.

use digs_json::Value;

/// The text of `BENCHMARK.json` at the repo's root.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit it is printed with.
    pub unit: String,
    /// Whether `higher` or `lower` is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// How long one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(root: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let text = |v: &Value, k: &str| {
        v.field(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("{key}: missing {k}"))
    };
    root.field(key)
        .and_then(Value::as_arr)
        .ok_or(format!("missing {key}"))?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{key}: better is `{other}`")),
                },
                bound: m.field("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Schema {
    /// Parses a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or ill-typed field.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let root = digs_json::parse(text).map_err(|e| e.to_string())?;
        let workloads = root
            .field("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| w.field("name").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("a workload lacks its name")?;
        Ok(Schema {
            run_seconds: root.field("run_seconds").and_then(Value::as_f64).ok_or("run_seconds")?,
            workloads,
            end_to_end: metric_defs(&root, "end_to_end")?,
            per_layer: metric_defs(&root, "per_layer")?,
        })
    }

    /// The compiled-in file.
    ///
    /// # Panics
    ///
    /// Panics if the file the package was built with does not parse.
    pub fn load() -> Schema {
        Schema::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The metrics a run prints: per-layer if traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
