//! One run of one workload: set-up, measured repeats, checks, and the
//! metrics `BENCHMARK.json` lists — end-to-end untraced, per-layer traced.

use crate::probes;
use crate::schema::Schema;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mib, percentile, tail};
use crate::workloads::{gate, node_secs_per_s, nproc, out_dir, set_up, Kind, Size, Verdict};
use digs_json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups an untraced run makes; `setup_s` is their median.
const SETUPS: usize = 5;

/// Repeats a traced run makes of each workload other than its own.
const PROBE_REPEATS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) instead of end-to-end (untraced) metrics.
    pub traced: bool,
    /// A few hundred slots per repeat, for the schema test.
    pub smoke: bool,
}

impl RunOptions {
    fn size(self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The gated value (a median wherever there are several samples).
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The options the run was made with.
    pub options: RunOptions,
    /// The metrics `BENCHMARK.json` lists for this kind of run, in its order.
    pub metrics: Vec<Metric>,
    /// The correctness checks.
    pub verdict: Verdict,
    /// Measured repeats of the workload itself.
    pub repeats: usize,
    /// Median host seconds of a repeat and, with enough samples, the highest
    /// percentile that has ten samples beyond it.
    pub repeat_secs: (f64, Option<(f64, f64)>),
    /// Per span name `(count, total s, self s)`; empty when untraced.
    pub spans: Vec<(&'static str, (usize, f64, f64))>,
}

/// A metric's value from the tracer's samples: `_p50`, `_p90` and `_max`
/// select from the samples named without the suffix, any other name is the
/// median of its own samples.
fn layer_value(t: &Tracer, name: &str) -> Option<(f64, usize)> {
    let (base, pick): (&str, fn(&[f64]) -> f64) = if let Some(base) = name.strip_suffix("_p90") {
        (base, |s| percentile(s, 90.0))
    } else if let Some(base) = name.strip_suffix("_max") {
        (base, |s| percentile(s, 100.0))
    } else {
        (name.strip_suffix("_p50").unwrap_or(name), median)
    };
    let samples = t.samples(base);
    (!samples.is_empty()).then(|| (pick(samples), samples.len()))
}

/// What the measuring part of a run hands to the reporting part.
struct Measured {
    /// End-to-end values `(name, value, samples)`; per-layer ones are in the
    /// tracer.
    values: Vec<(&'static str, f64, usize)>,
    /// Host seconds of every repeat's legs.
    repeats: Vec<Vec<f64>>,
    verdict: Verdict,
}

/// An untraced run: several set-ups, repeats for `seconds`, the checks.
fn end_to_end(options: RunOptions, t: &mut Tracer) -> Measured {
    let RunOptions { kind, seed, seconds, smoke, .. } = options;
    let size = options.size();
    let mut setup_secs = Vec::new();
    let mut workload = None;
    for _ in 0..if smoke { 1 } else { SETUPS } {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(kind, seed, size, t));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut repeats = Vec::new();
    while repeats.len() < workload.min_repeats() || Instant::now() < deadline {
        repeats.push(workload.repeat(t));
    }
    let throughput = node_secs_per_s(workload.node_secs_per_repeat(), &repeats);
    let mut values = vec![
        ("sim_node_secs_per_s", throughput, repeats.len()),
        ("setup_s", median(&setup_secs), setup_secs.len()),
    ];
    values.extend(peak_rss_mib().map(|mib| ("peak_rss_mb", mib, 1)));
    Measured { values, repeats, verdict: workload.verify() }
}

/// A traced run: a third of `seconds` on the workload itself, alternating
/// the tracer off and on; then the other workloads at probe size and the
/// probes, so that every layer is measured.
fn per_layer(options: RunOptions, t: &mut Tracer) -> Result<Measured, String> {
    let RunOptions { kind, seed, seconds, smoke, .. } = options;
    let size = options.size();
    let mut workload = set_up(kind, seed, size, t);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds / 3.0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < workload.min_repeats() || Instant::now() < deadline {
        t.set_on(false);
        plain.push(workload.repeat(t));
        t.set_on(true);
        traced.push(workload.repeat(t));
    }
    let node_secs = workload.node_secs_per_repeat();
    let overhead = node_secs_per_s(node_secs, &traced) / node_secs_per_s(node_secs, &plain);
    t.sample("harness.trace_overhead", overhead);
    workload.sample_after_repeats(t);
    let mut verdict = workload.verify();
    drop(workload);

    let probe_size = if smoke { Size::Smoke } else { Size::Probe };
    for other in Kind::ALL.into_iter().filter(|k| *k != kind) {
        let mut probe = set_up(other, seed, probe_size, t);
        for _ in 0..probe.min_repeats().max(if smoke { 1 } else { PROBE_REPEATS }) {
            probe.repeat(t);
        }
        probe.sample_after_repeats(t);
    }
    probes::run_all(seed, size, t, &mut verdict);
    let spans = out_dir().join(format!("{}.spans.jsonl", kind.name()));
    t.write_jsonl(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
    plain.extend(traced);
    Ok(Measured { values: Vec::new(), repeats: plain, verdict })
}

/// Runs one workload as `options` say.
///
/// # Errors
///
/// Returns a message when a metric `BENCHMARK.json` lists was not measured.
pub fn run(options: RunOptions, schema: &Schema) -> Result<RunReport, String> {
    let mut t = Tracer::new(options.traced);
    let Measured { values, repeats, verdict } =
        if options.traced { per_layer(options, &mut t)? } else { end_to_end(options, &mut t) };
    let metrics = schema
        .metrics(options.traced)
        .iter()
        .map(|def| {
            let (value, samples) = values
                .iter()
                .find(|(name, ..)| *name == def.name)
                .map(|(_, value, samples)| (*value, *samples))
                .or_else(|| layer_value(&t, &def.name))
                .filter(|(value, _)| value.is_finite())
                .ok_or(format!("{} was not measured", def.name))?;
            Ok(Metric { name: def.name.clone(), value, unit: def.unit.clone(), samples })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let totals: Vec<f64> = repeats.iter().map(|legs| legs.iter().sum()).collect();
    Ok(RunReport {
        options,
        metrics,
        verdict,
        repeats: repeats.len(),
        repeat_secs: (median(&totals), tail(&totals)),
        spans: t.summary().into_iter().collect(),
    })
}

impl RunReport {
    /// Whether every checked operation passed.
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0 && self.verdict.attempted > 0
    }

    /// The metrics as a JSON object, each `{value, unit}` and, for the detail
    /// file, its sample count.
    fn metrics_object(&self, with_samples: bool) -> Value {
        let metric = |m: &Metric| {
            let mut fields = vec![
                ("value".to_string(), Value::Num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            if with_samples {
                fields.push(("samples".to_string(), Value::Num(m.samples as f64)));
            }
            (m.name.clone(), Value::Obj(fields))
        };
        Value::Obj(self.metrics.iter().map(metric).collect())
    }

    /// The one-line JSON object the benchmark's driver reads.
    pub fn driver_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.verdict.attempted as f64)),
            ("failed".into(), Value::Num(self.verdict.failed as f64)),
            ("metrics".into(), self.metrics_object(false)),
        ])
        .to_compact()
    }

    /// Everything the run found, for `digs-perf all` to collect.
    pub fn detail(&self) -> Value {
        let (p, at_p) = self
            .repeat_secs
            .1
            .map_or((Value::Null, Value::Null), |(p, v)| (Value::Num(p), Value::Num(v)));
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.options.kind.name().into())),
            ("seed".into(), Value::Num(self.options.seed as f64)),
            ("traced".into(), Value::Bool(self.options.traced)),
            ("nproc".into(), Value::Num(nproc() as f64)),
            ("jobs".into(), Value::Num(gate::jobs() as f64)),
            ("digest".into(), Value::Str(format!("{:016x}", self.verdict.digest))),
            ("attempted".into(), Value::Num(self.verdict.attempted as f64)),
            ("failed".into(), Value::Num(self.verdict.failed as f64)),
            ("repeats".into(), Value::Num(self.repeats as f64)),
            ("repeat_s_median".into(), Value::Num(self.repeat_secs.0)),
            ("repeat_s_tail_percentile".into(), p),
            ("repeat_s_tail".into(), at_p),
            ("metrics".into(), self.metrics_object(true)),
            (
                "notes".into(),
                Value::Arr(self.verdict.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    /// Where [`RunReport::detail`] is written.
    pub fn detail_path(kind: Kind, traced: bool) -> PathBuf {
        let run = if traced { "traced" } else { "untraced" };
        out_dir().join(format!("{}.{run}.json", kind.name()))
    }

    /// The human-readable report: every metric by name with its unit and
    /// sample count, which clock it reads, and the checks.
    pub fn table(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "{} seed {} {} ({} cores, {} gate workers): {} repeats, median {:.4} s host",
            o.kind.name(),
            o.seed,
            if o.traced { "traced" } else { "untraced" },
            nproc(),
            gate::jobs(),
            self.repeats,
            self.repeat_secs.0,
        );
        if let Some((p, v)) = self.repeat_secs.1 {
            out.push_str(&format!(", p{p} {v:.4} s"));
        }
        out.push_str(
            "\n  host = this machine's clock (what is optimised); simulated = the modelled \
             network (must not change).\n  Every ms/us/ns/s and 1/s below is host time; \
             sim.engine.* counts, *.frames and *.events_per_slot are simulated and repeat exactly.\n",
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<40} {:>16.4} {:<10} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(
                "  span                                        count      total s       self s\n",
            );
            for (name, (count, total, own)) in &self.spans {
                out.push_str(&format!("  {name:<40} {count:>8} {total:>12.4} {own:>12.4}\n"));
            }
        }
        out.push_str(&format!(
            "  digest {:016x}; {} of {} operations failed\n",
            self.verdict.digest, self.verdict.failed, self.verdict.attempted
        ));
        for note in &self.verdict.notes {
            out.push_str(&format!("  FAILED {note}\n"));
        }
        out
    }
}
