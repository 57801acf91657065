//! The conformance gate: run the scenario × seed matrix in parallel,
//! aggregate, and compare against (or bless) the golden baseline.

use crate::golden::{aggregate, Golden};
use crate::matrix::{MatrixKind, ScenarioSpec};
use crate::metrics::{self, RunMetrics};
use crate::pool;
use crate::report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Options for one gate invocation.
#[derive(Debug, Clone)]
pub struct GateOptions {
    /// Which matrix tier to run.
    pub matrix: MatrixKind,
    /// The seed sweep (must match the golden's unless blessing).
    pub seeds: Vec<u64>,
    /// Directory holding `small.json` / `full.json` baselines.
    pub goldens_dir: PathBuf,
    /// Rewrite the baseline from this run instead of comparing.
    pub bless: bool,
    /// Worker threads (default: one per core).
    pub jobs: Option<usize>,
    /// Override every scenario's simulated seconds (clamped to each
    /// scenario's minimum). Goldens record the value; a mismatch fails.
    pub secs: Option<u64>,
    /// Emit the canonical records as JSONL on stdout (progress and
    /// tables go to stderr).
    pub json: bool,
    /// Test hook: halve the delivery metrics of scenarios whose name
    /// contains this substring, to demonstrate that a deliberate PDR
    /// regression trips the gate.
    pub inject_loss: Option<String>,
    /// Append the markdown diff table to this file on failure (CI step
    /// summaries).
    pub summary: Option<PathBuf>,
}

impl GateOptions {
    /// Defaults: full matrix, seeds 1–8, `goldens/`, compare mode.
    pub fn new() -> GateOptions {
        GateOptions {
            matrix: MatrixKind::Full,
            seeds: (1..=8).collect(),
            goldens_dir: PathBuf::from("goldens"),
            bless: false,
            jobs: None,
            secs: None,
            json: false,
            inject_loss: None,
            summary: None,
        }
    }

    /// The golden file this invocation reads or writes.
    pub fn golden_path(&self) -> PathBuf {
        self.goldens_dir.join(format!("{}.json", self.matrix.as_str()))
    }
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions::new()
    }
}

/// What a gate invocation produced.
#[derive(Debug)]
pub struct GateOutcome {
    /// Every run's canonical record, scenario-major then seed order.
    pub records: Vec<RunMetrics>,
    /// The comparison (absent in bless mode).
    pub report: Option<Report>,
    /// End-to-end wall-clock time of the matrix.
    pub wall: Duration,
    /// Sum of per-run durations — what a serial sweep would have cost.
    pub serial_equivalent: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Whether the gate passed (always true after a bless).
    pub passed: bool,
}

fn degrade(record: &mut RunMetrics) {
    record.pdr *= 0.5;
    record.worst_flow_pdr *= 0.5;
    record.windowed_pdr_median = record.windowed_pdr_median.map(|v| v * 0.5);
    record.windowed_pdr_worst = record.windowed_pdr_worst.map(|v| v * 0.5);
}

/// Runs the gate. Progress goes to stderr, human-readable results to
/// stdout (or stderr with `json`, which reserves stdout for records).
///
/// # Errors
///
/// Returns a message on I/O failures, a missing or stale golden, or a
/// seed/duration mismatch with the golden. A tolerance breach is NOT an
/// error — it comes back as `passed: false` with the diff in `report`.
pub fn run_gate(opts: &GateOptions) -> Result<GateOutcome, String> {
    if opts.seeds.is_empty() {
        return Err("empty seed sweep".into());
    }
    let specs = crate::matrix::scenarios(opts.matrix.names(), opts.secs)?;
    let say = |line: &str| {
        if opts.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    // One task per (scenario, seed); the specs' shared topologies were
    // hoisted when the matrix was built.
    let tasks: Vec<(usize, u64)> =
        (0..specs.len()).flat_map(|i| opts.seeds.iter().map(move |s| (i, *s))).collect();
    let jobs = opts.jobs.unwrap_or_else(|| pool::default_jobs(tasks.len())).max(1);
    eprintln!(
        "gate: {} matrix, {} scenarios x {} seeds = {} runs on {} worker(s)",
        opts.matrix.as_str(),
        specs.len(),
        opts.seeds.len(),
        tasks.len(),
        jobs,
    );
    let wall_start = std::time::Instant::now();
    // Labeled fan-out: if a run panics, the pool reports which
    // scenario/seed fell over instead of a bare join failure.
    let timed = pool::par_map_labeled(
        tasks,
        jobs,
        |_, (i, seed)| format!("{}/seed{}", specs[*i].name, seed),
        |(i, seed)| specs[i].run(seed),
    );
    let wall = wall_start.elapsed();
    let serial_equivalent: Duration = timed.iter().map(|t| t.elapsed).sum();
    let mut records: Vec<RunMetrics> = timed.into_iter().map(|t| t.value).collect();

    if let Some(pattern) = &opts.inject_loss {
        let mut hit = 0;
        for r in records.iter_mut().filter(|r| r.scenario.contains(pattern.as_str())) {
            degrade(r);
            hit += 1;
        }
        eprintln!("gate: injected 2x loss into {hit} record(s) matching `{pattern}` (test hook)");
    }

    if opts.json {
        print!("{}", metrics::to_jsonl(&records));
    }

    // Group scenario-major (the task order already is).
    let per_seed = opts.seeds.len();
    let groups: Vec<(&ScenarioSpec, Vec<RunMetrics>)> = specs
        .iter()
        .zip(records.chunks(per_seed))
        .map(|(spec, chunk)| (spec, chunk.to_vec()))
        .collect();

    let speedup = serial_equivalent.as_secs_f64() / wall.as_secs_f64().max(1e-9);
    say("");
    say(&format!(
        "{:<24} {:>7} {:>10} {:>12} {:>10}",
        "scenario", "pdr~", "worstPDR~", "repair~ (s)", "checks"
    ));
    for (spec, group) in &groups {
        let aggs = aggregate(group);
        let get = |k: &str| {
            aggs.iter()
                .find(|(key, _)| key == k)
                .map_or("-".to_string(), |(_, v)| format!("{v:.3}"))
        };
        say(&format!(
            "{:<24} {:>7} {:>10} {:>12} {:>10}",
            spec.name,
            get("pdr.median"),
            get("worst_flow_pdr.median"),
            get("repair_time_secs.median"),
            aggs.len(),
        ));
    }
    say("");
    say(&format!(
        "wall clock {:.1} s vs serial-equivalent {:.1} s ({speedup:.1}x on {jobs} worker(s))",
        wall.as_secs_f64(),
        serial_equivalent.as_secs_f64(),
    ));

    let golden_path = opts.golden_path();
    if opts.bless {
        let golden = Golden::bless(opts.matrix.as_str(), &opts.seeds, &groups);
        std::fs::create_dir_all(&opts.goldens_dir)
            .map_err(|e| format!("creating {}: {e}", opts.goldens_dir.display()))?;
        std::fs::write(&golden_path, golden.to_pretty())
            .map_err(|e| format!("writing {}: {e}", golden_path.display()))?;
        let checks: usize = golden.scenarios.iter().map(|s| s.checks.len()).sum();
        say(&format!(
            "blessed {} ({} scenarios, {checks} checks)",
            golden_path.display(),
            golden.scenarios.len()
        ));
        return Ok(GateOutcome {
            records,
            report: None,
            wall,
            serial_equivalent,
            jobs,
            passed: true,
        });
    }

    let text = std::fs::read_to_string(&golden_path).map_err(|e| {
        format!("reading {}: {e} (run with --bless to create the baseline)", golden_path.display())
    })?;
    let golden = Golden::parse(&text).map_err(|e| format!("{}: {e}", golden_path.display()))?;
    if golden.seeds != opts.seeds {
        return Err(format!(
            "seed sweep mismatch: golden {} was blessed over seeds {:?}, this run uses {:?} \
             (pass the same --seeds, or --bless to rebase)",
            golden_path.display(),
            golden.seeds,
            opts.seeds
        ));
    }
    for (spec, _) in &groups {
        if let Some(sg) = golden.scenario(&spec.name) {
            if sg.secs != spec.secs {
                return Err(format!(
                    "duration mismatch for {}: golden blessed at {} s, this run uses {} s \
                     (drop --secs, or --bless to rebase)",
                    spec.name, sg.secs, spec.secs
                ));
            }
        }
    }

    let fresh: Vec<(String, Vec<(String, f64)>)> =
        groups.iter().map(|(spec, group)| (spec.name.clone(), aggregate(group))).collect();
    let report = Report::compare(&golden, &fresh);
    say("");
    if report.passed() {
        say(&format!(
            "gate PASSED: {} checks within tolerance of {}",
            report.total(),
            golden_path.display()
        ));
    } else {
        let table = report.diff_table();
        say(&format!(
            "gate FAILED: {} of {} checks breached {}:",
            report.failures().len(),
            report.total(),
            golden_path.display()
        ));
        say("");
        for line in table.lines() {
            say(line);
        }
        if let Some(summary) = &opts.summary {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(summary)
                .map_err(|e| format!("opening {}: {e}", summary.display()))?;
            write!(
                file,
                "## Conformance gate failed ({} of {} checks)\n\n{}\n",
                report.failures().len(),
                report.total(),
                report.diff_table_markdown()
            )
            .map_err(|e| format!("writing {}: {e}", summary.display()))?;
        }
    }
    let passed = report.passed();
    Ok(GateOutcome { records, report: Some(report), wall, serial_equivalent, jobs, passed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrade_halves_delivery_metrics() {
        let mut r = RunMetrics {
            scenario: "x".into(),
            protocol: "digs".into(),
            seed: 1,
            secs: 60,
            pdr: 0.9,
            worst_flow_pdr: 0.8,
            median_latency_ms: None,
            worst_latency_ms: None,
            duty_cycle_percent: 1.0,
            power_per_packet_mw: None,
            energy_per_packet_mj: None,
            repair_time_secs: None,
            windowed_pdr_median: Some(0.9),
            windowed_pdr_worst: None,
            fraction_joined: 1.0,
            mean_join_secs: None,
            parent_changes: 0,
            retry_drops: 0,
            queue_drops: 0,
            audit_violations: 0,
            telemetry_epochs: None,
            health_alerts: None,
            epoch_pdr_min: None,
        };
        degrade(&mut r);
        assert!((r.pdr - 0.45).abs() < 1e-12);
        assert!((r.windowed_pdr_median.unwrap() - 0.45).abs() < 1e-12);
        assert_eq!(r.windowed_pdr_worst, None);
    }

    #[test]
    fn golden_path_follows_matrix_tier() {
        let mut opts = GateOptions::new();
        opts.matrix = MatrixKind::Small;
        opts.goldens_dir = PathBuf::from("/tmp/g");
        assert_eq!(opts.golden_path(), PathBuf::from("/tmp/g/small.json"));
    }

    #[test]
    fn empty_seed_sweep_is_rejected() {
        let mut opts = GateOptions::new();
        opts.seeds.clear();
        assert!(run_gate(&opts).is_err());
    }
}
