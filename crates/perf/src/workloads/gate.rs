//! `gate-small`: passes of the conformance gate's small matrix through
//! `digs-pool`, checked against the repo's goldens.

use super::{nproc, repo_root, scratch_dir, Size, Verdict, Workload};
use crate::spans::Tracer;
use crate::stats::fnv1a64;
use digs_conformance::golden::{aggregate, Golden};
use digs_conformance::report::Report;
use digs_conformance::{
    metrics, pool, run_gate, GateOptions, MatrixKind, RunMetrics, ScenarioSpec,
};
use digs_sim::topology::Topology;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of a pass: every core, at most four.
pub fn jobs() -> usize {
    nproc().min(4)
}

/// The matrix, its seeds, and what pass 1 produced.
pub struct Gate {
    specs: Vec<ScenarioSpec>,
    /// `(scenario index, seed)`, scenario-major like the gate's own order.
    tasks: Vec<(usize, u64)>,
    seeds: Vec<u64>,
    /// `None` compares against the repo's goldens; `Some` blesses into a
    /// scratch directory (seeds the goldens were not blessed over).
    bless_dir: Option<PathBuf>,
    golden_text: String,
    /// Whole passes go through `run_gate`; smaller sizes call the pool.
    whole_gate: bool,
    first_pass_digest: Option<u64>,
    last_records: Vec<RunMetrics>,
    verdict: Verdict,
}

impl Gate {
    /// Reads the golden, builds the matrix and runs its cheapest scenario
    /// once to warm the process up.
    ///
    /// # Panics
    ///
    /// Panics when `goldens/small.json` cannot be read.
    pub fn set_up(seed: u64, size: Size, t: &mut Tracer) -> Gate {
        let golden_path = repo_root().join("goldens/small.json");
        let golden_text = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
        let (specs, build_secs) =
            t.span("conformance.matrix-build", |_| MatrixKind::Small.scenarios(None));
        t.sample("conformance.matrix_build_ms", build_secs * 1e3);
        let cheapest = (0..specs.len()).min_by_key(|i| specs[*i].secs).expect("a matrix");
        if size != Size::Smoke {
            specs[cheapest].run(seed);
        }

        // The goldens were blessed over seeds 1-3, which `--seed 1` runs;
        // any other seed runs its own three in bless mode, the same code
        // path with the comparison left out.
        let seeds: Vec<u64> = match size {
            Size::Full => (0..3).map(|k| (3 * seed).max(2) - 2 + k).collect(),
            Size::Probe | Size::Smoke => vec![seed],
        };
        let mut tasks: Vec<(usize, u64)> =
            (0..specs.len()).flat_map(|i| seeds.iter().map(move |s| (i, *s))).collect();
        if size == Size::Smoke {
            tasks = vec![(cheapest, seed)];
        }
        let whole_gate = size == Size::Full;
        let bless_dir = (whole_gate && seed != 1).then(|| scratch_dir("gate"));
        Gate {
            specs,
            tasks,
            seeds,
            bless_dir,
            golden_text,
            whole_gate,
            first_pass_digest: None,
            last_records: Vec::new(),
            verdict: Verdict::default(),
        }
    }

    fn gate_pass(&mut self, t: &mut Tracer) -> (Vec<RunMetrics>, f64) {
        let mut opts = GateOptions::new();
        opts.matrix = MatrixKind::Small;
        opts.seeds = self.seeds.clone();
        opts.jobs = Some(jobs());
        match &self.bless_dir {
            Some(dir) => {
                opts.bless = true;
                opts.goldens_dir = dir.clone();
            }
            None => opts.goldens_dir = repo_root().join("goldens"),
        }
        let (outcome, secs) = t.span("gate.pass", |_| run_gate(&opts));
        let outcome = outcome.expect("the gate ran");
        if let Some(report) = &outcome.report {
            let breaches = report.failures();
            self.verdict.failed += breaches.len() as u64;
            self.verdict.notes.extend(
                breaches.iter().map(|f| format!("golden breach: {} {}", f.scenario, f.metric)),
            );
        }
        (outcome.records, secs)
    }

    /// The pass `run_gate` makes, with every run timed where it ran;
    /// `sampled` says whether it feeds the pool's per-layer samples.
    fn pool_pass(&self, jobs: usize, sampled: bool, t: &mut Tracer) -> (Vec<RunMetrics>, f64) {
        let specs = &self.specs;
        let tasks = self.tasks.clone();
        let (timed, secs) = t.span("gate.pass", |t| {
            let timed = pool::par_map_timed(tasks, jobs, |(i, seed)| {
                let started = Instant::now();
                (specs[i].run(seed), started, Instant::now())
            });
            for run in &timed {
                t.record("conformance.run", run.value.1, run.value.2);
            }
            timed
        });
        if sampled {
            let busy: f64 = timed.iter().map(|r| r.elapsed.as_secs_f64()).sum();
            for run in &timed {
                t.sample("conformance.run_ms", run.elapsed.as_secs_f64() * 1e3);
            }
            t.sample("pool.speedup", busy / secs);
            t.sample("pool.efficiency", busy / secs / jobs as f64);
            if let Some(idle_secs) = t.self_secs_of_last("gate.pass") {
                t.sample("pool.idle_ms", idle_secs * 1e3);
            }
        }
        (timed.into_iter().map(|r| r.value.0).collect(), secs)
    }

    /// One operation per run of the pass; a pass whose records differ from
    /// pass 1 fails all of them.
    fn check_pass(&mut self, records: Vec<RunMetrics>) {
        self.verdict.attempted += records.len() as u64;
        let digest = fnv1a64(metrics::to_jsonl(&records).as_bytes());
        if *self.first_pass_digest.get_or_insert(digest) != digest {
            self.verdict.failed += records.len() as u64;
            self.verdict.notes.push(format!("a pass produced different records ({digest:016x})"));
        }
        self.last_records = records;
    }
}

impl Workload for Gate {
    /// Simulated node-seconds one pass covers (the small matrix runs on
    /// Testbed A only).
    fn node_secs_per_repeat(&self) -> f64 {
        let nodes = Topology::testbed_a().len() as u64;
        self.tasks.iter().map(|(i, _)| (nodes * self.specs[*i].secs) as f64).sum()
    }

    /// One pass; returns its host seconds. Untraced, a whole pass is
    /// `run_gate` as `digs-cli gate` calls it; traced, the benchmark fans
    /// the same tasks out itself to see each run.
    fn repeat(&mut self, t: &mut Tracer) -> Vec<f64> {
        t.next_repeat();
        let (records, secs) = if self.whole_gate && !t.is_on() {
            self.gate_pass(t)
        } else {
            self.pool_pass(jobs(), true, t)
        };
        self.check_pass(records);
        vec![secs]
    }

    /// The probes that need a finished pass: the same tasks on one worker,
    /// and the golden comparison and record encoding on its own.
    fn sample_after_repeats(&mut self, t: &mut Tracer) {
        let (records, serial_secs) = self.pool_pass(1, false, t);
        t.sample("gate.jobs1_wall_s", serial_secs);
        self.check_pass(records);

        let per_seed = self.seeds.len();
        let ((), compare_secs) = t.span("conformance.compare", |_| {
            let golden = Golden::parse(&self.golden_text).expect("the repo's golden parses");
            let fresh: Vec<(String, Vec<(String, f64)>)> = self
                .last_records
                .chunks(per_seed)
                .map(|group| (group[0].scenario.clone(), aggregate(group)))
                .collect();
            std::hint::black_box(Report::compare(&golden, &fresh));
        });
        t.sample("conformance.compare_ms", compare_secs * 1e3);
        let (lines, line_secs) = t.span("conformance.record-line", |_| {
            self.last_records.iter().map(|r| r.to_line().len()).sum::<usize>()
        });
        std::hint::black_box(lines);
        t.sample("conformance.record_line_us", line_secs * 1e6 / self.last_records.len() as f64);
    }

    /// The runs checked so far; the digest is pass 1's records.
    fn verify(&self) -> Verdict {
        Verdict { digest: self.first_pass_digest.unwrap_or(0), ..self.verdict.clone() }
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        if let Some(dir) = &self.bless_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
