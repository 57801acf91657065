//! `digs-perf`: run one workload, all of them, or compare two result sets.
//! See `crates/perf/README.md`.

use digs_json::Value;
use digs_perf::compare::compare;
use digs_perf::harness::{run, RunOptions, RunReport};
use digs_perf::schema::Schema;
use digs_perf::workloads::{gate, nproc, out_dir, Kind};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: digs-perf run --workload W [--seed S] [--seconds T] [--trace 0|1] [--traced] [--smoke]
       digs-perf all [--seed S] [--seconds T] [--runs N] [--out FILE]
       digs-perf compare A.json B.json
`run` may be left out: `digs-perf --workload W --seed S --seconds T --trace 0` is how
the benchmark's driver calls it. W is one of large-150, idle-3stack, stream-50, gate-small.";

/// `--flag value` pairs and bare words, in the order given.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(flag @ ("traced" | "smoke")) => args.flags.push((flag.into(), "1".into())),
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.into(), value.clone()));
                }
                None => args.words.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag} takes a number, got `{v}`")),
        }
    }

    /// The seed, folded below 2^32: the daemon's wire carries numbers as
    /// JSON doubles, which hold no more than 53 bits exactly.
    fn seed(&self) -> Result<u64, String> {
        Ok(self.number::<u64>("seed", 1)? % (1 << 32))
    }
}

fn run_one(args: &Args, schema: &Schema) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let options = RunOptions {
        kind,
        seed: args.seed()?,
        seconds: args.number("seconds", schema.run_seconds)?,
        traced: args.get("traced").is_some() || args.number("trace", 0u8)? != 0,
        smoke: args.get("smoke").is_some(),
    };
    let report = run(options, schema)?;
    let detail = RunReport::detail_path(kind, options.traced);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&detail, report.detail().to_pretty()))
        .map_err(|e| format!("writing {}: {e}", detail.display()))?;
    print!("{}", report.table());
    println!("{}", report.driver_line());
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    digs_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a fresh process and reads back what it found.
fn child(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", kind.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("starting a run of {}: {e}", kind.name()))?;
    if !status.success() {
        return Err(format!("the run of {} ended with {status}", kind.name()));
    }
    read_json(&RunReport::detail_path(kind, traced))
}

fn all(args: &Args, schema: &Schema) -> Result<ExitCode, String> {
    let seed = args.seed()?;
    let seconds = args.number("seconds", schema.run_seconds)?;
    let runs = args.number("runs", 1usize)?.max(1);
    let out = args.get("out").map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    let mut correct = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let untraced: Vec<Value> =
            (0..runs).map(|_| child(kind, seed, seconds, false)).collect::<Result<_, _>>()?;
        let traced = child(kind, seed, seconds, true)?;
        let count = |v: &Value, key: &str| v.field(key).and_then(Value::as_u64).unwrap_or(0);
        let failed: u64 = untraced.iter().chain([&traced]).map(|v| count(v, "failed")).sum();
        let attempted: u64 = untraced.iter().chain([&traced]).map(|v| count(v, "attempted")).sum();
        let digest = traced.field("digest").cloned().unwrap_or(Value::Null);
        let digests_agree = untraced.iter().all(|v| v.field("digest") == Some(&digest));
        if !digests_agree {
            eprintln!("{}: the traced and untraced runs' digests differ", kind.name());
        }
        correct &= failed == 0 && digests_agree;
        let end_to_end = schema
            .end_to_end
            .iter()
            .map(|def| {
                let values = untraced
                    .iter()
                    .filter_map(|v| v.field("metrics")?.field(&def.name)?.field("value").cloned())
                    .collect();
                let fields = vec![
                    ("unit".to_string(), Value::Str(def.unit.clone())),
                    ("values".to_string(), Value::Arr(values)),
                ];
                (def.name.clone(), Value::Obj(fields))
            })
            .collect();
        workloads.push(Value::Obj(vec![
            ("name".into(), Value::Str(kind.name().into())),
            ("digest".into(), digest),
            ("attempted".into(), Value::Num(attempted as f64)),
            ("failed".into(), Value::Num(failed as f64)),
            ("end_to_end".into(), Value::Obj(end_to_end)),
            ("per_layer".into(), traced.field("metrics").cloned().unwrap_or(Value::Null)),
        ]));
    }
    let set = Value::Obj(vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("nproc".into(), Value::Num(nproc() as f64)),
        ("jobs".into(), Value::Num(gate::jobs() as f64)),
        ("workloads".into(), Value::Arr(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.to_pretty()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("result set written to {}", out.display());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_sets(args: &Args, schema: &Schema) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two result sets".into());
    };
    let (text, pass) = compare(schema, &read_json(Path::new(a))?, &read_json(Path::new(b))?);
    print!("{text}");
    Ok(if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    // No DIGS_* knob of the caller's environment may reach a workload: every
    // one the benchmark uses is set in code.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIGS_") {
            std::env::remove_var(key);
        }
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let schema = Schema::load();
    let outcome = Args::parse(&raw).and_then(|args| match args.words.first().map(String::as_str) {
        Some("run") | None if !raw.is_empty() => run_one(&args, &schema),
        Some("all") => all(&args, &schema),
        Some("compare") => compare_sets(&args, &schema),
        _ => Err(USAGE.to_string()),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("digs-perf: {message}");
        ExitCode::from(2)
    })
}
