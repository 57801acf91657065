//! `gate`: the conformance matrix against the goldens, in-process or
//! collected from a running daemon with `--attach`.

use crate::flags::Args;
use digs_conformance::{run_gate, GateOptions, MatrixKind};
use digs_sim::seeds::SeedSpec;

pub fn gate(args: &Args) -> Result<(), String> {
    let mut opts = GateOptions::new();
    let matrix: Option<String> = args.get("matrix")?;
    opts.matrix = MatrixKind::parse(matrix.as_deref().unwrap_or("full"))?;
    if let Some(spec) = args.get::<String>("seeds")? {
        opts.seeds = SeedSpec::parse(&spec).map_err(|e| e.to_string())?.seeds().to_vec();
    }
    if let Some(dir) = args.get("goldens")? {
        opts.goldens_dir = dir;
    }
    opts.secs = args.get("secs")?;
    opts.jobs = args.get("jobs")?;
    opts.bless = args.switch("bless");
    opts.json = args.switch("json");
    opts.inject_loss = args.get("inject-loss")?;
    opts.summary = args.get("summary")?;
    opts.attach = args.get("attach")?;
    if run_gate(&opts)?.passed {
        Ok(())
    } else {
        Err("conformance gate breached".into())
    }
}
