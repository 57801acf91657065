//! digsd integration: the `scenario` runner (daemon side) and the
//! attached gate collector (client side).
//!
//! `digs-cli digsd serve` registers [`prepare_scenario`] with the daemon,
//! which makes every conformance-matrix scenario launchable by name over
//! the wire; `digs-cli gate --attach ADDR` then collects its records as a
//! streaming client via [`collect_attached`] instead of simulating
//! in-process. A scenario run publishes exactly one frame: its canonical
//! [`RunMetrics`] record as a `meta` payload — the same deterministic
//! line `gate --json` prints, so attached and in-process gates compare
//! identical bytes.

use crate::matrix::{MatrixKind, ScenarioSpec};
use crate::metrics::RunMetrics;
use digs::results::Secs;
use digs_digsd::{Filter, FrameKind, Job, ResumableStream, RunState, StreamItem, Value};
use digs_sim::time::SLOTS_PER_SECOND;
use std::collections::BTreeSet;

digs_json::message! {
    /// One seed of one catalogue scenario: the launch spec of the
    /// `scenario` runner, declared beside `SingleSpec` and `FleetParams`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ScenarioLaunch: "scenario" by "kind" {
        /// The matrix the scenario is looked up in.
        matrix: MatrixKind = MatrixKind::Full,
        /// Catalogue name.
        scenario: String,
        /// Flow-set seed.
        seed: u64 = 1,
        /// Simulated seconds (`None` = the scenario's own length).
        secs: Option<u64> as Option<Secs>,
    }
}

/// The daemon-side `scenario` runner: resolves the named scenario from
/// the conformance matrix, runs one seed, and publishes the canonical
/// record as the run's single `meta` frame.
pub fn prepare_scenario(spec: &Value) -> Result<Job, String> {
    let ScenarioLaunch { matrix, scenario: name, seed, secs } = ScenarioLaunch::from_json(spec)?;
    if !matrix.names().contains(&name.as_str()) {
        return Err(format!("unknown scenario `{name}` in the {} matrix", matrix.as_str()));
    }
    let scenario: ScenarioSpec = crate::matrix::scenarios(&[&name], secs)?.remove(0);
    Ok(Box::new(move |ctx| {
        // ScenarioSpec::run is monolithic, so kill granularity is the
        // whole run: a cancelled scenario still finishes simulating but
        // reports `killed` and publishes no record.
        let metrics = scenario.run(seed);
        ctx.set_progress(metrics.secs * SLOTS_PER_SECOND);
        if !ctx.cancelled() {
            ctx.publish(FrameKind::Meta, None, metrics.to_line());
        }
        Ok(())
    }))
}

/// Runs the gate's (scenario, seed) tasks through an attached daemon in
/// waves of `jobs` concurrent launches, returning records in task order.
/// Each task is one daemon run, tailed from launch with a meta-only
/// filter; the daemon's run threads provide the parallelism.
pub fn collect_attached(
    addr: &str,
    matrix: MatrixKind,
    specs: &[ScenarioSpec],
    tasks: &[(usize, u64)],
    jobs: usize,
    secs: Option<u64>,
) -> Result<Vec<RunMetrics>, String> {
    let pid = std::process::id();
    let meta_only =
        Filter { kinds: Some([FrameKind::Meta].into_iter().collect::<BTreeSet<_>>()), nodes: None };
    let mut records = Vec::with_capacity(tasks.len());
    let mut idx = 0usize;
    for wave in tasks.chunks(jobs.max(1)) {
        let mut streams = Vec::with_capacity(wave.len());
        for (i, seed) in wave {
            let spec = &specs[*i];
            let run_name = format!("gate-{pid}-{idx}");
            idx += 1;
            // A resumable stream survives a daemon crash mid-gate: the
            // reconnect carries the sequence cursor, the recovered
            // daemon's deterministic replay regenerates the meta frame,
            // and the collected record is identical either way.
            let stream = ResumableStream::launch(
                addr,
                "digs-gate",
                &run_name,
                ScenarioLaunch { matrix, scenario: spec.name.clone(), seed: *seed, secs }.to_json(),
                meta_only.clone(),
            )
            .map_err(|e| format!("gate --attach {addr}: {e}"))?;
            streams.push((stream, spec.name.clone(), *seed));
        }
        for (mut stream, scenario, seed) in streams {
            let mut meta: Option<String> = None;
            loop {
                match stream.next_item()? {
                    StreamItem::Event(f) if f.kind == FrameKind::Meta => meta = Some(f.payload),
                    StreamItem::Event(_)
                    | StreamItem::Heartbeat { .. }
                    | StreamItem::Restart { .. } => {}
                    StreamItem::End(end) => {
                        if end.state != RunState::Done {
                            return Err(format!(
                                "attached run {scenario}/seed{seed} ended `{}`",
                                end.state
                            ));
                        }
                        break;
                    }
                }
            }
            let line =
                meta.ok_or_else(|| format!("no metrics frame from {scenario}/seed{seed}"))?;
            records.push(RunMetrics::from_line(&line)?);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_digsd::{Client, Daemon, DaemonConfig};

    fn start() -> String {
        let mut daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("bind");
        daemon.register_runner("scenario", prepare_scenario);
        let addr = daemon.local_addr().expect("bound").to_string();
        std::thread::spawn(move || {
            let _ = daemon.serve_forever();
        });
        addr
    }

    #[test]
    fn scenario_runner_rejects_unknown_names() {
        let spec = ScenarioLaunch {
            matrix: MatrixKind::Small,
            scenario: "no-such-scenario".into(),
            seed: 1,
            secs: None,
        };
        let err = match prepare_scenario(&spec.to_json()) {
            Err(e) => e,
            Ok(_) => panic!("must reject an unknown scenario name"),
        };
        assert!(err.contains("no-such-scenario"), "{err}");
    }

    #[test]
    fn scenario_runner_rejects_ill_typed_seed_and_secs() {
        // Both used to fall back silently (seed 1, the matrix's own length).
        for (field, bad) in [("seed", "-3"), ("seed", "1.5"), ("secs", "\"60\"")] {
            let text =
                format!(r#"{{"kind":"scenario","matrix":"small","scenario":"x","{field}":{bad}}}"#);
            let spec = crate::json::parse(&text).expect("parses");
            let err = prepare_scenario(&spec).err().expect("must refuse");
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn a_scenario_whose_slots_overflow_is_refused_at_decode() {
        // `secs` used to be a plain integer: the run wrapped `secs × 100`.
        let edge = u64::MAX / SLOTS_PER_SECOND;
        let launch = |secs: u64| {
            let text = format!(r#"{{"kind":"scenario","scenario":"fig09-digs","secs":{secs}}}"#);
            ScenarioLaunch::from_json(&crate::json::parse(&text).expect("parses"))
        };
        assert_eq!(launch(edge).expect("fits").secs, Some(edge));
        let err = launch(edge + 1).expect_err("overflows");
        assert!(err.contains("`secs`"), "{err}");
        let spec = crate::json::parse(&format!(
            r#"{{"kind":"scenario","matrix":"small","scenario":"fig09-digs","secs":{}}}"#,
            u64::MAX
        ))
        .expect("parses");
        assert!(prepare_scenario(&spec).err().expect("must refuse").contains("`secs`"));
    }

    #[test]
    fn a_chaos_scenario_past_the_event_ceiling_is_bad_spec() {
        let addr = start();
        let mut client = Client::connect(&addr, "ceiling").expect("connect");
        let launch = |scenario: &str| ScenarioLaunch {
            matrix: MatrixKind::Small,
            scenario: scenario.into(),
            seed: 1,
            secs: Some(1_000_000_000_000_000),
        };
        let err =
            client.launch("ceiling", launch("chaos-digs").to_json(), false, Filter::default());
        let err = err.expect_err("bad spec");
        assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::BadSpec), "{err}");
        assert!(err.contains("`secs`"), "{err}");
        assert!(client.list().expect("list").is_empty(), "nothing was registered");
        // The same length builds a scenario without chaos (it is not run).
        assert!(prepare_scenario(&launch("fig09-digs").to_json()).is_ok());
    }

    #[test]
    fn attached_record_matches_the_in_process_run() {
        // Shortest scenario in the small matrix at a short override: the
        // attached gate's record must be byte-identical to running the
        // scenario directly.
        let secs = Some(60);
        let specs = MatrixKind::Small.scenarios(secs);
        let direct = specs[0].run(3);

        let addr = start();
        let records = collect_attached(&addr, MatrixKind::Small, &specs, &[(0, 3)], 2, secs)
            .expect("attached");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], direct, "attached and in-process records must agree");
        assert_eq!(records[0].to_line(), direct.to_line(), "and serialize identically");
    }
}
