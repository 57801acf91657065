//! Fans independent fleet networks over the shared worker pool and
//! reduces each run to a [`NetworkSummary`].

use crate::spec::FleetSpec;
use digs::config::NetworkConfig;
use digs::network::{Network, RunObserver};
use digs::telemetry::HealthRule;
use digs_json::message;
use digs_metrics::histogram::LogHistogram;
use digs_pool as pool;
use digs_sim::time::SLOTS_PER_SECOND;
use std::time::{Duration, Instant};

/// Everything the fleet report needs from one network run. Latencies are
/// carried as a [`LogHistogram`] (ms), not raw samples, so aggregating a
/// thousand networks is a per-bucket add, and the merged quantiles agree
/// with a single pooled histogram (see the histogram's merge property).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSummary {
    /// Stable network label (template/index/seed, or shard name).
    pub label: String,
    /// Nodes simulated.
    pub nodes: u32,
    /// Flows configured.
    pub flows: u32,
    /// Packets generated across all flows.
    pub generated: u64,
    /// Distinct packets delivered to an access point.
    pub delivered: u64,
    /// Mean per-flow PDR.
    pub pdr: f64,
    /// Worst per-flow PDR.
    pub worst_flow_pdr: f64,
    /// Fraction of nodes that joined.
    pub fraction_joined: f64,
    /// Health alerts the telemetry monitor raised.
    pub alerts: u64,
    /// Alerts by rule, in [`HealthRule::ALL`] order.
    pub alert_kinds: [u64; HealthRule::ALL.len()],
    /// Invariant violations the runtime auditor recorded.
    pub violations: u64,
    /// End-to-end delivery latency, ms.
    pub latency: LogHistogram,
}

/// Runs one fleet network to completion (audited, telemetry on) and
/// summarizes it. `config` should already have its telemetry cadence and
/// trace capacity set (see [`fleet_tuned`]). With a wall-clock `deadline`
/// the run is checked against it at every stop; `Err(asn)` is the slot it
/// had reached when the deadline interrupted it.
pub fn run_network(
    label: &str,
    config: NetworkConfig,
    secs: u64,
    audit_every: u64,
    deadline: Option<Instant>,
) -> Result<NetworkSummary, u64> {
    let mut net = Network::new(config);
    if let Some(deadline) = deadline {
        net.set_observer(Box::new(DeadlineObserver { deadline }));
    }
    net.run_audited(secs * SLOTS_PER_SECOND, audit_every);
    if net.observer_stopped() {
        return Err(net.asn().0);
    }
    Ok(summarize(label, &net))
}

/// Reduces a finished network to its summary.
pub fn summarize(label: &str, net: &Network) -> NetworkSummary {
    let results = net.results();
    let mut alert_kinds = [0; HealthRule::ALL.len()];
    let (alerts, latency) = match net.telemetry() {
        Some(t) => {
            for a in t.alerts() {
                // `ALL` lists the rules in declaration order.
                alert_kinds[a.rule as usize] += 1;
            }
            (t.summary().alerts, t.latency_histogram().clone())
        }
        None => (0, LogHistogram::new()),
    };
    NetworkSummary {
        label: label.to_string(),
        nodes: net.config().topology.len() as u32,
        flows: results.flows.len() as u32,
        generated: u64::from(results.total_generated()),
        delivered: u64::from(results.total_delivered()),
        pdr: results.network_pdr(),
        worst_flow_pdr: results.worst_flow_pdr(),
        fraction_joined: results.fraction_joined(),
        alerts,
        alert_kinds,
        violations: results.invariant_violations.len() as u64,
        latency,
    }
}

/// Sets the per-run knobs the fleet requires for bounded memory and a
/// complete report: tracing off, telemetry at the fleet cadence with a cap
/// sized to the run length (no epoch is ever dropped, so the latency
/// histogram covers the whole run).
pub fn fleet_tuned(mut config: NetworkConfig, secs: u64, telemetry_epoch: u64) -> NetworkConfig {
    config.trace_cap = Some(0);
    config.telemetry_epoch = Some(telemetry_epoch);
    let epochs = if telemetry_epoch == 0 {
        0
    } else {
        (secs * SLOTS_PER_SECOND).div_ceil(telemetry_epoch) + 8
    };
    config.telemetry_cap = Some(epochs as usize);
    config
}

/// Degradation policy for the independent networks of a fleet run: a
/// per-network wall-clock deadline (enforced cooperatively at the run's
/// stops — std threads cannot be killed), a bounded number of
/// retries, and a deterministic timeout-injection hook for tests and CI
/// smoke. Sharded networks are out of scope: their shard loop already
/// has its own windowed progress structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunPolicy {
    /// Wall-clock budget per network attempt. `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Additional attempts after a failed one (timeout or panic).
    /// Timeouts are load-dependent and often transient; panics are
    /// deterministic per seed, so retries mostly matter for the former.
    pub retries: u32,
    /// Test hook: networks whose label contains this substring run with
    /// an already-expired deadline, so they time out deterministically at
    /// the first stop and land in the degraded report.
    pub inject_timeout: Option<String>,
}

message! {
    /// One network the fleet could not run cleanly: it needed retries
    /// (`quarantined == false`, the last attempt succeeded) or exhausted its
    /// attempts (`quarantined == true`, no summary exists for it).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DegradedRun {
        /// The network's stable label.
        label: String,
        /// Why the last failed attempt failed (`timeout at asn N` or
        /// `panic: ...`).
        reason: String,
        /// Attempts made (including the final successful one, if any).
        attempts: u32,
        /// True when every attempt failed: the network is excluded from the
        /// summaries and the report must gate on it.
        quarantined: bool,
    }
}

/// Stops a run cooperatively once the wall-clock deadline passes. The
/// check rides the ordinary progress heartbeat, so an expired deadline
/// halts the simulation at the next stop, in a consistent state.
struct DeadlineObserver {
    deadline: Instant,
}

impl RunObserver for DeadlineObserver {
    fn on_progress(&mut self, _asn: u64) -> bool {
        Instant::now() < self.deadline
    }
}

/// What one fleet invocation produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-network summaries: independent networks in group order, then
    /// one summary per shard of each sharded network.
    pub summaries: Vec<NetworkSummary>,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Sum of per-run durations — what a serial sweep would have cost.
    pub serial_equivalent: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Simulated node-seconds (Σ nodes × secs) — the numerator of the
    /// nodes-per-core-second headline.
    pub node_secs: u64,
    /// Per-shard busy time of each sharded network — what a utilization
    /// report reads to find the window-barrier stragglers (empty without
    /// sharded specs).
    pub shard_busy: Vec<(String, Vec<Duration>)>,
    /// Networks that needed retries or were quarantined, in spec order.
    /// Quarantined entries have no summary in `summaries`.
    pub degraded: Vec<DegradedRun>,
    /// Independent networks skipped by cancellation before they started
    /// (sharded networks skipped whole are not counted — the cancel flag
    /// stops the sharded loop between networks).
    pub skipped: u64,
}

/// Observation hooks for a fleet run, used by `digsd` to stream progress.
///
/// Both members are shared across worker threads: `on_network` fires from
/// whichever worker finishes a network (it must be thread-safe and cheap
/// — it runs on the simulation worker), and `cancel` is checked before
/// each network *starts*, so cancellation has network granularity: a
/// network already simulating runs to completion, the rest are skipped
/// and omitted from [`FleetOutcome::summaries`].
pub struct FleetObserver<'a> {
    /// Per-network completion callback (summary order is worker order,
    /// not spec order — the returned outcome keeps spec order).
    pub on_network: &'a (dyn Fn(&NetworkSummary) + Sync),
    /// Cooperative cancellation flag.
    pub cancel: &'a std::sync::atomic::AtomicBool,
}

/// Outcome of the retry loop for one independent network.
enum TaskOutcome {
    Done { summary: Box<NetworkSummary>, attempts: u32, last_failure: Option<String> },
    Quarantined { reason: String, attempts: u32 },
    Skipped,
}

/// Runs the whole fleet: independent networks fan out over the pool
/// (results in input order), then each sharded network runs its windowed
/// shard loop. Progress goes to stderr.
///
/// With an `observer`, each completed network's summary is pushed through
/// `on_network` as it finishes, and a raised `cancel` flag skips networks
/// that have not yet started (already-running networks finish normally).
///
/// Each independent network gets `1 + policy.retries` attempts under
/// `policy.timeout`; a network that exhausts them is recorded in
/// [`FleetOutcome::degraded`] (quarantined) and the fleet carries on —
/// the caller gates on the partial report instead of losing the whole
/// sweep to one bad run. [`RunPolicy::default`] is one attempt with no
/// deadline.
pub fn run_fleet(
    spec: &FleetSpec,
    jobs: Option<usize>,
    observer: Option<&FleetObserver<'_>>,
    policy: &RunPolicy,
) -> FleetOutcome {
    let mut tasks: Vec<(String, NetworkConfig)> = Vec::new();
    for group in &spec.groups {
        for k in 0..group.networks {
            let seed = group.seed_base + u64::from(k);
            let config = fleet_tuned(group.template.config(seed), spec.secs, spec.telemetry_epoch);
            tasks.push((group.label(k), config));
        }
    }
    let jobs = jobs.unwrap_or_else(|| pool::default_jobs(tasks.len().max(1))).max(1);
    eprintln!(
        "fleet: {} independent network(s) + {} sharded network(s), {} nodes total, \
         {} s simulated on {} worker(s)",
        tasks.len(),
        spec.sharded.len(),
        spec.total_nodes(),
        spec.secs,
        jobs
    );

    let wall_start = std::time::Instant::now();
    let secs = spec.secs;
    let audit_every = spec.audit_every;
    let labels: Vec<String> = tasks.iter().map(|(label, _)| label.clone()).collect();
    let caught = pool::par_map_caught(
        tasks,
        jobs,
        |_, (label, _)| label.clone(),
        move |(label, config)| {
            if observer.is_some_and(|o| o.cancel.load(std::sync::atomic::Ordering::Relaxed)) {
                return TaskOutcome::Skipped;
            }
            let attempts_max = policy.retries.saturating_add(1);
            let injected = policy.inject_timeout.as_deref().is_some_and(|p| label.contains(p));
            let mut last_failure = None;
            for attempt in 1..=attempts_max {
                // The injected deadline is already expired: the run stops
                // deterministically at its first stop.
                let deadline = if injected {
                    Some(Instant::now())
                } else {
                    policy.timeout.map(|t| Instant::now() + t)
                };
                let config = config.clone();
                let attempted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_network(&label, config, secs, audit_every, deadline)
                }));
                match attempted {
                    Ok(Ok(summary)) => {
                        if let Some(o) = observer {
                            (o.on_network)(&summary);
                        }
                        return TaskOutcome::Done {
                            summary: Box::new(summary),
                            attempts: attempt,
                            last_failure,
                        };
                    }
                    Ok(Err(asn)) => last_failure = Some(format!("timeout at asn {asn}")),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        last_failure = Some(format!("panic: {msg}"));
                    }
                }
            }
            TaskOutcome::Quarantined {
                reason: last_failure.unwrap_or_else(|| "no attempt ran".to_string()),
                attempts: attempts_max,
            }
        },
    );
    let mut serial_equivalent = Duration::ZERO;
    let mut summaries: Vec<NetworkSummary> = Vec::new();
    let mut degraded: Vec<DegradedRun> = Vec::new();
    let mut skipped = 0u64;
    for (slot, label) in caught.into_iter().zip(labels) {
        let timed = match slot {
            Ok(timed) => timed,
            // The retry loop catches panics itself; a pool-level failure
            // means the bookkeeping around it panicked. Quarantine it
            // rather than aborting the sweep.
            Err(msg) => {
                degraded.push(DegradedRun {
                    label,
                    reason: format!("panic: {msg}"),
                    attempts: 1,
                    quarantined: true,
                });
                continue;
            }
        };
        serial_equivalent += timed.elapsed;
        match timed.value {
            TaskOutcome::Done { summary, attempts, last_failure } => {
                if let Some(reason) = last_failure {
                    degraded.push(DegradedRun { label, reason, attempts, quarantined: false });
                }
                summaries.push(*summary);
            }
            TaskOutcome::Quarantined { reason, attempts } => {
                eprintln!("fleet: quarantined `{label}` after {attempts} attempt(s): {reason}");
                degraded.push(DegradedRun { label, reason, attempts, quarantined: true });
            }
            TaskOutcome::Skipped => skipped += 1,
        }
    }

    let mut shard_busy = Vec::new();
    for sharded in &spec.sharded {
        if observer.is_some_and(|o| o.cancel.load(std::sync::atomic::Ordering::Relaxed)) {
            break;
        }
        let outcome =
            crate::shard::run_sharded(sharded, spec.secs, audit_every, spec.telemetry_epoch, jobs);
        serial_equivalent += outcome.busy.iter().sum::<Duration>();
        shard_busy.push((sharded.name.clone(), outcome.busy.clone()));
        if let Some(o) = observer {
            for s in &outcome.summaries {
                (o.on_network)(s);
            }
        }
        summaries.extend(outcome.summaries);
    }

    FleetOutcome {
        summaries,
        wall: wall_start.elapsed(),
        serial_equivalent,
        jobs,
        node_secs: spec.total_nodes() * spec.secs,
        shard_busy,
        degraded,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FleetSpec, Template};

    #[test]
    fn fleet_tuned_pins_observation_knobs() {
        let config = fleet_tuned(Template::OilField.config(1), 120, 1_000);
        assert_eq!(config.trace_cap, Some(0));
        assert_eq!(config.telemetry_epoch, Some(1_000));
        // 120 s * 100 slots / 1000 = 12 epochs, plus slack — never dropped.
        assert_eq!(config.telemetry_cap, Some(20));
        let off = fleet_tuned(Template::OilField.config(1), 120, 0);
        assert_eq!(off.telemetry_cap, Some(0));
    }

    #[test]
    fn injected_timeout_quarantines_without_aborting_the_fleet() {
        let spec = FleetSpec::new().group(Template::OilField, 3, 1).secs(120);
        let policy = RunPolicy {
            timeout: None,
            retries: 1,
            inject_timeout: Some("0001".into()), // label of network index 1
        };
        let outcome = run_fleet(&spec, Some(2), None, &policy);
        assert_eq!(outcome.summaries.len(), 2, "the quarantined network has no summary");
        assert_eq!(outcome.skipped, 0);
        assert_eq!(outcome.degraded.len(), 1);
        let d = &outcome.degraded[0];
        assert!(d.label.contains("0001"), "wrong network degraded: {}", d.label);
        assert!(d.quarantined);
        assert_eq!(d.attempts, 2, "one retry means two attempts");
        assert!(d.reason.starts_with("timeout at asn"), "reason: {}", d.reason);
        // The survivors are the byte-identical runs the clean fleet produces.
        let clean = run_fleet(&spec, Some(1), None, &RunPolicy::default());
        assert!(clean.degraded.is_empty());
        assert_eq!(outcome.summaries[0], clean.summaries[0]);
        assert_eq!(outcome.summaries[1], clean.summaries[2]);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        // A deadline the run never hits must not perturb determinism.
        let spec = FleetSpec::new().group(Template::OilField, 1, 9).secs(120);
        let policy = RunPolicy {
            timeout: Some(Duration::from_secs(3600)),
            retries: 0,
            inject_timeout: None,
        };
        let bounded = run_fleet(&spec, Some(1), None, &policy);
        let unbounded = run_fleet(&spec, Some(1), None, &RunPolicy::default());
        assert!(bounded.degraded.is_empty());
        assert_eq!(bounded.summaries, unbounded.summaries);
    }

    #[test]
    fn small_fleet_is_deterministic_and_summarized() {
        let spec = FleetSpec::new().group(Template::OilField, 2, 1).secs(150);
        let a = run_fleet(&spec, Some(2), None, &RunPolicy::default());
        let b = run_fleet(&spec, Some(1), None, &RunPolicy::default());
        assert_eq!(a.summaries.len(), 2);
        assert_eq!(a.node_secs, 2 * 47 * 150);
        // Same spec, different worker counts: identical summaries.
        assert_eq!(a.summaries, b.summaries);
        for s in &a.summaries {
            assert!(s.generated > 0, "{}: flows must generate traffic", s.label);
            // 150 s leaves only 90 s of traffic after warmup; deep
            // pipeline flows legitimately sit near 0.5 at some seeds.
            assert!(s.pdr > 0.3, "{}: PDR collapsed to {}", s.label, s.pdr);
            assert_eq!(s.nodes, 47);
            assert!(!s.latency.is_empty(), "{}: telemetry must record latencies", s.label);
        }
        // Different seeds must produce different runs.
        assert_ne!(a.summaries[0].generated, 0);
        assert_ne!(
            (a.summaries[0].delivered, a.summaries[0].latency.clone()),
            (a.summaries[1].delivered, a.summaries[1].latency.clone()),
            "distinct seeds should not produce identical runs"
        );
    }
}
