//! One run: its registry entry ([`RunHandle`]), what its thread publishes
//! through ([`RunCtx`]), the supervision loop that restarts it, and the
//! built-in `single` and `fleet` runners.

use crate::hub::{Hub, Supervisor, Verdict};
use crate::journal::Record;
use crate::server::Shared;
use crate::spec::{FleetParams, SingleSpec};
use crate::wire::{FrameKind, RunState, ServerMsg};
use digs::network::{Network, RunObserver};
use digs_json::message::Rows;
use digs_json::{message, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One registered run: its stream hub, lifecycle state, and the spec it
/// was launched with (kept so the supervisor can re-prepare it).
pub struct RunHandle {
    pub(crate) name: String,
    pub(crate) kind: String,
    spec: Value,
    pub(crate) hub: Hub,
    state: Mutex<RunState>,
    pub(crate) asn: AtomicU64,
    pub(crate) kill: AtomicBool,
    /// Graceful-shutdown request: stop cooperatively, journal the
    /// cursor, write **no** terminal record (the run stays resumable).
    pub(crate) suspend: AtomicBool,
    pub(crate) restarts: AtomicU64,
    /// ASN the current attempt replays to before it is "caught up"
    /// (supervised restart or journal resume; 0 for a fresh run).
    pub(crate) resume_asn: AtomicU64,
    pub(crate) started: Instant,
}

impl RunHandle {
    pub(crate) fn new(
        name: String,
        kind: String,
        spec: Value,
        cap: usize,
        state: RunState,
    ) -> RunHandle {
        RunHandle {
            name,
            kind,
            spec,
            hub: Hub::new(cap),
            state: Mutex::new(state),
            asn: AtomicU64::new(0),
            kill: AtomicBool::new(false),
            suspend: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            resume_asn: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RunState {
        *self.state.lock().expect("run state lock")
    }

    /// Current progress marker (ASN for single runs, completed networks
    /// for fleet runs).
    pub fn progress(&self) -> u64 {
        self.asn.load(Ordering::Relaxed)
    }

    /// Supervised restarts so far (including resumes across daemon
    /// restarts when a journal is in use).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }
}

/// What a run thread uses to publish its stream and observe control
/// signals. Cheap to clone; safe to share across worker threads.
#[derive(Clone)]
pub struct RunCtx {
    handle: Arc<RunHandle>,
    shared: Arc<Shared>,
}

impl RunCtx {
    /// The run's name.
    pub fn name(&self) -> &str {
        &self.handle.name
    }

    /// Publishes one payload line to all matching subscribers. Never
    /// blocks; full subscriber queues count drops.
    pub fn publish(&self, kind: FrameKind, node: Option<u16>, payload: String) {
        self.publish_with(kind, node, |out| out.push_str(&payload));
    }

    /// Like [`RunCtx::publish`] but lazy: the closure appends the payload
    /// line to its argument, and only runs if some live subscriber
    /// actually wants the frame. The frame's sequence number is consumed
    /// either way — the stream position is a function of the run, never
    /// of who is watching.
    pub fn publish_with(
        &self,
        kind: FrameKind,
        node: Option<u16>,
        payload: impl FnOnce(&mut String),
    ) {
        self.publish_batch([(kind, node, payload)]);
    }

    /// Publishes frames `(kind, node, payload)` in order as one batch:
    /// what [`RunCtx::publish_with`] would do for each in turn, under one
    /// hub lock and with one queue entry per subscriber.
    pub fn publish_batch<W: FnOnce(&mut String)>(
        &self,
        frames: impl IntoIterator<Item = (FrameKind, Option<u16>, W)>,
    ) {
        self.handle.hub.publish_batch(&self.handle.name, frames);
    }

    /// Updates the progress marker reported in heartbeats and listings,
    /// and journals the (ASN, stream seq) cursor pair.
    pub fn set_progress(&self, asn: u64) {
        self.handle.asn.store(asn, Ordering::Relaxed);
        self.shared.journal(&Record::Progress {
            run: self.handle.name.clone(),
            asn,
            seq: self.handle.hub.seq(),
        });
    }

    /// The ASN this attempt should replay to before it is caught up
    /// (0 for a fresh run). Runner jobs use it to drive
    /// [`Network::resume_to`].
    pub fn resume_asn(&self) -> u64 {
        self.handle.resume_asn.load(Ordering::Relaxed)
    }

    /// Whether a `kill` (or a daemon shutdown) was requested. Runs
    /// should stop cooperatively at the next safe boundary.
    pub fn cancelled(&self) -> bool {
        self.handle.kill.load(Ordering::Relaxed)
    }

    /// The raw cancellation flag, for APIs that take an `&AtomicBool`
    /// (e.g. [`digs_fleet::FleetObserver`]).
    pub fn cancel_flag(&self) -> &AtomicBool {
        &self.handle.kill
    }
}

/// The work a validated launch will execute on its run thread.
pub type Job = Box<dyn FnOnce(&RunCtx) -> Result<(), String> + Send>;

/// A launchable run kind: validates the spec and packages the run. It
/// runs on the connection thread so spec errors surface as a `bad-spec`
/// reply *before* the run is registered; the returned [`Job`] runs on a
/// dedicated thread. The supervisor calls it again with the stored spec
/// on every restart, so preparation must be repeatable.
pub type Runner = fn(&Value) -> Result<Job, String>;

/// Spawns the supervised run thread and tracks it for shutdown. A
/// recovered run passes `hold`: the journaled subscriber count and the
/// grace window it waits for them, so they can reconnect and land their
/// cursors before sequence 0 regenerates.
pub(crate) fn spawn_run(
    shared: &Arc<Shared>,
    handle: Arc<RunHandle>,
    job: Job,
    hold: Option<(usize, Duration)>,
) {
    shared.active_runs.fetch_add(1, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        if let Some((subscribers, grace)) = hold {
            let deadline = Instant::now() + grace;
            while Instant::now() < deadline
                && handle.hub.subscriber_count() < subscribers
                && !handle.kill.load(Ordering::Relaxed)
                && !handle.suspend.load(Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        run_supervised(&shared, &handle, job);
        shared.active_runs.fetch_sub(1, Ordering::SeqCst);
    });
}

/// The supervision loop: executes the job; panics and errors go through
/// the [`Supervisor`]'s backoff policy (replaying deterministically from
/// slot 0 on each attempt, which subscriber cursors dedupe), a suspend
/// request journals the cursor and leaves the run resumable, and
/// everything else ends in a terminal state with an end record.
fn run_supervised(shared: &Arc<Shared>, handle: &Arc<RunHandle>, job: Job) {
    let ctx = RunCtx { handle: Arc::clone(handle), shared: Arc::clone(shared) };
    let mut supervisor = Supervisor::new(shared.policy.clone(), &handle.name);
    supervisor.set_restarts(handle.restarts());
    let mut job = Some(job);
    loop {
        let attempt = job.take().expect("supervision loop always re-prepares");
        *handle.state.lock().expect("run state lock") = RunState::Running;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(&ctx)));
        if handle.suspend.load(Ordering::Relaxed) && outcome.is_ok() {
            if let Ok(Err(e)) = &outcome {
                eprintln!("digsd: run `{}` error during suspension: {e}", handle.name);
            }
            suspend_run(shared, handle);
            return;
        }
        match outcome {
            Ok(Ok(())) => {
                let state = if handle.kill.load(Ordering::Relaxed) {
                    RunState::Killed
                } else {
                    RunState::Done
                };
                finish_run(shared, handle, state);
                return;
            }
            Ok(Err(e)) => eprintln!("digsd: run `{}` failed: {e}", handle.name),
            Err(_) => eprintln!("digsd: run `{}` panicked", handle.name),
        }
        match supervisor.on_failure() {
            Verdict::GiveUp(state) => {
                finish_run(shared, handle, state);
                return;
            }
            Verdict::Restart { backoff, restarts } => {
                handle.restarts.store(restarts, Ordering::Relaxed);
                *handle.state.lock().expect("run state lock") = RunState::Restarting;
                shared.journal(&Record::Restart { run: handle.name.clone(), restarts });
                let notice = ServerMsg::RunRestarting {
                    run: handle.name.clone(),
                    restarts,
                    backoff_ms: backoff.as_millis() as u64,
                };
                handle.hub.publish_control(&notice.encode());
                eprintln!(
                    "digsd: run `{}`: restart {restarts} in {} ms",
                    handle.name,
                    backoff.as_millis()
                );
                let deadline = Instant::now() + backoff;
                while Instant::now() < deadline {
                    if handle.suspend.load(Ordering::Relaxed) {
                        suspend_run(shared, handle);
                        return;
                    }
                    if handle.kill.load(Ordering::Relaxed) {
                        finish_run(shared, handle, RunState::Killed);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                match shared.prepare(&handle.kind, &handle.spec) {
                    Ok(next) => {
                        // Replay from slot 0: sequences regenerate and
                        // every subscription's cursor skips its
                        // already-delivered prefix.
                        handle.resume_asn.store(handle.progress(), Ordering::Relaxed);
                        handle.asn.store(0, Ordering::Relaxed);
                        handle.hub.reset_for_replay();
                        job = Some(next);
                    }
                    Err(e) => {
                        eprintln!("digsd: run `{}` re-prepare failed: {e}", handle.name);
                        finish_run(shared, handle, RunState::Failed);
                        return;
                    }
                }
            }
        }
    }
}

/// Graceful suspension: the run stays resumable from the journal.
fn suspend_run(shared: &Shared, handle: &RunHandle) {
    finish_run(shared, handle, RunState::Restarting);
    eprintln!(
        "digsd: run `{}` suspended at asn {} (resumable from the journal)",
        handle.name,
        handle.progress()
    );
}

/// Ends the run's stream in `state`: journal it and close the hub with
/// the `run-state` frame. A terminal state is journaled as an end record;
/// `restarting` journals the final cursor and writes **no** end record —
/// the missing end record is what marks the run resumable on the next
/// start.
fn finish_run(shared: &Shared, handle: &RunHandle, state: RunState) {
    *handle.state.lock().expect("run state lock") = state;
    let (run, asn) = (handle.name.clone(), handle.progress());
    shared.journal(&match state {
        RunState::Restarting => Record::Progress { run, asn, seq: handle.hub.seq() },
        _ => Record::End { run, state, asn },
    });
    let ended = ServerMsg::RunEnded { run: handle.name.clone(), state, asn };
    handle.hub.close(Some(&ended.encode()));
}

/// The [`RunObserver`] bridging a [`Network`] run onto a hub: trace
/// events, telemetry epochs, and health alerts become frames as the run
/// crosses flush boundaries; progress feeds heartbeats and the journal;
/// a kill stops the run at the next boundary. Publishing is lazy but
/// sequence numbers are consumed unconditionally — stream positions
/// depend only on the run, never on who is subscribed.
struct StreamObserver {
    ctx: RunCtx,
}

impl RunObserver for StreamObserver {
    fn on_events(&mut self, events: &[digs_trace::Event]) {
        self.ctx.publish_batch(events.iter().map(|e| {
            let node = (e.node != digs_trace::NETWORK_NODE).then_some(e.node);
            (FrameKind::Trace, node, |out: &mut String| e.write_json(out))
        }));
    }

    fn on_epoch(
        &mut self,
        snapshot: &digs::telemetry::EpochSnapshot,
        alerts: &[digs::telemetry::HealthAlert],
    ) {
        self.ctx.publish_with(FrameKind::Epoch, None, |out| snapshot.write_json(out));
        self.ctx.publish_batch(
            alerts.iter().map(|a| (FrameKind::Alert, None, |out: &mut String| a.write_json(out))),
        );
    }

    fn on_progress(&mut self, asn: u64) -> bool {
        self.ctx.set_progress(asn);
        // Fault injection: may stall or panic here (see `crate::chaos`).
        self.ctx.shared.chaos.on_progress(asn);
        !self.ctx.cancelled()
    }

    fn on_resume_complete(&mut self, asn: u64) {
        eprintln!("digsd: run `{}` replay caught up at asn {asn}", self.ctx.name());
    }
}

pub(crate) fn prepare_single(spec: &Value) -> Result<Job, String> {
    let spec = SingleSpec::from_json(spec)?;
    spec.build_config()?; // validate now, build on the run thread
    Ok(Box::new(move |ctx: &RunCtx| {
        let mut network = spec.build()?;
        network.set_observer(Box::new(StreamObserver { ctx: ctx.clone() }));
        let total = spec.total_slots();
        let resume = ctx.resume_asn().min(total);
        if resume > 0 {
            // The replay *is* the fast-forward: deterministic
            // re-execution regenerates sequences 0.. and subscriber
            // cursors skip what they already saw. Audited runs replay
            // audited so the violation trace stays byte-identical.
            if let Some(every) = spec.audit_every {
                network.run_audited(resume, every);
            }
            network.resume_to(resume);
        }
        let done = network.asn().0;
        if !network.observer_stopped() {
            match spec.audit_every {
                Some(every) => network.run_audited(total - done, every),
                None => network.run(total - done),
            }
        }
        // The meta line closes the telemetry stream: its epoch/drop
        // counts are only known once the run is complete, so file export
        // puts it first and a streaming client reorders on reassembly. A
        // stopped run (kill or shutdown suspension) publishes none — a
        // suspended run's replay must regenerate the exact sequence
        // positions, and a partial meta would occupy one.
        if !network.observer_stopped() {
            if let Some(sampler) = network.telemetry() {
                ctx.publish_with(FrameKind::Meta, None, |out| sampler.meta().write_json(out));
            }
        }
        Ok(())
    }))
}

message! {
    /// A `fleet` frame's payload for a network that finished: what a
    /// tailing client reads of its [`digs_fleet::NetworkSummary`].
    pub struct FleetNetwork {
        /// The network's stable label.
        label: String,
        /// Nodes simulated.
        nodes: u32,
        /// Flows configured.
        flows: u32,
        /// Packets generated.
        generated: u64,
        /// Distinct packets delivered.
        delivered: u64,
        /// Mean per-flow PDR.
        pdr: f64,
        /// Worst per-flow PDR.
        worst_flow_pdr: f64,
        /// Fraction of nodes that joined.
        fraction_joined: f64,
        /// Health alerts raised.
        alerts: u64,
        /// Invariant violations recorded.
        violations: u64,
    }
}

message! {
    /// A `fleet` frame's payload for a network that failed an attempt: its
    /// [`digs_fleet::DegradedRun`], the reason under `degraded`.
    pub struct FleetDegraded {
        /// The network's stable label.
        label: String,
        /// Why the last failed attempt failed.
        degraded: String,
        /// Attempts made.
        attempts: u32,
        /// Whether every attempt failed.
        quarantined: bool,
    }
}

pub(crate) fn prepare_fleet(spec: &Value) -> Result<Job, String> {
    let params = FleetParams::from_json(spec)?;
    params.build()?; // validate now
    Ok(Box::new(move |ctx: &RunCtx| {
        let spec = params.build()?;
        let completed = AtomicU64::new(0);
        let on_network = |s: &digs_fleet::NetworkSummary| {
            ctx.set_progress(completed.fetch_add(1, Ordering::Relaxed) + 1);
            let line = FleetNetwork {
                label: s.label.clone(),
                nodes: s.nodes,
                flows: s.flows,
                generated: s.generated,
                delivered: s.delivered,
                pdr: s.pdr,
                worst_flow_pdr: s.worst_flow_pdr,
                fraction_joined: s.fraction_joined,
                alerts: s.alerts,
                violations: s.violations,
            };
            ctx.publish(FrameKind::Fleet, None, line.to_json_line());
        };
        let observer =
            digs_fleet::FleetObserver { on_network: &on_network, cancel: ctx.cancel_flag() };
        let policy = digs_fleet::RunPolicy::default();
        let outcome = digs_fleet::run_fleet(&spec, params.jobs, Some(&observer), &policy);
        // Degraded runs ride the fleet frame stream too, so a tailing
        // client sees quarantines as they are accounted, not only in the
        // final meta report.
        for d in &outcome.degraded {
            let line = FleetDegraded {
                label: d.label.clone(),
                degraded: d.reason.clone(),
                attempts: d.attempts,
                quarantined: d.quarantined,
            };
            ctx.publish(FrameKind::Fleet, None, line.to_json_line());
        }
        let report = digs_fleet::aggregate_partial(
            &outcome.summaries,
            spec.secs,
            outcome.degraded,
            outcome.skipped,
        );
        ctx.publish(FrameKind::Meta, None, report.to_json_line());
        Ok(())
    }))
}

#[allow(dead_code)]
fn _assert_network_send(n: Network) -> impl Send {
    n
}
