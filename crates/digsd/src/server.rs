//! The daemon: a TCP accept loop, a run registry, supervised run
//! threads, and an optional durable journal that makes the whole thing
//! crash-recoverable.
//!
//! Threading model: one thread per connection (blocking line I/O), one
//! thread per run. Runs publish through [`RunCtx`]; connections drain
//! their [`Subscription`]s. The engine side never blocks on the network
//! side — that property lives entirely in [`crate::hub`].
//!
//! Crash resilience (DESIGN §4.13) rests on determinism: a run is a pure
//! function of its spec and seed, so the journal only needs to remember
//! *that* a run was launched and *how far* its stream got. Recovery (and
//! the in-process supervisor) re-prepares the job from the journaled
//! spec and replays it from slot 0; subscriber sequence cursors silently
//! skip the already-delivered prefix, making a resumed stream
//! byte-identical to an uninterrupted one.

use crate::chaos::{ChaosConfig, ChaosState};
use crate::hub::{BackoffPolicy, Hub, Recv, Subscription, Supervisor, Verdict};
use crate::journal::{Journal, Record};
use crate::spec::{FleetParams, SingleSpec};
use crate::wire::{
    valid_run_name, ClientMsg, ErrorCode, FrameKind, RunInfo, RunState, ServerMsg, WIRE_VERSION,
};
use digs::network::{Network, RunObserver};
use digs_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default listen/connect address, shared by client and server.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4901";

/// How long an idle stream waits before emitting a heartbeat.
pub const HEARTBEAT: Duration = Duration::from_millis(500);

/// Daemon tunables. [`Default`] is plain constants and reads nothing
/// outside the program, so in-process daemons share no state through it.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Per-subscriber queue capacity, frames (default 4096).
    pub queue_cap: usize,
    /// Durable journal path; `None` (the default) disables recovery.
    pub journal: Option<PathBuf>,
    /// Supervised-restart policy (default: at most 3 restarts per run).
    pub backoff: BackoffPolicy,
    /// How long a recovered run holds its replay for journaled
    /// subscribers to reconnect (default 1500 ms).
    pub resume_grace: Duration,
    /// Fault injection for the harness itself (off by default).
    pub chaos: ChaosConfig,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            queue_cap: 4096,
            journal: None,
            backoff: BackoffPolicy::new(3),
            resume_grace: Duration::from_millis(1500),
            chaos: ChaosConfig::default(),
        }
    }
}

/// One registered run: its stream hub, lifecycle state, and the spec it
/// was launched with (kept so the supervisor can re-prepare it).
pub struct RunHandle {
    name: String,
    kind: String,
    spec: Value,
    hub: Hub,
    state: Mutex<RunState>,
    asn: AtomicU64,
    kill: AtomicBool,
    /// Graceful-shutdown request: stop cooperatively, journal the
    /// cursor, write **no** terminal record (the run stays resumable).
    suspend: AtomicBool,
    restarts: AtomicU64,
    /// ASN the current attempt replays to before it is "caught up"
    /// (supervised restart or journal resume; 0 for a fresh run).
    resume_asn: AtomicU64,
    started: Instant,
}

impl RunHandle {
    fn new(name: String, kind: String, spec: Value, cap: usize, state: RunState) -> RunHandle {
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

    /// Fault-injection hook at progress boundaries (may panic or stall;
    /// see [`crate::chaos`]).
    fn chaos_tick(&self, asn: u64) {
        self.shared.chaos.on_progress(asn);
    }
}

/// The work a validated launch will execute on its run thread.
pub type Job = Box<dyn FnOnce(&RunCtx) -> Result<(), String> + Send>;

/// A launchable run kind. `prepare` runs on the connection thread so
/// spec errors surface as a `bad-spec` reply *before* the run is
/// registered; the returned [`Job`] runs on a dedicated thread. The
/// supervisor calls `prepare` again with the stored spec on every
/// restart, so preparation must be repeatable.
pub trait Runner: Send + Sync {
    /// Validates the spec and packages the run.
    fn prepare(&self, spec: &Value) -> Result<Job, String>;
}

impl<F> Runner for F
where
    F: Fn(&Value) -> Result<Job, String> + Send + Sync,
{
    fn prepare(&self, spec: &Value) -> Result<Job, String> {
        self(spec)
    }
}

struct Shared {
    runs: Mutex<BTreeMap<String, Arc<RunHandle>>>,
    runners: BTreeMap<String, Box<dyn Runner>>,
    queue_cap: usize,
    policy: BackoffPolicy,
    resume_grace: Duration,
    journal: Option<Mutex<Journal>>,
    chaos: ChaosState,
    addr: String,
    shutting_down: AtomicBool,
    /// Live run threads (supervision loops), counted so shutdown can
    /// wait for suspension to complete.
    active_runs: AtomicU64,
}

impl Shared {
    /// Appends one journal record; a write failure is logged, never
    /// fatal (the daemon degrades to non-durable operation).
    fn journal(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.lock().expect("journal lock").append(record) {
                eprintln!("digsd: journal append failed: {e}");
            }
        }
    }

    fn flush_journal(&self) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.lock().expect("journal lock").flush() {
                eprintln!("digsd: journal flush failed: {e}");
            }
        }
    }

    /// Validates `spec` with the runner registered for `kind` and packages
    /// the run; called again with the stored spec on every restart.
    fn prepare(&self, kind: &str, spec: &Value) -> Result<Job, String> {
        match self.runners.get(kind) {
            Some(runner) => runner.prepare(spec),
            None => Err(format!("unknown run kind `{kind}`")),
        }
    }

    /// Adds a run to the registry in `state`, its hub closed unless the
    /// state is live. `None` when the name is taken.
    fn register(
        &self,
        name: &str,
        kind: String,
        spec: Value,
        state: RunState,
    ) -> Option<Arc<RunHandle>> {
        let mut runs = self.runs.lock().expect("runs lock");
        if runs.contains_key(name) {
            return None;
        }
        let handle = Arc::new(RunHandle::new(name.to_string(), kind, spec, self.queue_cap, state));
        if !state.is_live() {
            handle.hub.close(None);
        }
        runs.insert(name.to_string(), Arc::clone(&handle));
        Some(handle)
    }
}

/// The digsd server. Bind, optionally register extra runners, then
/// [`Daemon::serve_forever`].
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the listener and installs the built-in `single` and `fleet`
    /// runners. `addr` may use port 0 to let the OS pick (see
    /// [`Daemon::local_addr`]). Opens (creating if needed) the journal,
    /// if configured; recovery itself happens in
    /// [`Daemon::serve_forever`], after embedders had a chance to
    /// register their runners.
    pub fn bind(addr: &str, config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let journal = match &config.journal {
            Some(path) => Some(Mutex::new(Journal::open(path)?)),
            None => None,
        };
        let mut runners: BTreeMap<String, Box<dyn Runner>> = BTreeMap::new();
        runners.insert("single".into(), Box::new(prepare_single as fn(&Value) -> _));
        runners.insert("fleet".into(), Box::new(prepare_fleet as fn(&Value) -> _));
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                runs: Mutex::new(BTreeMap::new()),
                runners,
                queue_cap: config.queue_cap,
                policy: config.backoff,
                resume_grace: config.resume_grace,
                journal,
                chaos: ChaosState::new(config.chaos),
                addr: local.to_string(),
                shutting_down: AtomicBool::new(false),
                active_runs: AtomicU64::new(0),
            }),
        })
    }

    /// Registers an additional runner kind (e.g. the CLI registers a
    /// `scenario` runner backed by the conformance matrix). Must be
    /// called before [`Daemon::serve_forever`].
    ///
    /// # Panics
    ///
    /// Panics if the daemon has already started serving (the registry is
    /// frozen once shared with connection threads).
    pub fn register_runner(&mut self, kind: &str, runner: Box<dyn Runner>) {
        Arc::get_mut(&mut self.shared)
            .expect("register runners before serving")
            .runners
            .insert(kind.to_string(), runner);
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Replays the journal, then accepts connections (one thread each)
    /// until a `shutdown` request suspends the live runs and returns.
    pub fn serve_forever(&self) -> std::io::Result<()> {
        self.recover();
        for stream in self.listener.incoming() {
            let stream = stream?;
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &shared);
            });
        }
        Ok(())
    }

    /// Journal recovery: terminal runs are re-registered so listings and
    /// name reservations survive the restart; incomplete runs are
    /// re-prepared and deterministically replayed, holding the replay up
    /// to the resume grace window so journaled subscribers can reconnect
    /// with their cursors first.
    fn recover(&self) {
        let Some(journal) = &self.shared.journal else { return };
        let path = journal.lock().expect("journal lock").path().to_path_buf();
        let recovery = match Journal::recover(&path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "digsd: journal recovery failed ({e}); continuing with an empty registry"
                );
                return;
            }
        };
        if recovery.corrupt_lines > 0 {
            eprintln!(
                "digsd: journal: skipped {} unparseable line(s) (a torn tail after a crash is expected)",
                recovery.corrupt_lines
            );
        }
        for rec in recovery.runs {
            let register = |state| {
                self.shared
                    .register(&rec.name, rec.kind.clone(), rec.spec.clone(), state)
                    .expect("the journal fold yields each run name once")
            };
            if let Some((state, asn)) = rec.ended {
                let handle = register(state);
                handle.asn.store(asn, Ordering::Relaxed);
                handle.restarts.store(rec.restarts, Ordering::Relaxed);
                continue;
            }
            let job = match self.shared.prepare(&rec.kind, &rec.spec) {
                Ok(job) => job,
                Err(e) => {
                    eprintln!("digsd: cannot resume run `{}`: {e}", rec.name);
                    register(RunState::Failed).asn.store(rec.asn, Ordering::Relaxed);
                    self.shared.journal(&Record::End {
                        run: rec.name,
                        state: RunState::Failed,
                        asn: rec.asn,
                    });
                    continue;
                }
            };
            eprintln!(
                "digsd: resuming run `{}` from journal (asn {}, seq {})",
                rec.name, rec.asn, rec.seq
            );
            let handle = register(RunState::Restarting);
            handle.restarts.store(rec.restarts, Ordering::Relaxed);
            handle.resume_asn.store(rec.asn, Ordering::Relaxed);
            self.shared.journal(&Record::Resume { run: rec.name, restarts: rec.restarts });
            let hold = (rec.subscribers.len(), self.shared.resume_grace);
            spawn_run(&self.shared, handle, job, Some(hold));
        }
    }
}

fn send(out: &mut TcpStream, msg: &ServerMsg) -> std::io::Result<()> {
    let mut line = msg.encode();
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn send_error(out: &mut TcpStream, code: ErrorCode, message: &str) -> std::io::Result<()> {
    send(out, &ServerMsg::Error { code, message: message.to_string() })
}

/// Longest request line a client may send: ~1000× the largest launch spec,
/// so a peer that never sends `\n` cannot grow daemon memory without limit.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Reads and decodes one request line. `None` means the connection is over:
/// the client hung up, or sent a line longer than [`MAX_REQUEST_BYTES`] and
/// got its one `bad-request` frame.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<Result<ClientMsg, String>>> {
    line.clear();
    if reader.take(MAX_REQUEST_BYTES as u64 + 1).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.len() > MAX_REQUEST_BYTES {
        let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
        send_error(writer, ErrorCode::BadRequest, &message)?;
        // Closing with the rest of the line unread would reset the
        // connection and could lose that frame: half-close, then discard
        // what the peer still sends (bounded, so it cannot hold us forever).
        writer.shutdown(Shutdown::Write)?;
        std::io::copy(&mut reader.take(16 * MAX_REQUEST_BYTES as u64), &mut std::io::sink())?;
        return Ok(None);
    }
    let text = std::str::from_utf8(line).map_err(|e| e.to_string());
    Ok(Some(text.and_then(|text| ClientMsg::decode(text.trim_end()))))
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    // A stream ends in two short writes, the `run-state` line and the
    // footer heartbeat. With Nagle's algorithm on, the second waits for the
    // peer's delayed ACK of the first: 40 ms on every stream end.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();

    // Version negotiation gates everything: any first message that is not
    // a hello with our version gets exactly one error frame and a close.
    let Some(hello) = read_request(&mut reader, &mut writer, &mut line)? else {
        return Ok(());
    };
    let client_name = match hello {
        Ok(ClientMsg::Hello { version, client }) if version == WIRE_VERSION => {
            send(
                &mut writer,
                &ServerMsg::HelloAck {
                    version: WIRE_VERSION,
                    server: format!("digsd/{}", env!("CARGO_PKG_VERSION")),
                },
            )?;
            client
        }
        Ok(ClientMsg::Hello { version, .. }) => {
            return send_error(
                &mut writer,
                ErrorCode::VersionMismatch,
                &format!("server speaks wire version {WIRE_VERSION}, client sent {version}"),
            );
        }
        Ok(_) => {
            return send_error(&mut writer, ErrorCode::BadRequest, "first message must be hello");
        }
        Err(e) => return send_error(&mut writer, ErrorCode::BadRequest, &e),
    };

    loop {
        let Some(request) = read_request(&mut reader, &mut writer, &mut line)? else {
            return Ok(());
        };
        let msg = match request {
            Ok(msg) => msg,
            Err(e) => {
                send_error(&mut writer, ErrorCode::BadRequest, &e)?;
                continue;
            }
        };
        match msg {
            ClientMsg::Hello { .. } => {
                send_error(&mut writer, ErrorCode::BadRequest, "already negotiated")?;
            }
            ClientMsg::Ping => send(&mut writer, &ServerMsg::Pong)?,
            ClientMsg::List => {
                let runs = shared.runs.lock().expect("runs lock");
                let rows = runs
                    .values()
                    .map(|h| RunInfo {
                        name: h.name.clone(),
                        kind: h.kind.clone(),
                        state: h.state(),
                        asn: h.progress(),
                        subscribers: h.hub.subscriber_count() as u64,
                        restarts: h.restarts(),
                        uptime_secs: h.started.elapsed().as_secs(),
                        drops: h.hub.drops_total(),
                    })
                    .collect();
                drop(runs);
                send(&mut writer, &ServerMsg::Runs { runs: rows })?;
            }
            ClientMsg::Kill { run } => {
                let handle = shared.runs.lock().expect("runs lock").get(&run).cloned();
                match handle {
                    None => send_error(&mut writer, ErrorCode::UnknownRun, &run)?,
                    Some(h) => {
                        h.kill.store(true, Ordering::Relaxed);
                        send(&mut writer, &ServerMsg::Ok)?;
                    }
                }
            }
            ClientMsg::Shutdown => {
                send(&mut writer, &ServerMsg::Ok)?;
                shutdown_daemon(shared);
                return Ok(());
            }
            ClientMsg::Subscribe { run, filter, from_seq } => {
                let handle = shared.runs.lock().expect("runs lock").get(&run).cloned();
                let Some(handle) = handle else {
                    send_error(&mut writer, ErrorCode::UnknownRun, &run)?;
                    continue;
                };
                let state = handle.state();
                if !state.is_live() {
                    // The hub is already closed; a fresh subscription
                    // would never see its terminal frame. Answer with the
                    // final state directly, ending with the same
                    // run-state + heartbeat footer every stream has.
                    send(&mut writer, &ServerMsg::Ok)?;
                    let asn = handle.progress();
                    send(&mut writer, &ServerMsg::RunEnded { run: run.clone(), state, asn })?;
                    send(&mut writer, &ServerMsg::Heartbeat { run, asn, sent: 0, dropped: 0 })?;
                    continue;
                }
                // `restarting` resolves here too: the hub stays open
                // across supervised restarts, so a subscriber arriving
                // between a failure and the retry attaches to the same
                // stream and rides through the restart.
                let sub = match from_seq {
                    Some(seq) => handle.hub.subscribe_from(filter, seq),
                    None => handle.hub.subscribe(filter),
                };
                send(&mut writer, &ServerMsg::Ok)?;
                stream_to(&mut writer, shared, &handle, &sub, &client_name)?;
            }
            ClientMsg::Launch { name, tail, filter, spec } => {
                if !valid_run_name(&name) {
                    send_error(
                        &mut writer,
                        ErrorCode::BadRequest,
                        "run names are [a-z0-9_-]{1,64}",
                    )?;
                    continue;
                }
                let kind =
                    spec.field("kind").and_then(Value::as_str).unwrap_or("single").to_string();
                let job = match shared.prepare(&kind, &spec) {
                    Ok(job) => job,
                    Err(e) => {
                        send_error(&mut writer, ErrorCode::BadSpec, &e)?;
                        continue;
                    }
                };
                let Some(handle) =
                    shared.register(&name, kind.clone(), spec.clone(), RunState::Running)
                else {
                    send_error(&mut writer, ErrorCode::NameTaken, &name)?;
                    continue;
                };
                shared.journal(&Record::Launch { run: name, kind, spec });
                // Tail subscriptions register before the run thread
                // starts: the subscriber is guaranteed the complete
                // stream, which is what makes a tailed export
                // byte-identical to a file export.
                let sub = tail.then(|| handle.hub.subscribe(filter));
                spawn_run(shared, Arc::clone(&handle), job, None);
                send(&mut writer, &ServerMsg::Ok)?;
                if let Some(sub) = sub {
                    stream_to(&mut writer, shared, &handle, &sub, &client_name)?;
                }
            }
        }
    }
}

/// Graceful shutdown (requested over the wire — the container has no
/// signal-handling crate, so `digs-cli digsd shutdown` plays the role of
/// SIGTERM): suspend every live run, wait for the run threads to journal
/// their cursors and close their hubs with a `restarting` epilogue,
/// flush the journal, then wake the accept loop so it can return.
fn shutdown_daemon(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    eprintln!("digsd: shutdown requested; suspending live runs");
    {
        let runs = shared.runs.lock().expect("runs lock");
        for h in runs.values() {
            if h.state().is_live() {
                h.suspend.store(true, Ordering::Relaxed);
                h.kill.store(true, Ordering::Relaxed);
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.active_runs.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    shared.flush_journal();
    // Self-connect to pop the blocking accept; serve_forever sees the
    // flag and returns.
    let _ = TcpStream::connect(&shared.addr);
}

/// Drains a subscription to the socket until the stream closes. Idle
/// periods emit heartbeats carrying the flow-control counters; the
/// stream's last frame is one more heartbeat after the terminal
/// `run-state` line, so every subscriber ends with an authoritative
/// sent/dropped summary. The subscriber's resume cursor is journaled on
/// heartbeat cadence so a daemon restart knows to hold the replay for
/// it. A write error detaches the subscription so the hub stops queueing
/// for it.
fn stream_to(
    writer: &mut TcpStream,
    shared: &Shared,
    handle: &RunHandle,
    sub: &Subscription,
    client: &str,
) -> std::io::Result<()> {
    let journal_cursor = |sub: &Subscription| {
        shared.journal(&Record::Subscriber {
            run: handle.name.clone(),
            client: client.to_string(),
            seq: sub.cursor(),
        });
    };
    let mut delivered: u64 = 0;
    // Journal the cursor immediately: a daemon killed right after this
    // subscriber arrived must still know, on recovery, to hold the
    // replay for its reconnect.
    journal_cursor(sub);
    let mut cursor_journaled = Instant::now();
    loop {
        let heartbeat = |sub: &Subscription| {
            let (sent, dropped) = sub.stats();
            ServerMsg::Heartbeat { run: handle.name.clone(), asn: handle.progress(), sent, dropped }
        };
        let step = match sub.recv_timeout(HEARTBEAT) {
            Recv::Lines { chunks, lines } => {
                shared.chaos.stall();
                if shared.chaos.should_drop_connection(delivered) {
                    sub.detach();
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "chaos: injected connection drop",
                    ));
                }
                delivered += lines as u64;
                chunks.iter().try_for_each(|chunk| writer.write_all(chunk.as_bytes()))
            }
            Recv::Idle => send(writer, &heartbeat(sub)),
            Recv::Closed => {
                journal_cursor(sub);
                return send(writer, &heartbeat(sub));
            }
        };
        if let Err(e) = step {
            sub.detach();
            return Err(e);
        }
        if cursor_journaled.elapsed() >= HEARTBEAT {
            journal_cursor(sub);
            cursor_journaled = Instant::now();
        }
    }
}

/// Spawns the supervised run thread and tracks it for shutdown. A
/// recovered run passes `hold`: the journaled subscriber count and the
/// grace window it waits for them, so they can reconnect and land their
/// cursors before sequence 0 regenerates.
fn spawn_run(
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
            (FrameKind::Trace, node, |out: &mut String| digs_trace::write_jsonl_line(out, e))
        }));
    }

    fn on_epoch(
        &mut self,
        snapshot: &digs::telemetry::EpochSnapshot,
        alerts: &[digs::telemetry::HealthAlert],
    ) {
        self.ctx.publish_with(FrameKind::Epoch, None, |out| {
            digs::telemetry::write_epoch_line(out, snapshot);
        });
        self.ctx.publish_batch(alerts.iter().map(|a| {
            (FrameKind::Alert, None, |out: &mut String| digs::telemetry::write_alert_line(out, a))
        }));
    }

    fn on_progress(&mut self, asn: u64) -> bool {
        self.ctx.set_progress(asn);
        self.ctx.chaos_tick(asn);
        !self.ctx.cancelled()
    }

    fn on_resume_complete(&mut self, asn: u64) {
        eprintln!("digsd: run `{}` replay caught up at asn {asn}", self.ctx.name());
    }
}

fn prepare_single(spec: &Value) -> Result<Job, String> {
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
                ctx.publish_with(FrameKind::Meta, None, |out| {
                    digs::telemetry::write_meta_line(out, sampler);
                });
            }
        }
        Ok(())
    }))
}

fn network_summary_line(s: &digs_fleet::NetworkSummary) -> String {
    Value::obj([
        ("label", Value::Str(s.label.clone())),
        ("nodes", Value::Int(u64::from(s.nodes))),
        ("flows", Value::Int(u64::from(s.flows))),
        ("generated", Value::Int(s.generated)),
        ("delivered", Value::Int(s.delivered)),
        ("pdr", Value::num(s.pdr)),
        ("worst_flow_pdr", Value::num(s.worst_flow_pdr)),
        ("fraction_joined", Value::num(s.fraction_joined)),
        ("alerts", Value::Int(s.alerts)),
        ("violations", Value::Int(s.violations)),
    ])
    .to_compact()
}

fn prepare_fleet(spec: &Value) -> Result<Job, String> {
    let params = FleetParams::from_json(spec)?;
    params.build()?; // validate now
    Ok(Box::new(move |ctx: &RunCtx| {
        let spec = params.build()?;
        let completed = AtomicU64::new(0);
        let on_network = |s: &digs_fleet::NetworkSummary| {
            ctx.set_progress(completed.fetch_add(1, Ordering::Relaxed) + 1);
            ctx.publish(FrameKind::Fleet, None, network_summary_line(s));
        };
        let observer =
            digs_fleet::FleetObserver { on_network: &on_network, cancel: ctx.cancel_flag() };
        let policy = digs_fleet::RunPolicy::default();
        let outcome = digs_fleet::run_fleet(&spec, params.jobs, Some(&observer), &policy);
        // Degraded runs ride the fleet frame stream too, so a tailing
        // client sees quarantines as they are accounted, not only in the
        // final meta report.
        for d in &outcome.degraded {
            ctx.publish(
                FrameKind::Fleet,
                None,
                Value::obj([
                    ("label", Value::Str(d.label.clone())),
                    ("degraded", Value::Str(d.reason.clone())),
                    ("attempts", Value::Int(u64::from(d.attempts))),
                    ("quarantined", Value::Bool(d.quarantined)),
                ])
                .to_compact(),
            );
        }
        let report = digs_fleet::aggregate_partial(
            &outcome.summaries,
            spec.secs,
            outcome.degraded,
            outcome.skipped,
        );
        let policy = digs_fleet::SloPolicy::new();
        ctx.publish(FrameKind::Meta, None, report.to_json(&policy).to_compact());
        Ok(())
    }))
}

#[allow(dead_code)]
fn _assert_network_send(n: Network) -> impl Send {
    n
}
