//! The daemon: a TCP accept loop, a run registry, supervised run
//! threads, and an optional durable journal that makes the whole thing
//! crash-recoverable.
//!
//! Threading model: one thread per connection ([`crate::session`],
//! blocking line I/O), one thread per run ([`crate::run`]). Runs publish
//! through [`crate::run::RunCtx`]; connections drain their
//! [`crate::hub::Subscription`]s. The engine side never blocks on the
//! network side — that property lives entirely in [`crate::hub`].
//!
//! Crash resilience (DESIGN §4.13) rests on determinism: a run is a pure
//! function of its spec and seed, so the journal only needs to remember
//! *that* a run was launched and *how far* its stream got. Recovery (and
//! the in-process supervisor) re-prepares the job from the journaled
//! spec and replays it from slot 0; subscriber sequence cursors silently
//! skip the already-delivered prefix, making a resumed stream
//! byte-identical to an uninterrupted one.

use crate::chaos::{ChaosConfig, ChaosState};
use crate::hub::BackoffPolicy;
use crate::journal::{Journal, Record};
use crate::run::{prepare, spawn_run, RunHandle};
use crate::session::serve_connection;
use crate::wire::RunState;
use digs_json::Value;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
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

pub(crate) struct Shared {
    pub(crate) runs: Mutex<BTreeMap<String, Arc<RunHandle>>>,
    queue_cap: usize,
    pub(crate) policy: BackoffPolicy,
    resume_grace: Duration,
    journal: Option<Mutex<Journal>>,
    pub(crate) chaos: ChaosState,
    addr: String,
    shutting_down: AtomicBool,
    /// Live run threads (supervision loops), counted so shutdown can
    /// wait for suspension to complete.
    pub(crate) active_runs: AtomicU64,
}

impl Shared {
    /// Appends one journal record; a write failure is logged, never
    /// fatal (the daemon degrades to non-durable operation).
    pub(crate) fn journal(&self, record: &Record) {
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

    /// Adds a run to the registry in `state`, its hub closed unless the
    /// state is live. `None` when the name is taken.
    pub(crate) fn register(
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

/// The digsd server. Bind, then [`Daemon::serve_forever`].
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the listener. `addr` may use port 0 to let the OS pick (see
    /// [`Daemon::local_addr`]). Opens (creating if needed) the journal,
    /// if configured; recovery itself happens in
    /// [`Daemon::serve_forever`].
    pub fn bind(addr: &str, config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let journal = match &config.journal {
            Some(path) => Some(Mutex::new(Journal::open(path)?)),
            None => None,
        };
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                runs: Mutex::new(BTreeMap::new()),
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
            let job = match prepare(&rec.kind, &rec.spec) {
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

/// Graceful shutdown (requested over the wire — the container has no
/// signal-handling crate, so `digs-cli digsd shutdown` plays the role of
/// SIGTERM): suspend every live run, wait for the run threads to journal
/// their cursors and close their hubs with a `restarting` epilogue,
/// flush the journal, then wake the accept loop so it can return.
pub(crate) fn shutdown_daemon(shared: &Shared) {
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
