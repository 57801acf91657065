//! A blocking digsd client: one TCP connection, hello handshake, typed
//! send/receive. The CLI's `digsd` subcommands, the attached dashboard,
//! and the attached conformance gate are all built on this.
//!
//! [`ResumableStream`] layers crash resilience on top: it tracks the
//! per-frame sequence cursor and, when the transport dies (daemon crash,
//! dropped connection), reconnects with backoff and resubscribes from
//! the cursor — the server's replay dedup plus the client-side cursor
//! make the reassembled stream identical to an uninterrupted one, with
//! any true losses surfaced as counted gaps instead of silent holes.

use crate::wire::{
    ClientMsg, ErrorCode, EventFrame, Filter, RunInfo, RunState, ServerMsg, WIRE_VERSION,
};
use digs_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bytes the client reads from its socket at a time. A tailed stream arrives
/// as the hub's batches — tens of KiB of lines at once — and every refill is
/// a `read` system call on the thread that also decodes them.
const READ_BUFFER: usize = 64 << 10;

/// A connected, version-negotiated client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The line being received; kept so a stream of frames reuses one
    /// buffer.
    line: String,
}

impl Client {
    /// Connects and negotiates [`WIRE_VERSION`].
    pub fn connect(addr: &str, name: &str) -> Result<Client, String> {
        Client::connect_with_version(addr, name, WIRE_VERSION)
    }

    /// Connects claiming an arbitrary wire version — the mismatch path is
    /// part of the protocol surface and tested as such.
    pub fn connect_with_version(addr: &str, name: &str, version: u64) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("cloning stream: {e}"))?;
        let reader = BufReader::with_capacity(READ_BUFFER, stream);
        let mut client = Client { writer, reader, line: String::new() };
        client.send(&ClientMsg::Hello { version, client: name.to_string() })?;
        match client.recv()? {
            ServerMsg::HelloAck { .. } => Ok(client),
            ServerMsg::Error { code, message } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("unexpected handshake reply: {other:?}")),
        }
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &ClientMsg) -> Result<(), String> {
        let mut line = msg.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send failed: {e}"))
    }

    /// Receives one message (blocking). A closed connection is an error —
    /// streams always end with an explicit `run-state` frame.
    pub fn recv(&mut self) -> Result<ServerMsg, String> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| format!("recv failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        ServerMsg::decode(self.line.trim_end())
    }

    fn expect_ok(&mut self) -> Result<(), String> {
        match self.recv()? {
            ServerMsg::Ok => Ok(()),
            ServerMsg::Error { code, message } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("expected ok, got {other:?}")),
        }
    }

    /// Launches a run. With `tail`, the server streams the complete run
    /// over this connection after the acknowledgement — drain it with
    /// [`Client::recv`] until a `run-state` frame.
    pub fn launch(
        &mut self,
        name: &str,
        spec: Value,
        tail: bool,
        filter: Filter,
    ) -> Result<(), String> {
        self.send(&ClientMsg::Launch { name: name.to_string(), tail, filter, spec })?;
        self.expect_ok()
    }

    /// Attaches to a run's stream. With no `from_seq` the stream starts at
    /// the live point (frames published before this call are not
    /// replayed); with one, the server delivers only frames with that
    /// sequence or later, which is how a reconnecting client resumes
    /// without duplicates after a daemon restart replays the run. An
    /// already-finished run acknowledges and immediately delivers its
    /// terminal frame.
    pub fn subscribe(
        &mut self,
        run: &str,
        filter: Filter,
        from_seq: Option<u64>,
    ) -> Result<(), String> {
        self.send(&ClientMsg::Subscribe { run: run.to_string(), filter, from_seq })?;
        self.expect_ok()
    }

    /// Lists runs.
    pub fn list(&mut self) -> Result<Vec<RunInfo>, String> {
        self.send(&ClientMsg::List)?;
        match self.recv()? {
            ServerMsg::Runs { runs } => Ok(runs),
            ServerMsg::Error { code, message } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("expected runs, got {other:?}")),
        }
    }

    /// Requests cooperative cancellation of a run.
    pub fn kill(&mut self, run: &str) -> Result<(), String> {
        self.send(&ClientMsg::Kill { run: run.to_string() })?;
        self.expect_ok()
    }

    /// Requests a graceful daemon shutdown: live runs are suspended
    /// (journal cursor written, stream closed with a `restarting`
    /// epilogue, no terminal record — they resume on the next start) and
    /// the accept loop returns. The wire-level stand-in for SIGTERM.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&ClientMsg::Shutdown)?;
        self.expect_ok()
    }

    /// Round-trips a ping.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send(&ClientMsg::Ping)?;
        match self.recv()? {
            ServerMsg::Pong => Ok(()),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// Reads the next element of a tailed stream. A `run-state` frame is
    /// followed by the stream's footer heartbeat; both are folded into
    /// one [`StreamItem::End`].
    pub fn next_stream_item(&mut self) -> Result<StreamItem, String> {
        match self.recv()? {
            ServerMsg::Event(frame) => Ok(StreamItem::Event(frame)),
            ServerMsg::Heartbeat { asn, sent, dropped, .. } => {
                Ok(StreamItem::Heartbeat { asn, sent, dropped })
            }
            ServerMsg::RunRestarting { restarts, backoff_ms, .. } => {
                Ok(StreamItem::Restart { restarts, backoff_ms })
            }
            ServerMsg::RunEnded { state, asn, .. } => match self.recv()? {
                ServerMsg::Heartbeat { sent, dropped, .. } => {
                    Ok(StreamItem::End(StreamEnd { state, asn, sent, dropped }))
                }
                other => Err(format!("expected stream footer heartbeat, got {other:?}")),
            },
            other => Err(format!("unexpected frame in stream: {other:?}")),
        }
    }
}

/// One element of a tailed stream (see [`Client::next_stream_item`]).
#[derive(Debug)]
pub enum StreamItem {
    /// A payload frame.
    Event(EventFrame),
    /// An idle-period flow-control report.
    Heartbeat {
        /// Run progress marker.
        asn: u64,
        /// Frames delivered to this subscriber.
        sent: u64,
        /// Frames dropped for this subscriber.
        dropped: u64,
    },
    /// The supervisor is restarting the run after a failure; the stream
    /// stays open and resumes (deduplicated) after the backoff.
    Restart {
        /// Restart attempts so far.
        restarts: u64,
        /// Backoff before the attempt, milliseconds.
        backoff_ms: u64,
    },
    /// The stream is complete.
    End(StreamEnd),
}

/// How a stream finished: the terminal run state plus the subscriber's
/// authoritative flow-control totals.
#[derive(Debug, Clone, Copy)]
pub struct StreamEnd {
    /// Final run state (`done`, `killed`, `failed`, `quarantined` — or
    /// `restarting` when the daemon suspended the run for shutdown).
    pub state: RunState,
    /// Final progress marker.
    pub asn: u64,
    /// Total frames delivered to this subscriber.
    pub sent: u64,
    /// Total frames dropped for this subscriber.
    pub dropped: u64,
}

/// Maps a protocol error string back to its code, if it carries one.
/// Convenience for callers that branch on `version-mismatch`.
pub fn error_code(message: &str) -> Option<ErrorCode> {
    let head = message.split(':').next()?;
    ErrorCode::parse(head).ok()
}

/// A stream that survives daemon crashes and dropped connections.
///
/// Wraps a tailed or attached stream and owns its resume cursor: every
/// payload frame advances `next_seq`; when the transport fails, the
/// stream reconnects with exponential backoff and resubscribes from the
/// cursor. Duplicates from a server-side replay are filtered here as a
/// second line of defense (the server's cursor dedup is the first), and
/// forward sequence jumps — true losses from bounded-queue drops — are
/// *counted*, never silently skipped over.
///
/// Flow-control accounting is cumulative across reconnects and reported
/// in this stream's own terms: `sent` is frames actually handed to the
/// caller, `dropped` is the loss estimate from [`ResumableStream::lost`].
pub struct ResumableStream {
    addr: String,
    client_name: String,
    run: String,
    filter: Filter,
    client: Option<Client>,
    /// First sequence still wanted; `None` until the first frame of a
    /// live (cursor-less) attach pins the stream position.
    next_seq: Option<u64>,
    delivered: u64,
    /// Observed sequence jumps. Only meaningful on an unfiltered stream:
    /// filtered-out frames consume sequences too, so under a filter a
    /// jump usually means "not subscribed", not "lost".
    seq_gaps: u64,
    /// Whether `seq_gaps` equals true loss (no filter narrows the
    /// stream).
    track_gaps: bool,
    /// Server-reported overflow drops from connections that already
    /// died, plus the latest report from the live one — the loss
    /// estimate for filtered streams.
    carry_dropped: u64,
    conn_dropped: u64,
    reconnects: u64,
}

/// How long a reconnect loop keeps retrying: enough for a supervised
/// daemon restart.
const RETRY_BUDGET: Duration = Duration::from_secs(15);

impl ResumableStream {
    /// Launches a run and tails it from sequence 0 with resilience: if
    /// the connection (or the daemon) dies mid-stream, the stream
    /// reattaches by name with its cursor.
    pub fn launch(
        addr: &str,
        client_name: &str,
        run: &str,
        spec: Value,
        filter: Filter,
    ) -> Result<ResumableStream, String> {
        let mut client = Client::connect(addr, client_name)?;
        client.launch(run, spec, true, filter.clone())?;
        Ok(ResumableStream::assemble(addr, client_name, run, filter, Some(client), Some(0)))
    }

    /// Attaches to a run: at the live point (no replay of earlier frames)
    /// without `from_seq`, else from that cursor (e.g. carried over from a
    /// previous process via the journal or a saved offset); reconnects
    /// resume from wherever the stream got to.
    pub fn attach(
        addr: &str,
        client_name: &str,
        run: &str,
        filter: Filter,
        from_seq: Option<u64>,
    ) -> Result<ResumableStream, String> {
        let mut client = Client::connect(addr, client_name)?;
        client.subscribe(run, filter.clone(), from_seq)?;
        Ok(ResumableStream::assemble(addr, client_name, run, filter, Some(client), from_seq))
    }

    fn assemble(
        addr: &str,
        client_name: &str,
        run: &str,
        filter: Filter,
        client: Option<Client>,
        next_seq: Option<u64>,
    ) -> ResumableStream {
        let track_gaps = filter.kinds.is_none() && filter.nodes.is_none();
        ResumableStream {
            addr: addr.to_string(),
            client_name: client_name.to_string(),
            run: run.to_string(),
            filter,
            client,
            next_seq,
            delivered: 0,
            seq_gaps: 0,
            track_gaps,
            carry_dropped: 0,
            conn_dropped: 0,
            reconnects: 0,
        }
    }

    /// The resume cursor: first sequence still wanted.
    pub fn cursor(&self) -> Option<u64> {
        self.next_seq
    }

    /// Successful reconnects so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Estimated frames lost to this subscriber: the exact sequence gap
    /// on an unfiltered stream (bounded-queue drops plus frames missed
    /// while disconnected from a live run), cumulative server-reported
    /// overflow drops under a filter (where sequence jumps also come
    /// from frames the filter excludes).
    pub fn lost(&self) -> u64 {
        if self.track_gaps {
            self.seq_gaps
        } else {
            self.carry_dropped + self.conn_dropped
        }
    }

    /// Frames handed to the caller so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The next stream element, transparently reconnecting on transport
    /// failure. Heartbeat and end totals are rewritten to this stream's
    /// cumulative accounting (frames delivered to the caller / total
    /// sequence gap). An `End` with state `restarting` means the daemon
    /// suspended the run for shutdown — the caller decides whether to
    /// wait for the daemon to come back and re-attach.
    pub fn next_item(&mut self) -> Result<StreamItem, String> {
        loop {
            if self.client.is_none() {
                self.reconnect()?;
            }
            let client = self.client.as_mut().expect("reconnect() leaves a client");
            match client.next_stream_item() {
                Ok(StreamItem::Event(frame)) => {
                    let next = self.next_seq.unwrap_or(frame.seq);
                    if frame.seq < next {
                        continue; // replayed duplicate: already delivered
                    }
                    if frame.seq > next {
                        self.seq_gaps += frame.seq - next;
                    }
                    self.next_seq = Some(frame.seq + 1);
                    self.delivered += 1;
                    return Ok(StreamItem::Event(frame));
                }
                Ok(StreamItem::Heartbeat { asn, dropped, .. }) => {
                    self.conn_dropped = dropped;
                    return Ok(StreamItem::Heartbeat {
                        asn,
                        sent: self.delivered,
                        dropped: self.lost(),
                    });
                }
                Ok(restart @ StreamItem::Restart { .. }) => return Ok(restart),
                Ok(StreamItem::End(end)) => {
                    self.client = None;
                    self.conn_dropped = end.dropped;
                    return Ok(StreamItem::End(StreamEnd {
                        state: end.state,
                        asn: end.asn,
                        sent: self.delivered,
                        dropped: self.lost(),
                    }));
                }
                Err(_) => {
                    // Transport failure: reconnect with the cursor. The
                    // specific error is uninteresting — either the
                    // reconnect loop heals it or it reports the final
                    // failure with context. The dead connection's drop
                    // count is banked; the next one reports from zero.
                    self.carry_dropped += self.conn_dropped;
                    self.conn_dropped = 0;
                    self.client = None;
                }
            }
        }
    }

    /// Reconnect loop: exponential backoff within the retry budget. An
    /// unknown-run reply is terminal (the daemon is back but lost the
    /// run — no journal, or the name was never launched); a terminal-
    /// state run is *not* an error (subscribe succeeds and the stream
    /// delivers its end frame).
    fn reconnect(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + RETRY_BUDGET;
        let mut delay = Duration::from_millis(100);
        loop {
            let attempt = Client::connect(&self.addr, &self.client_name).and_then(|mut c| {
                c.subscribe(&self.run, self.filter.clone(), self.next_seq)?;
                Ok(c)
            });
            match attempt {
                Ok(client) => {
                    self.client = Some(client);
                    self.reconnects += 1;
                    return Ok(());
                }
                Err(e) => {
                    if error_code(&e) == Some(ErrorCode::UnknownRun) {
                        return Err(format!(
                            "run `{}` is gone after reconnect (daemon restarted without it): {e}",
                            self.run
                        ));
                    }
                    if Instant::now() + delay >= deadline {
                        return Err(format!(
                            "reconnect to {} for run `{}` failed within the retry budget: {e}",
                            self.addr, self.run
                        ));
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_secs(2));
                }
            }
        }
    }
}
