//! The digsd wire protocol: versioned, line-oriented JSON frames.
//!
//! Every message is one JSON object on one line, newline-terminated.
//! Explicit message structs with hand-rolled encode/decode (via
//! [`digs_json`]) — simplicity over space efficiency, SIP-003 style. The
//! full spec lives in DESIGN §4.12; the load-bearing invariant is that
//! **event frames carry their payload as the last field, verbatim**, and a
//! client recovers the payload's *exact original bytes* as a slice of the
//! line instead of re-encoding a parsed value. That slice is what makes
//! streamed JSONL byte-identical to file export.
//!
//! An event line is read once. [`digs_json::walk_fields`] checks the whole
//! line against the one JSON grammar — nesting bound and errors included —
//! without building anything, and hands back the top-level fields as slices
//! of the line: the few head fields are parsed from theirs, the payload is
//! kept as the bytes it arrived in. Every other message is rare and small
//! and goes through a [`Value`].

use digs_json::Value;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// Protocol version. A `hello` with any other version is rejected with
/// an [`ErrorCode::VersionMismatch`] before anything else is processed.
///
/// Version 2 added per-run frame sequence numbers (`seq` on event
/// frames, `from_seq` on subscribe), the supervision states
/// (`restarting`, `quarantined`), the `run-restart` control frame, and
/// the `shutdown` request (DESIGN §4.13).
pub const WIRE_VERSION: u64 = 2;

/// Run names are path- and shell-safe by construction.
pub fn valid_run_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

/// What kind of payload an event frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrameKind {
    /// One flight-recorder event (`digs_trace::write_jsonl_line`).
    Trace,
    /// One telemetry epoch snapshot (`digs::telemetry::write_epoch_line`).
    Epoch,
    /// One health alert (`digs::telemetry::write_alert_line`).
    Alert,
    /// End-of-run summary line (telemetry meta line for single runs,
    /// a `RunMetrics` record for scenario runs).
    Meta,
    /// One per-network summary of a fleet run.
    Fleet,
}

impl FrameKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            FrameKind::Trace => "trace",
            FrameKind::Epoch => "epoch",
            FrameKind::Alert => "alert",
            FrameKind::Meta => "meta",
            FrameKind::Fleet => "fleet",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<FrameKind, String> {
        match s {
            "trace" => Ok(FrameKind::Trace),
            "epoch" => Ok(FrameKind::Epoch),
            "alert" => Ok(FrameKind::Alert),
            "meta" => Ok(FrameKind::Meta),
            "fleet" => Ok(FrameKind::Fleet),
            other => Err(format!("unknown frame kind `{other}`")),
        }
    }
}

/// Lifecycle state of a run (see the state machine in DESIGN §4.12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The run thread is simulating.
    Running,
    /// The run failed (or was suspended by a daemon shutdown / recovered
    /// from a journal) and the supervisor will restart it. The hub stays
    /// open: subscriptions attach to — and survive into — the restarted
    /// run.
    Restarting,
    /// The run completed normally.
    Done,
    /// The run was stopped by a `kill` request.
    Killed,
    /// The runner returned an error or panicked with no restart budget
    /// (`DIGS_DIGSD_MAX_RESTARTS` = 0).
    Failed,
    /// The run kept failing past the poison threshold and the supervisor
    /// gave up (deterministic failures recur on every replay).
    Quarantined,
}

impl RunState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Restarting => "restarting",
            RunState::Done => "done",
            RunState::Killed => "killed",
            RunState::Failed => "failed",
            RunState::Quarantined => "quarantined",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<RunState, String> {
        match s {
            "running" => Ok(RunState::Running),
            "restarting" => Ok(RunState::Restarting),
            "done" => Ok(RunState::Done),
            "killed" => Ok(RunState::Killed),
            "failed" => Ok(RunState::Failed),
            "quarantined" => Ok(RunState::Quarantined),
            other => Err(format!("unknown run state `{other}`")),
        }
    }

    /// Whether the run can still produce frames (its hub is open).
    /// `restarting` is live: the supervisor or a daemon restart will
    /// resume publishing into the same hub.
    pub fn is_live(self) -> bool {
        matches!(self, RunState::Running | RunState::Restarting)
    }
}

impl fmt::Display for RunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Machine-readable error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Client spoke a different [`WIRE_VERSION`].
    VersionMismatch,
    /// No run with that name.
    UnknownRun,
    /// A run with that name already exists.
    NameTaken,
    /// Malformed or out-of-protocol message.
    BadRequest,
    /// The launch spec did not validate.
    BadSpec,
}

impl ErrorCode {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::UnknownRun => "unknown-run",
            ErrorCode::NameTaken => "name-taken",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::BadSpec => "bad-spec",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Result<ErrorCode, String> {
        match s {
            "version-mismatch" => Ok(ErrorCode::VersionMismatch),
            "unknown-run" => Ok(ErrorCode::UnknownRun),
            "name-taken" => Ok(ErrorCode::NameTaken),
            "bad-request" => Ok(ErrorCode::BadRequest),
            "bad-spec" => Ok(ErrorCode::BadSpec),
            other => Err(format!("unknown error code `{other}`")),
        }
    }
}

/// A subscription filter. `None` means "everything" for that axis; the
/// node filter only constrains frames that *have* a node (trace events) —
/// network-level frames (epoch, alert, meta, fleet) always pass it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Filter {
    /// Frame kinds to deliver (`None` = all).
    pub kinds: Option<BTreeSet<FrameKind>>,
    /// Source nodes to deliver trace events for (`None` = all).
    pub nodes: Option<BTreeSet<u16>>,
}

impl Filter {
    /// Whether a frame with this kind/node passes the filter.
    pub fn accepts(&self, kind: FrameKind, node: Option<u16>) -> bool {
        if self.kinds.as_ref().is_some_and(|ks| !ks.contains(&kind)) {
            return false;
        }
        match (node, &self.nodes) {
            (Some(n), Some(ns)) => ns.contains(&n),
            _ => true,
        }
    }
}

/// A message from a client to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Mandatory first message: version negotiation.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u64,
        /// Free-form client identification (for logs).
        client: String,
    },
    /// Start a named run. With `tail`, the connection is subscribed
    /// *before* the run thread starts, guaranteeing a complete stream.
    Launch {
        /// Run name (must satisfy [`valid_run_name`]).
        name: String,
        /// Subscribe this connection to the run's stream.
        tail: bool,
        /// Stream filter (only meaningful with `tail`).
        filter: Filter,
        /// Runner spec, dispatched on its `"kind"` field.
        spec: Value,
    },
    /// Subscribe to an existing run's stream (mid-stream attach).
    Subscribe {
        /// Run to attach to.
        run: String,
        /// Stream filter.
        filter: Filter,
        /// Resume cursor: the first frame `seq` the client wants. `None`
        /// attaches at the live point; `Some(k)` asks the server to
        /// deliver from sequence `k` (frames below `k` are silently
        /// skipped — the replay path of crash recovery regenerates them
        /// and the subscription filters by cursor).
        from_seq: Option<u64>,
    },
    /// List runs.
    List,
    /// Request cooperative cancellation of a run.
    Kill {
        /// Run to kill.
        run: String,
    },
    /// Graceful daemon shutdown: suspend live runs (journal their
    /// cursors, no terminal `end` record, so they resume on the next
    /// start), send every subscriber the stream epilogue, flush the
    /// journal, and stop accepting connections.
    Shutdown,
    /// Liveness check.
    Ping,
}

/// One row of a `runs` listing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Run name.
    pub name: String,
    /// Runner kind (`single`, `fleet`, ...).
    pub kind: String,
    /// Lifecycle state.
    pub state: RunState,
    /// Progress marker (ASN for single runs, completed networks for
    /// fleet runs).
    pub asn: u64,
    /// Live subscriber count.
    pub subscribers: u64,
    /// Supervised restarts so far (counts journal-recovery resumes too).
    pub restarts: u64,
    /// Seconds since the run was registered with this daemon process.
    pub uptime_secs: u64,
    /// Frames dropped across live subscribers (bounded-queue overflow).
    pub drops: u64,
}

/// One streamed event. `payload` is the *raw bytes* of one deterministic
/// JSONL line (without its newline); encode places it last so decode can
/// slice it back out unmodified.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFrame {
    /// Originating run.
    pub run: String,
    /// Payload kind.
    pub kind: FrameKind,
    /// Source node for trace events; `None` for network-level frames.
    pub node: Option<u16>,
    /// Position in the run's frame stream. Assigned per frame whether or
    /// not anyone is subscribed, and reset to 0 when a run (re)starts —
    /// deterministic replay regenerates the identical sequence, which is
    /// what makes `from_seq` resume cursors meaningful.
    pub seq: u64,
    /// Raw payload line.
    pub payload: String,
}

/// A message from the server to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Successful version negotiation.
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u64,
        /// Free-form server identification.
        server: String,
    },
    /// Generic success acknowledgement.
    Ok,
    /// A request failed.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Response to `list`.
    Runs {
        /// One row per run, name order.
        runs: Vec<RunInfo>,
    },
    /// One streamed event.
    Event(EventFrame),
    /// Periodic liveness + flow-control report on an idle stream.
    Heartbeat {
        /// The subscribed run.
        run: String,
        /// Current progress marker.
        asn: u64,
        /// Frames delivered to this subscriber so far.
        sent: u64,
        /// Frames dropped for this subscriber (bounded queue overflow).
        dropped: u64,
    },
    /// Terminal frame of a stream: the run reached a final state — or,
    /// with `state: restarting`, the daemon suspended the run for a
    /// graceful shutdown (re-attach later with a resume cursor).
    RunEnded {
        /// The run.
        run: String,
        /// Final state (`done`, `killed`, `failed`, `quarantined`), or
        /// `restarting` for a shutdown suspension.
        state: RunState,
        /// Final progress marker.
        asn: u64,
    },
    /// Control frame on a live stream: the run failed and the supervisor
    /// scheduled a restart. The subscription survives — replayed frames
    /// below the subscriber's cursor are skipped and the stream continues
    /// seamlessly.
    RunRestarting {
        /// The run.
        run: String,
        /// Restarts so far (this one included).
        restarts: u64,
        /// Supervisor backoff before the restart, milliseconds.
        backoff_ms: u64,
    },
    /// Response to `ping`.
    Pong,
}

fn kinds_json(kinds: &Option<BTreeSet<FrameKind>>) -> Value {
    match kinds {
        None => Value::Null,
        Some(ks) => Value::Arr(ks.iter().map(|k| Value::Str(k.as_str().to_string())).collect()),
    }
}

fn nodes_json(nodes: &Option<BTreeSet<u16>>) -> Value {
    match nodes {
        None => Value::Null,
        Some(ns) => Value::Arr(ns.iter().map(|n| Value::Int(u64::from(*n))).collect()),
    }
}

fn filter_fields(filter: &Filter, fields: &mut Vec<(String, Value)>) {
    fields.push(("kinds".into(), kinds_json(&filter.kinds)));
    fields.push(("nodes".into(), nodes_json(&filter.nodes)));
}

impl ClientMsg {
    /// Encodes to one line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ClientMsg::Hello { version, client } => Value::obj([
                ("type", Value::Str("hello".into())),
                ("version", Value::Int(*version)),
                ("client", Value::Str(client.clone())),
            ])
            .to_compact(),
            ClientMsg::Launch { name, tail, filter, spec } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("launch".into())),
                    ("name".to_string(), Value::Str(name.clone())),
                    ("tail".to_string(), Value::Bool(*tail)),
                ];
                filter_fields(filter, &mut fields);
                fields.push(("spec".to_string(), spec.clone()));
                Value::Obj(fields).to_compact()
            }
            ClientMsg::Subscribe { run, filter, from_seq } => {
                let mut fields = vec![
                    ("type".to_string(), Value::Str("subscribe".into())),
                    ("run".to_string(), Value::Str(run.clone())),
                ];
                filter_fields(filter, &mut fields);
                if let Some(seq) = from_seq {
                    fields.push(("from_seq".to_string(), Value::Int(*seq)));
                }
                Value::Obj(fields).to_compact()
            }
            ClientMsg::List => Value::obj([("type", Value::Str("list".into()))]).to_compact(),
            ClientMsg::Kill { run } => {
                Value::obj([("type", Value::Str("kill".into())), ("run", Value::Str(run.clone()))])
                    .to_compact()
            }
            ClientMsg::Shutdown => {
                Value::obj([("type", Value::Str("shutdown".into()))]).to_compact()
            }
            ClientMsg::Ping => Value::obj([("type", Value::Str("ping".into()))]).to_compact(),
        }
    }

    /// Decodes one line.
    pub fn decode(line: &str) -> Result<ClientMsg, String> {
        let v = digs_json::parse(line).map_err(|e| e.to_string())?;
        match v.str("type")? {
            "hello" => Ok(ClientMsg::Hello {
                version: v.uint("version")?,
                client: v.opt_str("client")?.unwrap_or_default().to_string(),
            }),
            "launch" => Ok(ClientMsg::Launch {
                name: v.str("name")?.to_string(),
                tail: matches!(v.field("tail"), Some(Value::Bool(true))),
                filter: decode_filter(&v)?,
                spec: v.req("spec")?.clone(),
            }),
            "subscribe" => Ok(ClientMsg::Subscribe {
                run: v.str("run")?.to_string(),
                filter: decode_filter(&v)?,
                from_seq: v.opt_uint("from_seq")?,
            }),
            "list" => Ok(ClientMsg::List),
            "kill" => Ok(ClientMsg::Kill { run: v.str("run")?.to_string() }),
            "shutdown" => Ok(ClientMsg::Shutdown),
            "ping" => Ok(ClientMsg::Ping),
            other => Err(format!("unknown client message type `{other}`")),
        }
    }
}

impl EventFrame {
    /// Encodes with the payload spliced in verbatim as the final field.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.run.len() + self.payload.len());
        EventFrame::encode_into(&mut out, &self.run, self.kind, self.node, self.seq, |out| {
            out.push_str(&self.payload);
        });
        out
    }

    /// Appends the line [`EventFrame::encode`] returns for these fields;
    /// `payload` appends the payload. The hub encodes through this into a
    /// buffer it reuses, with no frame or payload `String` between.
    pub fn encode_into(
        out: &mut String,
        run: &str,
        kind: FrameKind,
        node: Option<u16>,
        seq: u64,
        payload: impl FnOnce(&mut String),
    ) {
        out.push_str("{\"type\":\"event\",\"run\":");
        digs_json::write_string(out, run);
        out.push_str(",\"kind\":\"");
        out.push_str(kind.as_str());
        out.push('"');
        if let Some(n) = node {
            out.push_str(",\"node\":");
            digs_json::write_uint(out, n);
        }
        out.push_str(",\"seq\":");
        digs_json::write_uint(out, seq);
        out.push_str(",\"payload\":");
        payload(out);
        out.push('}');
    }

    /// Decodes in one pass over the line (see [`Fields`]). The payload is
    /// checked to be well-formed and otherwise opaque: it comes back as the
    /// exact bytes its value has in the line.
    pub fn decode(line: &str) -> Result<EventFrame, String> {
        Fields::walk(line)?.event()
    }
}

/// The top-level fields of one wire line, as the slices of it that
/// [`digs_json::walk_fields`] found while checking the whole line. Of a
/// repeated key the last one counts.
#[derive(Default)]
struct Fields<'a> {
    message: Option<&'a str>,
    run: Option<&'a str>,
    kind: Option<&'a str>,
    node: Option<&'a str>,
    seq: Option<&'a str>,
    payload: Option<&'a str>,
    /// Whether the field seen last was the payload.
    payload_is_last: bool,
}

impl<'a> Fields<'a> {
    fn walk(line: &'a str) -> Result<Fields<'a>, String> {
        let mut fields = Fields::default();
        digs_json::walk_fields(line, |key, value| {
            let slot = match key {
                "type" => &mut fields.message,
                "run" => &mut fields.run,
                "kind" => &mut fields.kind,
                "node" => &mut fields.node,
                "seq" => &mut fields.seq,
                "payload" => &mut fields.payload,
                _ => &mut None,
            };
            *slot = Some(value);
            fields.payload_is_last = key == "payload";
        })
        .map_err(|e| e.to_string())?;
        Ok(fields)
    }

    /// The event frame these fields spell: the head fields parsed from
    /// their slices, the payload as it stands.
    fn event(&self) -> Result<EventFrame, String> {
        let payload = self.payload.ok_or("event frame lacks a payload")?;
        if !self.payload_is_last {
            return Err("event frame's payload is not its last field".into());
        }
        let node = match self.node {
            None | Some("null") => None,
            Some(node) => Some(head_uint("node", node)?),
        };
        Ok(EventFrame {
            run: head_str("run", self.run)?.into_owned(),
            kind: FrameKind::parse(&head_str("kind", self.kind)?)?,
            node,
            seq: head_uint("seq", self.seq.ok_or("missing field `seq`")?)?,
            payload: payload.to_string(),
        })
    }
}

/// A head field that must be a non-negative integer fitting `T`, read from
/// its slice (which the walk has checked) with [`Value::to_uint`]'s errors.
fn head_uint<T: TryFrom<u64>>(key: &str, raw: &str) -> Result<T, String> {
    digs_json::raw_uint(raw).map_or(Value::Null, Value::Int).to_uint(key)
}

/// A required head field that must be a string.
fn head_str<'a>(key: &str, raw: Option<&'a str>) -> Result<Cow<'a, str>, String> {
    let raw = raw.ok_or_else(|| format!("missing field `{key}`"))?;
    digs_json::raw_str(raw).ok_or_else(|| format!("`{key}` is not a string"))
}

impl ServerMsg {
    /// Encodes to one line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ServerMsg::HelloAck { version, server } => Value::obj([
                ("type", Value::Str("hello-ack".into())),
                ("version", Value::Int(*version)),
                ("server", Value::Str(server.clone())),
            ])
            .to_compact(),
            ServerMsg::Ok => Value::obj([("type", Value::Str("ok".into()))]).to_compact(),
            ServerMsg::Error { code, message } => Value::obj([
                ("type", Value::Str("error".into())),
                ("code", Value::Str(code.as_str().into())),
                ("message", Value::Str(message.clone())),
            ])
            .to_compact(),
            ServerMsg::Runs { runs } => Value::obj([
                ("type", Value::Str("runs".into())),
                (
                    "runs",
                    Value::Arr(
                        runs.iter()
                            .map(|r| {
                                Value::obj([
                                    ("name", Value::Str(r.name.clone())),
                                    ("kind", Value::Str(r.kind.clone())),
                                    ("state", Value::Str(r.state.as_str().into())),
                                    ("asn", Value::Int(r.asn)),
                                    ("subscribers", Value::Int(r.subscribers)),
                                    ("restarts", Value::Int(r.restarts)),
                                    ("uptime_secs", Value::Int(r.uptime_secs)),
                                    ("drops", Value::Int(r.drops)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
            .to_compact(),
            ServerMsg::Event(frame) => frame.encode(),
            ServerMsg::Heartbeat { run, asn, sent, dropped } => Value::obj([
                ("type", Value::Str("heartbeat".into())),
                ("run", Value::Str(run.clone())),
                ("asn", Value::Int(*asn)),
                ("sent", Value::Int(*sent)),
                ("dropped", Value::Int(*dropped)),
            ])
            .to_compact(),
            ServerMsg::RunEnded { run, state, asn } => Value::obj([
                ("type", Value::Str("run-state".into())),
                ("run", Value::Str(run.clone())),
                ("state", Value::Str(state.as_str().into())),
                ("asn", Value::Int(*asn)),
            ])
            .to_compact(),
            ServerMsg::RunRestarting { run, restarts, backoff_ms } => Value::obj([
                ("type", Value::Str("run-restart".into())),
                ("run", Value::Str(run.clone())),
                ("restarts", Value::Int(*restarts)),
                ("backoff_ms", Value::Int(*backoff_ms)),
            ])
            .to_compact(),
            ServerMsg::Pong => Value::obj([("type", Value::Str("pong".into()))]).to_compact(),
        }
    }

    /// Decodes one line. An event line — nearly every line of a stream —
    /// is read once and nothing is built for its payload.
    pub fn decode(line: &str) -> Result<ServerMsg, String> {
        let fields = Fields::walk(line)?;
        let kind = head_str("type", fields.message)?;
        if kind == "event" {
            return fields.event().map(ServerMsg::Event);
        }
        let v = digs_json::parse(line).map_err(|e| e.to_string())?;
        match &*kind {
            "hello-ack" => Ok(ServerMsg::HelloAck {
                version: v.uint("version")?,
                server: v.opt_str("server")?.unwrap_or_default().to_string(),
            }),
            "ok" => Ok(ServerMsg::Ok),
            "error" => Ok(ServerMsg::Error {
                code: ErrorCode::parse(v.str("code")?)?,
                message: v.opt_str("message")?.unwrap_or_default().to_string(),
            }),
            "runs" => {
                let runs = v
                    .arr("runs")?
                    .iter()
                    .map(|r| {
                        Ok(RunInfo {
                            name: r.str("name")?.to_string(),
                            kind: r.str("kind")?.to_string(),
                            state: RunState::parse(r.str("state")?)?,
                            asn: r.uint("asn")?,
                            subscribers: r.uint("subscribers")?,
                            restarts: r.opt_uint("restarts")?.unwrap_or(0),
                            uptime_secs: r.opt_uint("uptime_secs")?.unwrap_or(0),
                            drops: r.opt_uint("drops")?.unwrap_or(0),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ServerMsg::Runs { runs })
            }
            "heartbeat" => Ok(ServerMsg::Heartbeat {
                run: v.str("run")?.to_string(),
                asn: v.uint("asn")?,
                sent: v.uint("sent")?,
                dropped: v.uint("dropped")?,
            }),
            "run-state" => Ok(ServerMsg::RunEnded {
                run: v.str("run")?.to_string(),
                state: RunState::parse(v.str("state")?)?,
                asn: v.uint("asn")?,
            }),
            "run-restart" => Ok(ServerMsg::RunRestarting {
                run: v.str("run")?.to_string(),
                restarts: v.uint("restarts")?,
                backoff_ms: v.uint("backoff_ms")?,
            }),
            "pong" => Ok(ServerMsg::Pong),
            other => Err(format!("unknown server message type `{other}`")),
        }
    }
}

fn decode_filter(v: &Value) -> Result<Filter, String> {
    let kinds = match v.field("kinds") {
        None | Some(Value::Null) => None,
        Some(Value::Arr(items)) => Some(
            items
                .iter()
                .map(|k| FrameKind::parse(k.as_str().unwrap_or_default()))
                .collect::<Result<BTreeSet<_>, _>>()?,
        ),
        Some(_) => return Err("kinds must be a list or null".into()),
    };
    let nodes = match v.field("nodes") {
        None | Some(Value::Null) => None,
        Some(Value::Arr(items)) => {
            Some(items.iter().map(|n| n.to_uint("nodes[]")).collect::<Result<BTreeSet<u16>, _>>()?)
        }
        Some(_) => return Err("nodes must be a list or null".into()),
    };
    Ok(Filter { kinds, nodes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_name_validation() {
        assert!(valid_run_name("factory-534_a"));
        assert!(!valid_run_name(""));
        assert!(!valid_run_name("UPPER"));
        assert!(!valid_run_name("has space"));
        assert!(!valid_run_name(&"x".repeat(65)));
    }

    #[test]
    fn event_frame_payload_survives_byte_exact() {
        // A payload whose text contains the marker itself: slicing must
        // still find the frame's own (first) payload field.
        let payload = r#"{"seq":7,"detail":"contains ,\"payload\": text","x":1.5}"#;
        let frame = EventFrame {
            run: "r1".into(),
            kind: FrameKind::Trace,
            node: Some(12),
            seq: 41,
            payload: payload.to_string(),
        };
        let line = frame.encode();
        let back = EventFrame::decode(&line).expect("decodes");
        assert_eq!(back, frame);
        assert_eq!(back.payload, payload, "payload bytes must be untouched");
        assert_eq!(back.seq, 41);
    }

    #[test]
    fn event_frame_refuses_what_it_cannot_slice_or_hold() {
        let ok = r#"{"type":"event","run":"r","kind":"trace","node":65535,"seq":1,"payload":{}}"#;
        assert_eq!(EventFrame::decode(ok).expect("decodes").node, Some(u16::MAX));
        // Node 70000 used to arrive as 4464.
        let err = EventFrame::decode(&ok.replace("65535", "70000")).unwrap_err();
        assert!(err.contains("node") && err.contains("70000"), "{err}");
        // The head integers read from their slices by the rule every other
        // integer field is read by: a float that spells one is one.
        let spelled = EventFrame::decode(&ok.replace("65535", "6.5e4").replace(":1,", ":1.0,"));
        assert_eq!(spelled.map(|f| (f.node, f.seq)), Ok((Some(65000), 1)));
        assert_eq!(EventFrame::decode(&ok.replace("65535", "null")).expect("decodes").node, None);
        for bad in [":-1,", ":1.5,", ":\"1\",", ":[1],"] {
            let err = EventFrame::decode(&ok.replace(":1,", bad)).unwrap_err();
            assert!(err.contains("`seq` is not a non-negative integer"), "{bad}: {err}");
        }
        // Only the top-level `payload` is the payload, whatever the rest of
        // the line looks like; it comes back without the space around it.
        let nested =
            r#"{"run":"r","kind":"trace","seq":1,"x":{"a":1,"payload":2},"payload": [3, 4] }"#;
        assert_eq!(EventFrame::decode(nested).expect("decodes").payload, "[3, 4]");
        assert!(EventFrame::decode(r#"{"run":"r","kind":"trace","seq":1}"#).is_err());
        // The payload must be the last field, and the whole line — payload
        // included — one well-formed document.
        let err =
            EventFrame::decode(&ok.replace(r#","seq":1,"payload":{}"#, r#","payload":{},"seq":1"#));
        assert!(err.unwrap_err().contains("last field"));
        for broken in [ok.replace("{}}", "{]}"), ok.replace("{}}", "{}"), format!("{ok}}}")] {
            assert!(EventFrame::decode(&broken).is_err(), "{broken}");
            assert!(ServerMsg::decode(&broken).is_err(), "{broken}");
        }
    }

    #[test]
    fn counters_and_cursors_are_exact_over_the_whole_u64_range() {
        let beat =
            ServerMsg::Heartbeat { run: "r".into(), asn: u64::MAX, sent: u64::MAX - 1, dropped: 3 };
        assert!(beat.encode().contains("18446744073709551615"), "{}", beat.encode());
        assert_eq!(ServerMsg::decode(&beat.encode()), Ok(beat));
        let sub = ClientMsg::Subscribe {
            run: "r".into(),
            filter: Filter::default(),
            from_seq: Some((1 << 53) + 1),
        };
        assert_eq!(ClientMsg::decode(&sub.encode()), Ok(sub));
        let frame = EventFrame {
            run: "r".into(),
            kind: FrameKind::Meta,
            node: None,
            seq: u64::MAX,
            payload: "{}".into(),
        };
        assert_eq!(EventFrame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn out_of_range_and_ill_typed_fields_are_errors() {
        let nodes = r#"{"type":"subscribe","run":"r","nodes":[70000]}"#;
        assert!(ClientMsg::decode(nodes).unwrap_err().contains("70000"));
        let cursor = r#"{"type":"subscribe","run":"r","from_seq":-1}"#;
        assert!(ClientMsg::decode(cursor).unwrap_err().contains("from_seq"));
        let version = r#"{"type":"hello","version":1.5}"#;
        assert!(ClientMsg::decode(version).unwrap_err().contains("version"));
        let beat = r#"{"type":"heartbeat","run":"r","asn":1e30,"sent":0,"dropped":0}"#;
        assert!(ServerMsg::decode(beat).unwrap_err().contains("asn"));
    }

    #[test]
    fn subscribe_cursor_round_trips() {
        for from_seq in [None, Some(0), Some(977)] {
            let msg = ClientMsg::Subscribe { run: "r".into(), filter: Filter::default(), from_seq };
            assert_eq!(ClientMsg::decode(&msg.encode()), Ok(msg));
        }
        assert_eq!(ClientMsg::decode(&ClientMsg::Shutdown.encode()), Ok(ClientMsg::Shutdown));
    }

    #[test]
    fn supervision_frames_round_trip() {
        let msg = ServerMsg::RunRestarting { run: "r".into(), restarts: 2, backoff_ms: 400 };
        assert_eq!(ServerMsg::decode(&msg.encode()), Ok(msg));
        for state in [RunState::Restarting, RunState::Quarantined] {
            let msg = ServerMsg::RunEnded { run: "r".into(), state, asn: 9 };
            assert_eq!(ServerMsg::decode(&msg.encode()), Ok(msg));
            assert_eq!(RunState::parse(state.as_str()), Ok(state));
        }
        assert!(RunState::Restarting.is_live());
        assert!(!RunState::Quarantined.is_live());
    }

    #[test]
    fn filter_semantics() {
        let all = Filter::default();
        assert!(all.accepts(FrameKind::Trace, Some(3)));
        let mut kinds = BTreeSet::new();
        kinds.insert(FrameKind::Alert);
        let mut nodes = BTreeSet::new();
        nodes.insert(5u16);
        let f = Filter { kinds: Some(kinds), nodes: Some(nodes) };
        assert!(!f.accepts(FrameKind::Trace, Some(5)));
        assert!(f.accepts(FrameKind::Alert, None), "network-level frames pass node filters");
        assert!(f.accepts(FrameKind::Alert, Some(5)));
        assert!(!f.accepts(FrameKind::Alert, Some(6)));
    }
}
