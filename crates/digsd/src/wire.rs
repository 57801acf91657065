//! The digsd wire protocol: versioned, line-oriented JSON frames.
//!
//! Every message is one JSON object on one line, newline-terminated.
//! Each message type is declared by its rows ([`digs_json::message`](mod@digs_json::message)),
//! which give its codec and the tables DESIGN §4.12 prints — simplicity over
//! space efficiency, SIP-003 style. The load-bearing invariant is that
//! **event frames carry their payload as the last field, verbatim**, and a
//! client recovers the payload's *exact original bytes* as a slice of the
//! line instead of re-encoding a parsed value. That slice is what makes
//! streamed JSONL byte-identical to file export.
//!
//! An event frame is written like every other message, from its rows, with
//! the payload's bytes as they stand in its last row. It is read once:
//! [`digs_json::walk_fields`] checks the whole line against the one JSON
//! grammar — nesting bound and errors included — without building anything,
//! and hands back the top-level fields as slices of the line: the few head
//! fields are parsed from theirs, the payload is kept as the bytes it
//! arrived in. Every other message is rare and small and is read through a
//! [`Value`].

use crate::message::Verbatim;
use digs_json::message::{decode_line, Flat, Omitted, Rows};
use digs_json::{message, named, Value};
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

named! {
    /// What kind of payload an event frame carries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum FrameKind: "frame kind" {
        /// One flight-recorder event (a `digs_trace::Event` line).
        Trace = "trace",
        /// One telemetry epoch snapshot (a `digs::telemetry::EpochSnapshot`
        /// line).
        Epoch = "epoch",
        /// One health alert (a `digs::telemetry::HealthAlert` line).
        Alert = "alert",
        /// End-of-run summary line (telemetry meta line for single runs,
        /// a `RunMetrics` record for scenario runs).
        Meta = "meta",
        /// One per-network summary of a fleet run.
        Fleet = "fleet",
    }
}

named! {
    /// Lifecycle state of a run (see the state machine in DESIGN §4.12).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RunState: "run state" {
        /// The run thread is simulating.
        Running = "running",
        /// The run failed (or was suspended by a daemon shutdown / recovered
        /// from a journal) and the supervisor will restart it. The hub stays
        /// open: subscriptions attach to — and survive into — the restarted
        /// run.
        Restarting = "restarting",
        /// The run completed normally.
        Done = "done",
        /// The run was stopped by a `kill` request.
        Killed = "killed",
        /// The runner returned an error or panicked with no restart budget
        /// (`digsd serve --max-restarts 0`).
        Failed = "failed",
        /// The run kept failing past the poison threshold and the supervisor
        /// gave up (deterministic failures recur on every replay).
        Quarantined = "quarantined",
    }
}

impl RunState {
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

named! {
    /// Machine-readable error classes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode: "error code" {
        /// Client spoke a different [`WIRE_VERSION`].
        VersionMismatch = "version-mismatch",
        /// No run with that name.
        UnknownRun = "unknown-run",
        /// A run with that name already exists.
        NameTaken = "name-taken",
        /// Malformed or out-of-protocol message.
        BadRequest = "bad-request",
        /// The launch spec did not validate.
        BadSpec = "bad-spec",
    }
}

message! {
    /// A subscription filter. `None` means "everything" for that axis; the
    /// node filter only constrains frames that *have* a node (trace events) —
    /// network-level frames (epoch, alert, meta, fleet) always pass it.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Filter {
        /// Frame kinds to deliver (`None` = all).
        kinds: Option<BTreeSet<FrameKind>>,
        /// Source nodes to deliver trace events for (`None` = all).
        nodes: Option<BTreeSet<u16>>,
    }
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

message! {
    /// A message from a client to the server.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ClientMsg: "client message type" by "type" {
        /// Mandatory first message: version negotiation.
        Hello = "hello" {
            /// The client's [`WIRE_VERSION`].
            version: u64,
            /// Free-form client identification (for logs).
            client: String = String::new(),
        },
        /// Start a named run. With `tail`, the connection is subscribed
        /// *before* the run thread starts, guaranteeing a complete stream.
        Launch = "launch" {
            /// Run name (must satisfy [`valid_run_name`]).
            name: String,
            /// Subscribe this connection to the run's stream.
            tail: bool = false,
            /// Stream filter (only meaningful with `tail`).
            filter: Filter as Flat<Filter>,
            /// Runner spec, dispatched on its `"kind"` field.
            spec: Value,
        },
        /// Subscribe to an existing run's stream (mid-stream attach).
        Subscribe = "subscribe" {
            /// Run to attach to.
            run: String,
            /// Stream filter.
            filter: Filter as Flat<Filter>,
            /// Resume cursor: the first frame `seq` the client wants. `None`
            /// attaches at the live point; `Some(k)` asks the server to
            /// deliver from sequence `k` (frames below `k` are silently
            /// skipped — the replay path of crash recovery regenerates them
            /// and the subscription filters by cursor).
            from_seq: Option<u64>,
        },
        /// List runs.
        List = "list",
        /// Request cooperative cancellation of a run.
        Kill = "kill" {
            /// Run to kill.
            run: String,
        },
        /// Graceful daemon shutdown: suspend live runs (journal their
        /// cursors, no terminal `end` record, so they resume on the next
        /// start), send every subscriber the stream epilogue, flush the
        /// journal, and stop accepting connections.
        Shutdown = "shutdown",
        /// Liveness check.
        Ping = "ping",
    }
}

impl ClientMsg {
    /// Decodes one line.
    pub fn decode(line: &str) -> Result<ClientMsg, String> {
        decode_line(line, ClientMsg::take_fields)
    }
}

/// The runner a launch spec names: its `kind`, or `single` when that is
/// absent or `null`. Any other non-string is an error, not a default.
pub(crate) fn spec_kind(spec: &Value) -> Result<&str, String> {
    Ok(spec.opt_str("kind")?.unwrap_or("single"))
}

message! {
    /// One row of a `runs` listing.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunInfo {
        /// Run name.
        name: String,
        /// Runner kind (`single`, `fleet`, ...).
        kind: String,
        /// Lifecycle state.
        state: RunState,
        /// Progress marker (ASN for single runs, completed networks for
        /// fleet runs).
        asn: u64,
        /// Live subscriber count.
        subscribers: u64,
        /// Supervised restarts so far (counts journal-recovery resumes too).
        restarts: u64 = 0,
        /// Seconds since the run was registered with this daemon process.
        uptime_secs: u64 = 0,
        /// Frames dropped across live subscribers (bounded-queue overflow).
        drops: u64 = 0,
    }
}

message! {
    /// One streamed event. `payload` is the *raw bytes* of one deterministic
    /// JSONL line (without its newline); its row is the last, so decode can
    /// slice it back out unmodified.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EventFrame: "event" by "type" {
        /// Originating run.
        run: String,
        /// Payload kind.
        kind: FrameKind,
        /// Source node for trace events; `None` — no key — for
        /// network-level frames.
        node: Option<u16> as Omitted<u16>,
        /// Position in the run's frame stream. Assigned per frame whether or
        /// not anyone is subscribed, and reset to 0 when a run (re)starts —
        /// deterministic replay regenerates the identical sequence, which is
        /// what makes `from_seq` resume cursors meaningful.
        seq: u64,
        /// Raw payload line.
        payload: String as Verbatim,
    }
}

message! {
    /// A message from the server to a client.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServerMsg: "server message type" by "type" {
        /// Successful version negotiation.
        HelloAck = "hello-ack" {
            /// The server's [`WIRE_VERSION`].
            version: u64,
            /// Free-form server identification.
            server: String = String::new(),
        },
        /// Generic success acknowledgement.
        Ok = "ok",
        /// A request failed.
        Error = "error" {
            /// Machine-readable class.
            code: ErrorCode,
            /// Human-readable detail.
            message: String = String::new(),
        },
        /// Response to `list`.
        Runs = "runs" {
            /// One row per run, name order.
            runs: Vec<RunInfo>,
        },
        /// Periodic liveness + flow-control report on an idle stream.
        Heartbeat = "heartbeat" {
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
        RunEnded = "run-state" {
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
        RunRestarting = "run-restart" {
            /// The run.
            run: String,
            /// Restarts so far (this one included).
            restarts: u64,
            /// Supervisor backoff before the restart, milliseconds.
            backoff_ms: u64,
        },
        /// Response to `ping`.
        Pong = "pong",
    }
    structs {
        /// One streamed event.
        Event(EventFrame),
    }
}

impl EventFrame {
    /// Encodes with the payload spliced in verbatim as the final field.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64 + self.run.len() + self.payload.len());
        self.write_json(&mut out);
        out
    }

    /// Decodes in one pass over the line: [`digs_json::walk_fields`] checks
    /// it and slices out its top-level fields, and nothing is built. The
    /// payload is checked to be well-formed and otherwise opaque: it comes
    /// back as the exact bytes its value has in the line.
    pub fn decode(line: &str) -> Result<EventFrame, String> {
        Fields::walk(line)?.event()
    }
}

/// The top-level fields of one wire line, as the slices of it that
/// [`digs_json::walk_fields`] found while checking the whole line. Of a
/// repeated key the first one counts, as it does for [`Value::field`].
#[derive(Default)]
struct Fields<'a> {
    message: Option<&'a str>,
    run: Option<&'a str>,
    kind: Option<&'a str>,
    node: Option<&'a str>,
    seq: Option<&'a str>,
    payload: Option<&'a str>,
    /// Whether the field seen last was the payload that counts.
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
            let first = slot.is_none();
            if first {
                *slot = Some(value);
            }
            fields.payload_is_last = first && key == "payload";
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
    /// Decodes one line. An event line — nearly every line of a stream —
    /// is read once and nothing is built for its payload.
    pub fn decode(line: &str) -> Result<ServerMsg, String> {
        let fields = Fields::walk(line)?;
        if head_str("type", fields.message)? == "event" {
            return fields.event().map(ServerMsg::Event);
        }
        decode_line(line, ServerMsg::take_fields)
    }
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
        // Ill-typed, so none of these reads as a default: `tail` as
        // `false`, a kind as the empty name, a spec's kind as `single`.
        let tail = r#"{"type":"launch","name":"r","tail":"yes","spec":{}}"#;
        assert_eq!(ClientMsg::decode(tail).unwrap_err(), "`tail` is not a boolean");
        let kinds = r#"{"type":"subscribe","run":"r","kinds":["trace",7]}"#;
        assert_eq!(ClientMsg::decode(kinds).unwrap_err(), "`kinds[]` is not a string");
        let spec = |text: &str| digs_json::parse(text).expect("parses");
        assert_eq!(spec_kind(&spec(r#"{"kind":7}"#)).unwrap_err(), "`kind` is not a string");
        assert_eq!(spec_kind(&spec(r#"{"kind":null}"#)), Ok("single"));
        assert_eq!(spec_kind(&spec(r#"{"kind":"fleet"}"#)), Ok("fleet"));
    }

    #[test]
    fn a_repeated_key_counts_where_it_first_appears() {
        // The walk that reads event frames and the `Value` every other
        // message is read through keep the same occurrence.
        let event = r#"{"type":"event","run":"a","run":"b","kind":"meta","seq":1,"payload":{}}"#;
        assert_eq!(EventFrame::decode(event).expect("decodes").run, "a");
        let beat = r#"{"type":"heartbeat","run":"a","run":"b","asn":1,"sent":0,"dropped":0}"#;
        let Ok(ServerMsg::Heartbeat { run, .. }) = ServerMsg::decode(beat) else {
            panic!("a heartbeat")
        };
        assert_eq!(run, "a");
        // A second payload is not the payload, and the first is not last.
        let twice = event.replace(r#""payload":{}"#, r#""payload":{},"payload":[]"#);
        assert!(EventFrame::decode(&twice).unwrap_err().contains("last field"));
    }

    #[test]
    fn the_event_row_is_what_encode_writes() {
        let keys = |line: &str| {
            let mut keys = Vec::new();
            digs_json::walk_fields(line, |key, _| keys.push(key.to_string())).expect("parses");
            keys
        };
        let row: Vec<&str> = EventFrame::MESSAGE.fields.iter().map(|f| f.key).collect();
        for node in [Some(3), None] {
            let frame = EventFrame {
                run: "r".into(),
                kind: FrameKind::Trace,
                node,
                seq: 1,
                payload: "{}".into(),
            };
            let mut want = vec!["type"];
            want.extend(row.iter().filter(|&&key| key != "node" || node.is_some()));
            assert_eq!(keys(&frame.encode()), want);
        }
        assert!(ServerMsg::MESSAGES.contains(&EventFrame::MESSAGE));
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
