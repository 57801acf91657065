//! One client connection: version negotiation, the request loop, and the
//! stream that drains a [`Subscription`] to the socket. One thread per
//! connection, blocking line I/O.

use crate::hub::{Recv, Subscription};
use crate::journal::Record;
use crate::run::{prepare, spawn_run, RunHandle};
use crate::server::{shutdown_daemon, Shared, HEARTBEAT};
use crate::wire::{
    spec_kind, valid_run_name, ClientMsg, ErrorCode, RunInfo, RunState, ServerMsg, WIRE_VERSION,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

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

pub(crate) fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
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
                let prepared =
                    spec_kind(&spec).and_then(|kind| Ok((kind.to_string(), prepare(kind, &spec)?)));
                let (kind, job) = match prepared {
                    Ok(prepared) => prepared,
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
