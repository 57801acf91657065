//! Decoder fuzz (ROADMAP 4b), deterministic per seed. Random bytes, bit- and
//! byte-mutated valid lines, truncations, nesting bombs and 1 MiB strings go
//! through every decoder that reads text from outside the program — the
//! daemon's messages, trace events, telemetry lines and the view a client
//! draws from them. Each call must return — `Ok` or `Err`, never a panic or
//! a stack overflow — and whatever decodes must re-encode and decode again
//! to itself.
//! `digs_json::walk_fields`, the reading of the grammar that builds nothing,
//! must agree with `parse` on every one of those inputs.

use digs::audit::{InvariantKind, InvariantViolation};
use digs::results::{FlowResult, NodeResult, RunResults};
use digs::telemetry::{TelemetryLine, TelemetryView, Window};
use digs_cases::Draw;
use digs_conformance::golden::Golden;
use digs_conformance::RunMetrics;
use digs_digsd::{ClientMsg, EventFrame, FleetParams, Journal, Record, ServerMsg, SingleSpec};
use digs_fleet::{aggregate_partial, DegradedRun, FleetReport, NetworkSummary};
use digs_json::message::{decode_line, Rows};
use digs_json::Value;
use digs_metrics::LogHistogram;
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::seeds::SeedSpec;
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_trace::{Event, EventKind, PacketId, TrafficClass};
use std::fmt::Debug;

#[path = "../../digsd/tests/drawn/mod.rs"]
mod drawn;

/// If `input` decodes, the value must survive its own encoder.
fn round_trip<T: PartialEq + Debug, E: Debug>(
    what: &str,
    input: &str,
    decode: impl Fn(&str) -> Result<T, E>,
    encode: impl Fn(&T) -> String,
) {
    if let Ok(value) = decode(input) {
        let text = encode(&value);
        match decode(&text) {
            Ok(again) => assert_eq!(again, value, "{what}: {input:?} re-encoded as {text:?}"),
            Err(e) => {
                panic!("{what}: {input:?} decoded, but its re-encoding {text:?} did not: {e:?}")
            }
        }
    }
}

/// A launch spec as the daemon decodes it. Every count of seconds it
/// accepts must still fit the slot counter once the run multiplies it out.
fn single_spec(input: &str) -> Result<SingleSpec, String> {
    let spec = SingleSpec::from_json(&digs_json::parse(input).map_err(|e| e.to_string())?)?;
    let (start, end) = spec.jam.unwrap_or_default();
    for secs in [spec.secs, spec.adaptive_jam.unwrap_or(0), start, end] {
        assert!(secs.checked_mul(SLOTS_PER_SECOND).is_some(), "{input:?}: {secs} s overflows");
    }
    Ok(spec)
}

fn fleet_params(input: &str) -> Result<FleetParams, String> {
    let params = FleetParams::from_json(&digs_json::parse(input).map_err(|e| e.to_string())?)?;
    assert!(params.secs.checked_mul(SLOTS_PER_SECOND).is_some(), "{input:?} overflows");
    // What `prepare_fleet` does with whatever a client sends; a fleet that
    // builds must survive the sums the runner does before it simulates.
    if let Ok(spec) = params.build() {
        assert!(spec.networks() > 0 && spec.total_nodes() > 0, "{input:?}: an empty fleet built");
        for group in &spec.groups {
            assert!(!group.label(group.networks.saturating_sub(1)).is_empty());
        }
    }
    Ok(params)
}

/// A telemetry epoch's `latency_ms` object as the CLI dashboard rebuilds
/// it: `{"min":…,"max":…,"buckets":[[index,count],…]}`.
fn histogram(input: &str) -> Result<LogHistogram, String> {
    let v = digs_json::parse(input).map_err(|e| e.to_string())?;
    let field = |key: &str| v.field(key).ok_or_else(|| format!("missing field `{key}`"));
    let buckets = field("buckets")?.as_arr().ok_or("`buckets` is not a list")?;
    let pairs = buckets.iter().map(|pair| match pair {
        Value::Arr(pair) if pair.len() == 2 => {
            Ok((pair[0].to_uint("index")?, pair[1].to_uint("count")?))
        }
        _ => Err("a bucket is an [index, count] pair".to_string()),
    });
    LogHistogram::from_sparse(
        &pairs.collect::<Result<Vec<_>, _>>()?,
        field("min")?.to_uint("min")?,
        field("max")?.to_uint("max")?,
    )
}

fn histogram_json(h: &LogHistogram) -> String {
    let buckets = h
        .sparse()
        .into_iter()
        .map(|(index, count)| Value::Arr(vec![Value::Int(index as u64), Value::Int(count)]));
    Value::obj([
        ("min", Value::Int(h.min().unwrap_or(0))),
        ("max", Value::Int(h.max().unwrap_or(0))),
        ("buckets", Value::Arr(buckets.collect())),
    ])
    .to_compact()
}

/// The building-off reading of the grammar gives `parse`'s verdict — same
/// `Ok`, same error at the same byte — and slices out exactly the top-level
/// fields `parse` built.
fn walk_agrees_with_parse(input: &str) {
    let mut slices = Vec::new();
    let walked = digs_json::walk_fields(input, |_, value| slices.push(value));
    let parsed = digs_json::parse(input);
    let verdict = parsed.as_ref().map(drop).map_err(Clone::clone);
    assert_eq!(walked, verdict, "walk_fields vs parse on {input:?}");
    if let Ok(Value::Obj(fields)) = parsed {
        let built: Vec<Value> = fields.into_iter().map(|(_, value)| value).collect();
        let sliced: Vec<Value> =
            slices.into_iter().map(|raw| digs_json::parse(raw).expect("a checked slice")).collect();
        assert_eq!(sliced, built, "top-level fields of {input:?}");
    }
}

/// One input through every decoder.
fn feed(input: &str) {
    walk_agrees_with_parse(input);
    round_trip("json", input, digs_json::parse, |v| v.to_compact());
    round_trip("json pretty", input, digs_json::parse, |v| v.to_pretty());
    round_trip("client", input, ClientMsg::decode, ClientMsg::encode);
    round_trip("server", input, ServerMsg::decode, ServerMsg::encode);
    round_trip("frame", input, EventFrame::decode, EventFrame::encode);
    round_trip("journal", input, Record::decode, Record::encode);
    round_trip("trace", input, digs_trace::from_jsonl, |events| digs_trace::to_jsonl(events));
    round_trip("telemetry", input, TelemetryLine::decode, TelemetryLine::encode);
    let mut view = TelemetryView::default();
    if view.push_line(input).is_ok() {
        view.render(Window::ALL);
    }
    round_trip("metrics", input, RunMetrics::from_line, RunMetrics::to_line);
    round_trip("golden", input, Golden::parse, Golden::to_pretty);
    round_trip("seeds", input, SeedSpec::parse, SeedSpec::to_string);
    round_trip("single spec", input, single_spec, |spec| spec.to_json().to_compact());
    round_trip("fleet params", input, fleet_params, |params| params.to_json().to_compact());
    round_trip("histogram", input, histogram, histogram_json);
    round_trip("fleet report", input, fleet_report, Rows::to_json_line);
    round_trip("run results", input, run_results, Rows::to_json_line);
}

fn fleet_report(input: &str) -> Result<FleetReport, String> {
    decode_line(input, FleetReport::take_fields)
}

fn run_results(input: &str) -> Result<RunResults, String> {
    decode_line(input, RunResults::take_fields)
}

/// A fleet report that reaches every section: alerts under two rules, a
/// violation, a retried and a quarantined network, a skip.
fn fleet_report_line() -> String {
    let summary = |label: &str, delivered: u64, alert_kinds: [u64; 4], violations: u64| {
        let mut latency = LogHistogram::new();
        for ms in [95, 330, 1_470] {
            latency.record(ms + delivered);
        }
        NetworkSummary {
            label: label.into(),
            nodes: 47,
            flows: 6,
            generated: 120,
            delivered,
            pdr: delivered as f64 / 120.0,
            worst_flow_pdr: delivered as f64 / 240.0,
            fraction_joined: 0.9574468085106383,
            alerts: alert_kinds.iter().sum(),
            alert_kinds,
            violations,
            latency,
        }
    };
    let runs = [("oil-field-0002/seed3", false), ("oil-field-0003/seed4", true)].map(
        |(label, quarantined)| DegradedRun {
            label: label.into(),
            reason: "panicked: \"stuck\" in \\ slot".into(),
            attempts: 2,
            quarantined,
        },
    );
    let summaries =
        [summary("oil-field-0000/seed1", 97, [1, 2, 0, 0], 0), summary("f/seed2", 119, [0; 4], 2)];
    aggregate_partial(&summaries, 600, runs.into(), 1).to_json_line()
}

/// `run --json`'s results, with finite floats only (a non-finite one is
/// written `null`, which reads back as no number).
fn run_results_line() -> String {
    let node = |id: u16, joined_at: Option<Asn>| NodeResult {
        node: NodeId(id),
        energy_mj: 1.5,
        mean_power_mw: 0.1 + 0.2,
        duty_cycle: 0.012_5,
        tx_us: 10,
        rx_us: u64::MAX,
        joined_at,
        parent_changes: 3,
    };
    RunResults {
        duration: Asn(42_000),
        flows: vec![FlowResult {
            flow: FlowId(1),
            source: NodeId(7),
            generated: 4,
            delivered: 2,
            delivered_seqs: [0, 3].into(),
            latencies_ms: vec![120.0, 1_530.5],
        }],
        nodes: vec![node(0, Some(Asn(0))), node(7, None)],
        parent_change_times: vec![Asn(7), Asn(9_100)],
        retry_drops: 1,
        queue_drops: 0,
        invariant_violations: vec![InvariantViolation {
            kind: InvariantKind::RoutingLoop,
            asn: Asn(9),
            node: NodeId(7),
            detail: "cycle #1 → \"#2\"".into(),
        }],
    }
    .to_json_line()
}

const METRICS_LINE: &str = r#"{"scenario":"fig04-05-jam4","protocol":"orchestra","seed":2,"secs":420,"pdr":0.9826388888888888,"worst_flow_pdr":0.9305555555555556,"median_latency_ms":2320,"worst_latency_ms":31260,"duty_cycle_percent":5.2728904,"power_per_packet_mw":0.2625899284474206,"energy_per_packet_mj":110.2877699479166,"repair_time_secs":80.05,"windowed_pdr_median":0.9916666666666667,"windowed_pdr_worst":0.9166666666666666,"fraction_joined":1,"mean_join_secs":16.2244,"parent_changes":82,"retry_drops":1,"queue_drops":0,"audit_violations":0,"telemetry_epochs":null,"health_alerts":3,"epoch_pdr_min":null}"#;

/// Valid lines of every format: the messages drawn from their tables, the
/// rest built by their encoders.
fn corpus(d: &mut Draw) -> Vec<String> {
    let packet = PacketId { flow: 2, seq: 17, origin: 9 };
    let events = [
        Event {
            seq: 3,
            asn: 104,
            node: 9,
            kind: EventKind::Tx {
                dst: Some(4),
                class: TrafficClass::Data,
                channel: 11,
                contention: false,
                packet: Some(packet),
            },
        },
        Event {
            seq: u64::MAX,
            asn: 111,
            node: 7,
            kind: EventKind::ParentSwitch {
                old_best: Some(4),
                new_best: Some(5),
                old_second: None,
                new_second: Some(4),
            },
        },
        Event {
            seq: 20,
            asn: 160,
            node: digs_trace::NETWORK_NODE,
            kind: EventKind::AuditViolation {
                kind: "routing-loop".into(),
                detail: "cycle #1 → \"#2\"\n\ttab \\ \u{1}".into(),
            },
        },
    ];
    let golden = include_str!("../../../goldens/small.json");
    // Every message type of the seven tables — every trace event kind and
    // telemetry line among them — canonical and with optional fields left
    // out.
    let mut lines: Vec<String> = drawn::PROTOCOLS
        .iter()
        .flat_map(|p| p.table.iter().map(move |def| (p, def)))
        .flat_map(|(p, def)| [drawn::line(d, p, def), drawn::sparse_line(d, p, def)])
        .collect();
    // The two documents: each comes back as the bytes it was read from.
    let (fleet, run) = (fleet_report_line(), run_results_line());
    assert_eq!(fleet_report(&fleet).map(|r| r.to_json_line()), Ok(fleet.clone()));
    assert_eq!(run_results(&run).map(|r| r.to_json_line()), Ok(run.clone()));
    lines.extend([
        fleet,
        run,
        digs_trace::to_jsonl(&events),
        digs_trace::to_jsonl_line(&events[2]),
        METRICS_LINE.into(),
        golden[..golden.len().min(1800)].into(),
        golden.into(),
        "1-3".into(),
        "8".into(),
        "1,4,9".into(),
        // Seconds at and past the last count whose slots fit a `u64`.
        r#"{"kind":"single","secs":184467440737095516,"adaptive_jam":184467440737095516,"jam":[184467440737095515,184467440737095516]}"#.into(),
        r#"{"kind":"single","secs":18446744073709551615,"jam":[184467440737095517,18446744073709551615]}"#.into(),
        r#"{"kind":"fleet","networks":1,"secs":18446744073709551615}"#.into(),
        // Fleets whose last seed, or whose node count, does not fit.
        r#"{"kind":"fleet","template":"oil","networks":2,"seed_base":18446744073709551615}"#.into(),
        r#"{"kind":"fleet","networks":0,"sharded_devices":18446744073709551615,"shard_size":1}"#.into(),
        // A histogram, then one whose index would size a 2^61-entry table
        // and one whose counts overflow.
        r#"{"min":3,"max":90210,"buckets":[[3,2],[40,1],[110,7]]}"#.into(),
        r#"{"min":0,"max":9,"buckets":[[2305843009213693952,1],[495,1]]}"#.into(),
        r#"{"min":3,"max":3,"buckets":[[3,18446744073709551615],[3,1],[496,1]]}"#.into(),
    ]);
    lines
}

/// One random edit of `bytes`: bit flip, byte overwrite, insert of a JSON
/// syntax byte, delete, truncate, or a doubled slice.
fn mutate(d: &mut Draw, bytes: &mut Vec<u8>) {
    const SYNTAX: &[u8] = b"{}[]\",:\\-+.eE0123456789 \n\tntfu";
    if bytes.is_empty() {
        bytes.push(*d.pick(SYNTAX));
        return;
    }
    let at = d.int(0..bytes.len());
    match d.int(0..6) {
        0 => bytes[at] ^= 1 << d.int(0..8),
        1 => bytes[at] = d.u64() as u8,
        2 => bytes.insert(at, *d.pick(SYNTAX)),
        3 => {
            bytes.remove(at);
        }
        4 => bytes.truncate(at),
        _ => {
            let end = (at + d.int(1..=16)).min(bytes.len());
            let slice = bytes[at..end].to_vec();
            bytes.splice(at..at, slice);
        }
    }
}

fn fuzz(seed: u64) {
    let mut d = Draw::from_seed(seed);
    let corpus = corpus(&mut d);
    let mut fed = Vec::new();

    for line in &corpus {
        feed(line);
        // The golden file is ~30 KB: fewer, since every decoder lexes all of it.
        let rounds = if line.len() > 4096 { 40 } else { 400 };
        for _ in 0..rounds {
            let mut bytes = line.clone().into_bytes();
            for _ in 0..d.int(1..=3) {
                mutate(&mut d, &mut bytes);
            }
            let input = String::from_utf8_lossy(&bytes).into_owned();
            feed(&input);
            if input.len() < 512 {
                fed.push(input);
            }
        }
    }

    for _ in 0..2000 {
        let bytes = d.vec(0..96, |d| d.u64() as u8);
        feed(&String::from_utf8_lossy(&bytes));
    }

    // Nesting bombs, bare and inside otherwise valid messages.
    let deep = 100_000;
    for bomb in [
        "[".repeat(deep),
        "{\"a\":".repeat(deep),
        "[{\"a\":".repeat(deep / 2),
        "[".repeat(deep) + &"]".repeat(deep),
        format!("{{\"type\":\"launch\",\"name\":\"x\",\"spec\":{}", "[".repeat(deep)),
        format!(
            "{{\"type\":\"launch\",\"run\":\"x\",\"kind\":\"single\",\"spec\":{}",
            "{\"k\":".repeat(deep)
        ),
        format!("{{\"run\":\"x\",\"kind\":\"trace\",\"seq\":1,\"payload\":{}}}", "[".repeat(deep)),
    ] {
        feed(&bomb);
    }

    // 1 MiB strings: plain, all escapes, and as a message field.
    let big = "a".repeat(1 << 20);
    feed(&format!("\"{big}\""));
    feed(&format!("\"{}\"", "\\u0041\\n".repeat(1 << 17)));
    feed(&format!("{{\"type\":\"hello\",\"version\":2,\"client\":\"{big}\"}}"));
    feed(&format!("{{\"type\":\"kill\",\"run\":\"{big}"));

    // A journal file made of the mutated lines: recovery folds what parses
    // and counts the rest.
    let path =
        std::env::temp_dir().join(format!("digs-decoder-fuzz-{}-{seed}", std::process::id()));
    std::fs::write(&path, fed.join("\n")).expect("write the garbage journal");
    let recovery = Journal::recover(&path).expect("recovery reads any file");
    std::fs::remove_file(&path).expect("remove the garbage journal");
    assert!(recovery.corrupt_lines > 0, "most mutated lines are not journal records");
}

#[test]
fn no_decoder_panics_and_what_decodes_round_trips() {
    // The stack a digsd connection thread gets: a decoder that recurses
    // without a bound overflows it on the nesting bombs.
    for seed in [1, 0x5eed] {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || fuzz(seed))
            .expect("spawn")
            .join()
            .expect("a decoder panicked");
    }
}
