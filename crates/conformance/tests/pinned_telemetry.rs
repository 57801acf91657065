//! One literal line per telemetry line type — `meta`, `epoch`, `alert` —
//! written by the hand writers their rows replaced. The literals hold the
//! bytes a streamed or exported telemetry series is made of: extremes of
//! every integer, a negative gauge, two flows, a non-empty latency
//! histogram beside an empty one's shape, an empty and a non-empty summary,
//! and an alert detail with every escape.

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::telemetry::{
    self, EpochSnapshot, FlowEpoch, HealthAlert, HealthRule, Spread, TelemetryLine, TelemetryView,
    Window,
};
use digs_json::message::Rows;
use digs_metrics::{LogHistogram, StreamingSummary};
use digs_sim::topology::Topology;
use std::borrow::Cow;

const META: &str = r#"{"type":"meta","epoch_slots":100,"cap":2,"epochs":5,"dropped_epochs":3}"#;

const EPOCH: &str = concat!(
    r#"{"type":"epoch","epoch":18446744073709551615,"asn_start":0,"asn_end":18446744073709551615,"#,
    r#""counters":{"chan.00":0,"jam.hits":18446744073709551615,"tx.data":42},"#,
    r#""gauges":{"chan.entropy_bp":-9223372036854775808,"nodes.total":9223372036854775807,"slotframe.util_bp":-12},"#,
    r#""flows":[{"flow":0,"generated":5,"delivered":4},{"flow":65535,"generated":0,"delivered":18446744073709551615}],"#,
    r#""latency_ms":{"count":5,"min":20,"max":90210,"buckets":[[18,2],[49,1],[81,1],[115,1]]},"#,
    r#""etx":{"count":0},"#,
    r#""duty_cycle":{"count":3,"mean":0.18124999999999997,"min":0.0125,"max":0.5}}"#,
);

const EMPTY_EPOCH: &str = r#"{"type":"epoch","epoch":0,"asn_start":0,"asn_end":0,"counters":{},"gauges":{},"flows":[],"latency_ms":{"count":0},"etx":{"count":0},"duty_cycle":{"count":0}}"#;

const ALERT: &str = concat!(
    r#"{"type":"alert","rule":"queue-saturation","epoch":18446744073709551615,"asn_start":0,"asn_end":18446744073709551615,"#,
    r#""detail":"q\"b\\s/\u0000\u001f\n\r\t"#,
    "\u{7f} é → \u{10ffff}\"}"
);

fn epoch() -> EpochSnapshot {
    let mut latency_ms = LogHistogram::new();
    for ms in [20, 20, 310, 4_999, 90_210] {
        latency_ms.record(ms);
    }
    let mut duty_cycle = StreamingSummary::new();
    for d in [0.0125, 0.5, 0.03125] {
        duty_cycle.push(d);
    }
    EpochSnapshot {
        epoch: u64::MAX,
        asn_start: 0,
        asn_end: u64::MAX,
        counters: named(vec![("chan.00", 0), ("jam.hits", u64::MAX), ("tx.data", 42)]),
        gauges: named(vec![
            ("chan.entropy_bp", i64::MIN),
            ("nodes.total", i64::MAX),
            ("slotframe.util_bp", -12),
        ]),
        flows: vec![
            FlowEpoch { flow: 0, generated: 5, delivered: 4 },
            FlowEpoch { flow: u16::MAX, generated: 0, delivered: u64::MAX },
        ],
        latency_ms,
        etx: Spread::from(&StreamingSummary::new()),
        duty_cycle: Spread::from(&duty_cycle),
    }
}

fn empty_epoch() -> EpochSnapshot {
    EpochSnapshot {
        epoch: 0,
        asn_start: 0,
        asn_end: 0,
        counters: Vec::new(),
        gauges: Vec::new(),
        flows: Vec::new(),
        latency_ms: LogHistogram::new(),
        etx: Spread::default(),
        duty_cycle: Spread::default(),
    }
}

fn alert() -> HealthAlert {
    HealthAlert {
        rule: HealthRule::QueueSaturation,
        epoch: u64::MAX,
        asn_start: 0,
        asn_end: u64::MAX,
        detail: "q\"b\\s/\u{0}\u{1f}\n\r\t\u{7f} é → \u{10ffff}".into(),
    }
}

fn named<T>(entries: Vec<(&'static str, T)>) -> Vec<(Cow<'static, str>, T)> {
    entries.into_iter().map(|(key, value)| (Cow::Borrowed(key), value)).collect()
}

#[test]
fn every_telemetry_line_writes_its_pinned_bytes() {
    let lines = [
        (TelemetryLine::Epoch(epoch()), EPOCH),
        (TelemetryLine::Epoch(empty_epoch()), EMPTY_EPOCH),
        (TelemetryLine::Alert(alert()), ALERT),
    ];
    for (line, pinned) in lines {
        assert_eq!(line.encode(), pinned);
        assert_eq!(TelemetryLine::decode(pinned), Ok(line), "{pinned}");
    }
    assert_eq!(epoch().to_json_line(), EPOCH);
    assert_eq!(alert().to_json_line(), ALERT);
}

/// The `meta` line of a run: 5 epochs of 100 slots, 2 retained.
#[test]
fn a_runs_meta_line_is_pinned() {
    let config = NetworkConfig::builder(Topology::testbed_a_half())
        .protocol(Protocol::Digs)
        .seed(3)
        .random_flows(2, 500, 3)
        .telemetry_epoch(100)
        .telemetry_cap(2)
        .build();
    let mut net = Network::new(config);
    net.run_secs(5);
    let jsonl = telemetry::to_jsonl(net.telemetry().expect("telemetry on"));
    assert_eq!(jsonl.lines().next(), Some(META));
    let Ok(TelemetryLine::Meta(meta)) = TelemetryLine::decode(META) else { panic!("{META}") };
    assert_eq!(meta.to_json_line(), META);
    assert_eq!(jsonl.lines().count(), 3, "meta and the two retained epochs");
}

/// The view reads every pinned line.
#[test]
fn the_view_reads_the_pinned_lines() {
    let view = TelemetryView::from_jsonl(&[META, EPOCH, EMPTY_EPOCH, ALERT].join("\n"))
        .expect("the pinned lines read");
    let text = view.render(Window::ALL);
    assert!(text.starts_with("telemetry: 5 epochs x 100 slots (2 retained, 3 dropped), 1 alerts"));
    assert!(text.contains("ALERT queue-saturation epoch 18446744073709551615"), "{text}");
}
