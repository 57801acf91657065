//! DESIGN prints every row table the code declares: the trace event, the
//! telemetry line, the client, server and journal protocols (names, keys,
//! order), the three launch specs (keys, kinds, defaults), and the
//! `RunMetrics` record and the trace event's head (keys, kinds). This crate
//! sees all of them.

use digs::telemetry::TelemetryLine;
use digs_conformance::{RunMetrics, ScenarioLaunch};
use digs_digsd::{ClientMsg, FieldDef, FleetParams, Kind, Record, ServerMsg, SingleSpec};
use digs_json::Value;
use digs_trace::{Event, EventKind};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// DESIGN's markdown tables: each one's header cells and row cells.
fn tables(text: &str) -> Vec<(Vec<String>, Vec<Vec<String>>)> {
    let cells = |line: &str| -> Vec<String> {
        line.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect()
    };
    let mut tables = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.starts_with('|') && lines.peek().is_some_and(|next| next.starts_with("|---")) {
            lines.next();
            let mut rows = Vec::new();
            while let Some(row) = lines.next_if(|row| row.starts_with('|')) {
                rows.push(cells(row));
            }
            tables.push((cells(line), rows));
        }
    }
    tables
}

/// The backticked words of a cell, outside parentheses.
fn ticked(cell: &str) -> Vec<String> {
    let mut depth = 0;
    let outside: String = cell
        .chars()
        .filter(|&c| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            depth == 0 && c != ')'
        })
        .collect();
    outside.split('`').skip(1).step_by(2).map(str::to_string).collect()
}

/// A row's keys, with flattened fields spliced in and a flattened message
/// standing for its tag.
fn keys(fields: &[FieldDef]) -> Vec<String> {
    fields
        .iter()
        .flat_map(|f| match f.kind {
            Kind::Flat(inner) => keys(inner),
            Kind::OneOf { tag, .. } => vec![tag.to_string()],
            _ => vec![f.key.to_string()],
        })
        .collect()
}

fn label(kind: &Kind) -> String {
    match *kind {
        Kind::Str => "string".into(),
        Kind::Int { max } if max == u64::from(u32::MAX) => "32-bit integer".into(),
        Kind::Int { .. } => "integer".into(),
        Kind::Num => "number".into(),
        Kind::Secs => "seconds".into(),
        Kind::Named(names) => names.join(" or "),
        Kind::Opt(inner) => format!("{} or null", label(inner)),
        Kind::Pair(a, b) => format!("[{}, {}]", label(a), label(b)),
        Kind::OneOf { .. } => "a name from the table below".into(),
        other => format!("{other:?}"),
    }
}

/// The trace event, telemetry line, client, server and journal tables, in
/// DESIGN's order: the same message types, keys and order.
#[test]
fn design_prints_every_protocol_table() {
    let printed: Vec<Vec<(String, Vec<String>)>> = tables(DESIGN)
        .iter()
        .filter(|(header, _)| matches!(header[0].as_str(), "type" | "ev") && header[1] == "fields")
        .map(|(_, rows)| rows.iter().map(|r| (ticked(&r[0])[0].clone(), ticked(&r[1]))).collect())
        .collect();
    let declared: Vec<Vec<(String, Vec<String>)>> = [
        EventKind::MESSAGES,
        TelemetryLine::MESSAGES,
        ClientMsg::MESSAGES,
        ServerMsg::MESSAGES,
        Record::MESSAGES,
    ]
    .iter()
    .map(|table| table.iter().map(|m| (m.name.to_string(), keys(m.fields))).collect())
    .collect();
    assert_eq!(printed, declared, "DESIGN's trace, telemetry, client, server and journal tables");
}

/// The `RunMetrics` record, the trace event's head and the three launch
/// specs: each field's key and kind, in order; for a spec, its default too
/// (`required` for a field without one).
#[test]
fn design_prints_every_field_table() {
    let printed: Vec<(String, Vec<Vec<String>>)> = tables(DESIGN)
        .into_iter()
        .filter(|(header, _)| header[0].ends_with("` field") && header[1] == "kind")
        .map(|(header, rows)| {
            let rows = rows
                .into_iter()
                .map(|mut r| {
                    r[0] = ticked(&r[0])[0].clone();
                    r
                })
                .collect();
            (ticked(&header[0])[0].clone(), rows)
        })
        .collect();
    let spec = |fields: &[FieldDef], defaults: Value| -> Vec<Vec<String>> {
        fields
            .iter()
            .map(|f| {
                let default = match defaults.field(f.key) {
                    Some(value) if !f.required => format!("`{}`", value.to_compact()),
                    _ => "required".to_string(),
                };
                vec![f.key.to_string(), label(&f.kind), default]
            })
            .collect()
    };
    let scenario = digs_json::parse(r#"{"scenario":"fig09-digs"}"#).expect("parses");
    let record = |fields: &[FieldDef]| -> Vec<Vec<String>> {
        fields.iter().zip(keys(fields)).map(|(f, key)| vec![key, label(&f.kind)]).collect()
    };
    let declared = vec![
        ("RunMetrics".to_string(), record(RunMetrics::FIELDS)),
        ("Event".to_string(), record(Event::FIELDS)),
        (
            SingleSpec::MESSAGES[0].name.to_string(),
            spec(SingleSpec::MESSAGES[0].fields, SingleSpec::default().to_json()),
        ),
        (
            FleetParams::MESSAGES[0].name.to_string(),
            spec(FleetParams::MESSAGES[0].fields, FleetParams::default().to_json()),
        ),
        (
            ScenarioLaunch::MESSAGES[0].name.to_string(),
            spec(
                ScenarioLaunch::MESSAGES[0].fields,
                ScenarioLaunch::from_json(&scenario).expect("decodes").to_json(),
            ),
        ),
    ];
    assert_eq!(printed, declared, "DESIGN's field tables");
}
