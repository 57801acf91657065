//! Property tests for the durable run journal: every record survives
//! encode → decode intact (including adversarial text in names, client
//! strings, and specs), and recovery's cursor fold is exactly the
//! running maximum — monotone under any interleaving of progress,
//! restart, and subscriber records, including the stale cursors a
//! crashed replay leaves behind.

use digs_cases::cases;
use digs_digsd::{Journal, Record, RunState, Value};
use std::path::PathBuf;

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";

fn name_from(seed: &[u8]) -> String {
    let mut name: String =
        seed.iter().take(64).map(|b| NAME_CHARS[*b as usize % NAME_CHARS.len()] as char).collect();
    if name.is_empty() {
        name.push('r');
    }
    name
}

/// Free-form text with quotes, backslashes, and controls — exercised
/// through JSON string escaping on the journal line.
fn text_from(seed: &[u8]) -> String {
    seed.iter()
        .map(|b| match b % 8 {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\t',
            4 => ' ',
            _ => (b'a' + b % 26) as char,
        })
        .collect()
}

fn state_from(s: u8) -> RunState {
    [
        RunState::Running,
        RunState::Restarting,
        RunState::Done,
        RunState::Killed,
        RunState::Failed,
        RunState::Quarantined,
    ][s as usize % 6]
}

fn spec_from(seed: &[u8], n: u64) -> Value {
    Value::Obj(vec![
        ("kind".into(), Value::Str("single".into())),
        ("seed".into(), Value::Int(n)),
        ("note".into(), Value::Str(text_from(seed))),
    ])
}

fn tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("digsd-journal-prop-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn journal_records_round_trip() {
    cases(256, |d| {
        let name_seed = d.vec(0..40, |d| d.int(0..=u8::MAX));
        let text_seed = d.vec(0..30, |d| d.int(0..=u8::MAX));
        // Cursors and seeds are exact over the whole u64 range.
        let asn = d.u64();
        let seq = d.u64();
        let restarts = d.u64();
        let state_pick = d.int(0..=u8::MAX);
        let run = name_from(&name_seed);
        let records = vec![
            Record::Launch {
                run: run.clone(),
                kind: "single".into(),
                spec: spec_from(&text_seed, asn),
            },
            Record::Progress { run: run.clone(), asn, seq },
            Record::Restart { run: run.clone(), restarts },
            Record::Subscriber { run: run.clone(), client: text_from(&text_seed), seq },
            Record::End { run: run.clone(), state: state_from(state_pick), asn },
            Record::Resume { run, restarts },
        ];
        for r in records {
            let line = r.encode();
            assert!(!line.contains('\n'), "a journal line must stay one line: {line:?}");
            assert_eq!(Record::decode(&line), Ok(r));
        }
    });
}

#[test]
fn recovered_cursors_are_the_running_maximum() {
    cases(256, |d| {
        let cursors = d.vec(1..20, |d| (d.int(0..=u32::MAX), d.int(0..=u32::MAX)));
        let restart_marks = d.vec(0..5, |d| d.int(0..=u16::MAX));
        let sub_cursors = d.vec(0..10, |d| (d.int(0..=u8::MAX), d.int(0..=u32::MAX)));
        // One run, an arbitrary interleaving of progress / restart /
        // subscriber records (stale values included — a crashed replay
        // journals cursors *behind* the previous session's). Recovery
        // must fold each cursor to its maximum, never rewinding.
        let path = tmp("max");
        let mut journal = Journal::open(&path).expect("open");
        journal
            .append(&Record::Launch {
                run: "r".into(),
                kind: "single".into(),
                spec: spec_from(&[], 1),
            })
            .expect("append");
        for (i, (asn, seq)) in cursors.iter().enumerate() {
            journal
                .append(&Record::Progress {
                    run: "r".into(),
                    asn: u64::from(*asn),
                    seq: u64::from(*seq),
                })
                .expect("append");
            if let Some(restarts) = restart_marks.get(i) {
                journal
                    .append(&Record::Resume { run: "r".into(), restarts: u64::from(*restarts) })
                    .expect("append");
            }
        }
        for (client, seq) in &sub_cursors {
            journal
                .append(&Record::Subscriber {
                    run: "r".into(),
                    client: format!("c{}", client % 3),
                    seq: u64::from(*seq),
                })
                .expect("append");
        }
        drop(journal);

        let recovery = Journal::recover(&path).expect("recover");
        let _ = std::fs::remove_file(&path);
        assert_eq!(recovery.corrupt_lines, 0);
        assert_eq!(recovery.runs.len(), 1);
        let run = &recovery.runs[0];
        assert_eq!(run.ended, None, "no end record: the run must stay resumable");
        let max_asn = cursors.iter().map(|(a, _)| u64::from(*a)).max().unwrap_or(0);
        let max_seq = cursors.iter().map(|(_, s)| u64::from(*s)).max().unwrap_or(0);
        assert_eq!(run.asn, max_asn, "asn cursor must be the running maximum");
        assert_eq!(run.seq, max_seq, "seq cursor must be the running maximum");
        let max_restarts = restart_marks
            .iter()
            .take(cursors.len()) // marks beyond the cursor list were never appended
            .map(|r| u64::from(*r))
            .max()
            .unwrap_or(0);
        assert_eq!(run.restarts, max_restarts);
        for (client, cursor) in &run.subscribers {
            let expected = sub_cursors
                .iter()
                .filter(|(c, _)| format!("c{}", c % 3) == *client)
                .map(|(_, s)| u64::from(*s))
                .max()
                .expect("client came from the generator");
            assert_eq!(*cursor, expected, "subscriber cursor must be the per-client maximum");
        }
    });
}
