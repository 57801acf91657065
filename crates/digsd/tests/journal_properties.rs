//! Property tests for the durable run journal: recovery's cursor fold is
//! exactly the running maximum — monotone under any interleaving of
//! progress, restart, and subscriber records, including the stale cursors
//! a crashed replay leaves behind. (That every record survives encode →
//! decode is `wire_roundtrip.rs`'s property over the journal's table.)

use digs_cases::cases;
use digs_digsd::{Journal, Record, Value};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("digsd-journal-prop-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
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
                spec: Value::obj([("kind", Value::Str("single".into()))]),
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
