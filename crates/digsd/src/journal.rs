//! The durable run journal: an append-only JSONL log that makes digsd
//! crash-recoverable.
//!
//! Every state transition the daemon would need to reconstruct its run
//! registry is appended as one self-contained line: launches (with the
//! full spec — the journal alone must be able to re-prepare the run),
//! progress cursors (ASN + stream sequence at observer flush
//! boundaries), supervised restarts, subscriber resume cursors, and
//! terminal states. Because runs are deterministic per seed, an
//! incomplete journal entry is not data loss: recovery re-launches the
//! run and replays it from slot 0, and the sequence cursors make the
//! replayed stream dedupe per subscriber (DESIGN §4.13).
//!
//! Records are flushed to the OS after every append — the threat model
//! is a killed daemon process, not a killed host, so no fsync is needed;
//! a `kill -9` loses at most the bytes of one partially written line,
//! which recovery tolerates (a torn tail line is skipped, not fatal).

use crate::wire::RunState;
use digs_json::message::{decode_line, Rows};
use digs_json::{message, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

message! {
    /// One journal record. The `spec` in [`Record::Launch`] is stored
    /// verbatim so recovery can hand it back to the registered runner.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Record: "journal record type" by "type" {
        /// A run was registered and its thread started.
        Launch = "launch" {
            /// Run name.
            run: String,
            /// Runner kind (`single`, `fleet`, ...).
            kind: String,
            /// The launch spec, verbatim.
            spec: Value,
        },
        /// Progress cursor at an observer flush boundary.
        Progress = "progress" {
            /// Run name.
            run: String,
            /// Last observed ASN (or completed networks for fleet runs).
            asn: u64,
            /// Stream position: the sequence the next frame will carry.
            seq: u64,
        },
        /// The supervisor restarted the run after a failure.
        Restart = "restart" {
            /// Run name.
            run: String,
            /// Total restarts so far.
            restarts: u64,
        },
        /// A subscriber's resume cursor (written on heartbeat cadence).
        Subscriber = "subscriber" {
            /// Run name.
            run: String,
            /// Client identification from its hello.
            client: String,
            /// First sequence the subscriber still wants.
            seq: u64,
        },
        /// The run reached a terminal state. Suspended runs (graceful
        /// shutdown) deliberately get **no** end record — that is what marks
        /// them resumable.
        End = "end" {
            /// Run name.
            run: String,
            /// Terminal state.
            state: RunState,
            /// Final progress marker.
            asn: u64,
        },
        /// Recovery re-queued an incomplete run for deterministic replay
        /// (informational; recovery folds it like a restart marker).
        Resume = "resume" {
            /// Run name.
            run: String,
            /// Restart count carried over from the previous daemon process.
            restarts: u64,
        },
    }
}

impl Record {
    /// Decodes one line.
    pub fn decode(line: &str) -> Result<Record, String> {
        decode_line(line, Record::take_fields)
    }
}

/// One run reconstructed from the journal: the fold of all its records.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// Run name.
    pub name: String,
    /// Runner kind.
    pub kind: String,
    /// The launch spec, verbatim.
    pub spec: Value,
    /// Last journaled ASN cursor.
    pub asn: u64,
    /// Last journaled stream sequence cursor.
    pub seq: u64,
    /// Restarts recorded (supervised restarts + recovery resumes).
    pub restarts: u64,
    /// Last known resume cursor per subscriber (client name → seq).
    pub subscribers: BTreeMap<String, u64>,
    /// Terminal state, if the run ended. `None` marks the run
    /// incomplete — recovery re-launches and replays it.
    pub ended: Option<(RunState, u64)>,
}

/// What [`Journal::recover`] found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Recovered runs in journal (launch) order.
    pub runs: Vec<RecoveredRun>,
    /// Unparseable lines skipped (a torn tail line after `kill -9` is
    /// expected; anything more suggests an unrelated file).
    pub corrupt_lines: usize,
}

/// An open, append-mode journal.
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Journal {
    /// Opens (creating if needed) the journal for appending.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { path: path.to_path_buf(), writer: BufWriter::new(file) })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let mut line = record.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Flushes buffered records (appends already flush; this is for the
    /// shutdown path's belt and braces).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Reads a journal and folds it into per-run recovery state. A
    /// missing file is an empty recovery (first start). Unparseable
    /// lines are counted and skipped — a torn tail line is the normal
    /// signature of a killed daemon.
    pub fn recover(path: &Path) -> std::io::Result<Recovery> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
            Err(e) => return Err(e),
        };
        let mut recovery = Recovery::default();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let record = match Record::decode(&line) {
                Ok(r) => r,
                Err(_) => {
                    recovery.corrupt_lines += 1;
                    continue;
                }
            };
            match record {
                Record::Launch { run, kind, spec } => {
                    let entry = RecoveredRun {
                        name: run.clone(),
                        kind,
                        spec,
                        asn: 0,
                        seq: 0,
                        restarts: 0,
                        subscribers: BTreeMap::new(),
                        ended: None,
                    };
                    match index.get(&run) {
                        // A relaunch under a reused name supersedes the
                        // old fold entirely (possible only after an end).
                        Some(&i) => recovery.runs[i] = entry,
                        None => {
                            index.insert(run, recovery.runs.len());
                            recovery.runs.push(entry);
                        }
                    }
                }
                Record::Progress { run, asn, seq } => {
                    if let Some(&i) = index.get(&run) {
                        let r = &mut recovery.runs[i];
                        // Cursors only ever move forward; a stale record
                        // (replay still behind the journaled cursor when
                        // the daemon died again) must not rewind them.
                        r.asn = r.asn.max(asn);
                        r.seq = r.seq.max(seq);
                    }
                }
                Record::Restart { run, restarts } | Record::Resume { run, restarts } => {
                    if let Some(&i) = index.get(&run) {
                        let r = &mut recovery.runs[i];
                        r.restarts = r.restarts.max(restarts);
                        // The replay starts over: journaled cursors from
                        // the failed attempt stay (they are maxima).
                    }
                }
                Record::Subscriber { run, client, seq } => {
                    if let Some(&i) = index.get(&run) {
                        let cur = recovery.runs[i].subscribers.entry(client).or_insert(0);
                        *cur = (*cur).max(seq);
                    }
                }
                Record::End { run, state, asn } => {
                    if let Some(&i) = index.get(&run) {
                        let r = &mut recovery.runs[i];
                        r.ended = Some((state, asn));
                        r.asn = r.asn.max(asn);
                    }
                }
            }
        }
        Ok(recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("digsd-journal-test-{}-{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn spec() -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::Str("single".into())),
            ("seed".into(), Value::Int(7)),
        ])
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            Record::Launch { run: "a".into(), kind: "single".into(), spec: spec() },
            Record::Progress { run: "a".into(), asn: 12_000, seq: 340 },
            Record::Progress { run: "a".into(), asn: u64::MAX, seq: u64::MAX },
            Record::Restart { run: "a".into(), restarts: 2 },
            Record::Subscriber { run: "a".into(), client: "cli \"q\"".into(), seq: 120 },
            Record::End { run: "a".into(), state: RunState::Quarantined, asn: 12_500 },
            Record::Resume { run: "a".into(), restarts: 3 },
        ];
        for r in records {
            assert_eq!(Record::decode(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn recovery_folds_a_crashed_session() {
        let path = tmp("fold");
        let mut j = Journal::open(&path).expect("open");
        j.append(&Record::Launch { run: "a".into(), kind: "single".into(), spec: spec() }).unwrap();
        j.append(&Record::Progress { run: "a".into(), asn: 1_000, seq: 40 }).unwrap();
        j.append(&Record::Subscriber { run: "a".into(), client: "tail".into(), seq: 25 }).unwrap();
        j.append(&Record::Progress { run: "a".into(), asn: 3_000, seq: 90 }).unwrap();
        j.append(&Record::Launch { run: "b".into(), kind: "single".into(), spec: spec() }).unwrap();
        j.append(&Record::End { run: "b".into(), state: RunState::Done, asn: 9_000 }).unwrap();
        // Torn tail line from the kill.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"type\":\"progress\",\"run\":\"a\",\"as").unwrap();
        }
        let rec = Journal::recover(&path).expect("recover");
        assert_eq!(rec.corrupt_lines, 1);
        assert_eq!(rec.runs.len(), 2);
        let a = &rec.runs[0];
        assert_eq!((a.name.as_str(), a.asn, a.seq), ("a", 3_000, 90));
        assert_eq!(a.ended, None, "incomplete run is resumable");
        assert_eq!(a.subscribers.get("tail"), Some(&25));
        let b = &rec.runs[1];
        assert_eq!(b.ended, Some((RunState::Done, 9_000)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_an_empty_recovery() {
        let rec = Journal::recover(Path::new("/nonexistent/digsd.journal")).expect("recover");
        assert!(rec.runs.is_empty());
    }

    #[test]
    fn stale_progress_never_rewinds_the_cursor() {
        let path = tmp("monotonic");
        let mut j = Journal::open(&path).expect("open");
        j.append(&Record::Launch { run: "a".into(), kind: "single".into(), spec: spec() }).unwrap();
        j.append(&Record::Progress { run: "a".into(), asn: 5_000, seq: 200 }).unwrap();
        // Second daemon session: replay was only part-way through when it
        // died again, so it journaled smaller cursors.
        j.append(&Record::Resume { run: "a".into(), restarts: 1 }).unwrap();
        j.append(&Record::Progress { run: "a".into(), asn: 2_000, seq: 80 }).unwrap();
        let rec = Journal::recover(&path).expect("recover");
        assert_eq!((rec.runs[0].asn, rec.runs[0].seq), (5_000, 200));
        assert_eq!(rec.runs[0].restarts, 1);
        let _ = std::fs::remove_file(&path);
    }
}
