//! Property: a run is a function of its configuration and the slots it
//! covers. However the caller cuts it into `run` / `resume_to` /
//! `run_audited` calls, everything the harness can read afterwards — and
//! everything an observer was handed on the way — equals what one call
//! produces. Beside `wake_oracle.rs`, which holds each entry point to the
//! ask-every-slot reference; this holds the entry points to each other.

use super::tests::{ObserverLog, SharedObserver};
use super::*;
use crate::config::NetworkConfig;
use digs_cases::Draw;
use digs_sim::topology::Topology;
use std::sync::{Arc, Mutex};

/// One drawn case: what is switched on, and where the run is cut.
#[derive(Debug)]
struct Case {
    protocol: Protocol,
    randomized: bool,
    traced: bool,
    /// Telemetry cadence, odd so epochs fall inside slotframes.
    epoch: Option<u64>,
    observed: bool,
    audit: Option<u64>,
    seed: u64,
    /// Chunk lengths (zero-length chunks included); they sum to the run.
    chunks: Vec<u64>,
    /// Whether each chunk is driven by `resume_to` rather than `run`
    /// (ignored when an audit cadence was drawn).
    resumed: Vec<bool>,
}

impl Case {
    fn draw(d: &mut Draw) -> Case {
        let slots = d.int(2_000u64..6_000);
        let mut cuts = d.vec(0..8, |d| d.int(0..=slots));
        cuts.extend([0, slots]);
        cuts.sort_unstable();
        let chunks: Vec<u64> = cuts.windows(2).map(|cut| cut[1] - cut[0]).collect();
        Case {
            protocol: *d.pick(&[Protocol::Digs, Protocol::Orchestra, Protocol::WirelessHart]),
            randomized: d.bool(),
            traced: d.bool(),
            epoch: d.bool().then(|| d.int(150u64..1_200) | 1),
            observed: d.bool(),
            audit: d.bool().then(|| d.int(90u64..1_500)),
            seed: d.int(1u64..50),
            resumed: chunks.iter().map(|_| d.bool()).collect(),
            chunks,
        }
    }

    fn network(&self) -> (Network, Arc<Mutex<ObserverLog>>) {
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(self.protocol)
            .seed(self.seed)
            .random_flows(3, 700, self.seed)
            .randomize(if self.randomized { 0x5ec2e7 } else { 0 })
            .trace_cap(if self.traced { 100_000 } else { 0 })
            .telemetry_epoch(self.epoch.unwrap_or(0))
            .telemetry_cap(4_096)
            .build();
        let mut network = Network::new(config);
        let heard = Arc::new(Mutex::new(ObserverLog::default()));
        if self.observed {
            network.set_observer(Box::new(SharedObserver { log: heard.clone(), stop_at: None }));
        }
        (network, heard)
    }

    /// Drives the run chunk by chunk and returns everything observable.
    fn observe(&self, chunks: &[u64]) -> impl PartialEq + std::fmt::Debug {
        let (mut network, heard) = self.network();
        for (slots, resumed) in chunks.iter().zip(&self.resumed) {
            match self.audit {
                Some(every) => network.run_audited(*slots, every),
                None if *resumed => network.resume_to(network.asn().0 + slots),
                None => network.run(*slots),
            }
        }
        let heard = heard.lock().unwrap();
        (
            network.results(),
            network.violations().to_vec(),
            digs_trace::to_jsonl(&network.trace().events()),
            network.telemetry().map(crate::telemetry::to_jsonl),
            digs_trace::to_jsonl(&heard.events),
            heard.epochs,
        )
    }
}

#[test]
fn any_cut_of_a_run_is_the_same_run() {
    // Cases that re-randomize a traced, defended schedule in at least two
    // separate calls: the configuration whose `defense-epoch` events used
    // to take their `seq` from wherever each call happened to end.
    let mut defended_and_cut = 0;
    let app = u64::from(digs_scheduling::SlotframeLengths::paper().app);
    digs_cases::cases(64, |d| {
        let case = Case::draw(d);
        let whole = case.chunks.iter().sum();
        assert_eq!(case.observe(&case.chunks), case.observe(&[whole]), "{case:?}");
        let crossing = case.chunks.iter().filter(|slots| **slots >= app).count();
        defended_and_cut += u32::from(case.randomized && case.traced && crossing >= 2);
    });
    assert!(defended_and_cut >= 4, "only {defended_and_cut} cases cut a traced, defended run");
}
