//! `large-150` and `idle-3stack`: segments of `Network::run` on networks
//! formed during set-up, with nothing observational switched on.

use super::{Size, Verdict, Workload};
use crate::spans::Tracer;
use crate::stats::{fnv1a64, fnv1a64_extend};
use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs_conformance::{MetricContext, RunMetrics};
use digs_sim::time::SLOTS_PER_SECOND;
use digs_sim::topology::Topology;
use digs_sim::trace::EngineStats;

/// How far one leg runs and when its state is digested.
#[derive(Debug, Clone, Copy)]
struct Shape {
    formation_secs: u64,
    segment_slots: u64,
    /// The digest is taken after this many segments, so it does not depend
    /// on how many more fit into the measuring time.
    checkpoint: usize,
}

/// What a leg looked like at its checkpoint.
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    digest: u64,
    delivered: u32,
    generated: u32,
    measured: Measured,
}

/// Engine counters accumulated over the measured segments only.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Measured {
    slots: u64,
    transmitted: u64,
    data_acked: u64,
    data_unacked: u64,
    cca_deferrals: u64,
    collision_drops: u64,
    noise_drops: u64,
}

/// One network and where its per-layer samples go.
#[derive(Debug)]
struct Leg {
    label: &'static str,
    config: NetworkConfig,
    network: Network,
    shape: Shape,
    /// Per-slot host cost of a segment is sampled under this name.
    slot_sample: &'static str,
    /// The `large-150` leg also samples `core.network.*` and `sim.engine.*`.
    samples_network: bool,
    segments: usize,
    slots_exact: bool,
    formed: EngineStats,
    checkpoint: Option<Checkpoint>,
    /// Host seconds `Network::results` and the digest took at the checkpoint.
    results_secs: f64,
}

/// Pins every observational knob off, so neither the environment nor a
/// scenario default can change what a leg costs.
fn pinned(mut config: NetworkConfig) -> NetworkConfig {
    config.trace_cap = Some(0);
    config.telemetry_epoch = Some(0);
    config.sched_randomize = Some(0);
    config
}

/// The canonical bytes a leg's state is digested from: its run record and
/// the engine's counters.
pub(crate) fn state_digest(label: &str, network: &Network) -> (u64, u32, u32) {
    let config = network.config();
    let results = network.results();
    let record = RunMetrics::from_results(
        label,
        config.protocol.name(),
        config.seed,
        network.asn().0 / SLOTS_PER_SECOND,
        &results,
        &config.flows,
        MetricContext::default(),
    );
    let digest = fnv1a64_extend(
        fnv1a64(record.to_line().as_bytes()),
        format!("{:?}", network.engine().stats()).as_bytes(),
    );
    (digest, results.total_delivered(), results.total_generated())
}

impl Measured {
    fn between(then: &EngineStats, now: &EngineStats) -> Measured {
        Measured {
            slots: now.slots - then.slots,
            transmitted: now.total_transmitted() - then.total_transmitted(),
            data_acked: now.data.acked - then.data.acked,
            data_unacked: now.data.unacked - then.data.unacked,
            cca_deferrals: now.cca_deferrals - then.cca_deferrals,
            collision_drops: now.collision_drops - then.collision_drops,
            noise_drops: now.noise_drops - then.noise_drops,
        }
    }
}

impl Leg {
    fn form(
        label: &'static str,
        config: NetworkConfig,
        shape: Shape,
        slot_sample: &'static str,
        samples_network: bool,
        t: &mut Tracer,
    ) -> Leg {
        let (mut network, new_secs) = t.span("core.network.new", |_| Network::new(config.clone()));
        let ((), warm_secs) =
            t.span("core.network.warmup", |_| network.run_secs(shape.formation_secs));
        if samples_network {
            t.sample("core.network.new_ms", new_secs * 1e3);
            t.sample("core.network.warmup_ms", warm_secs * 1e3);
        }
        let formed = *network.engine().stats();
        Leg {
            label,
            config,
            network,
            shape,
            slot_sample,
            samples_network,
            segments: 0,
            slots_exact: true,
            formed,
            checkpoint: None,
            results_secs: 0.0,
        }
    }

    /// One measured segment; returns its host seconds.
    fn segment(&mut self, t: &mut Tracer) -> f64 {
        let slots = self.shape.segment_slots;
        let before = self.network.engine().stats().slots;
        let ((), secs) = t.span("core.network.run", |_| self.network.run(slots));
        self.slots_exact &= self.network.engine().stats().slots - before == slots;
        t.sample(self.slot_sample, secs * 1e9 / slots as f64);
        self.segments += 1;
        if self.segments == self.shape.checkpoint {
            self.take_checkpoint(t);
        }
        secs
    }

    /// Outside the timed region: digests the state the segments so far
    /// produced.
    fn take_checkpoint(&mut self, t: &mut Tracer) {
        let ((digest, delivered, generated), secs) =
            t.span("core.network.results", |_| state_digest(self.label, &self.network));
        self.results_secs = secs;
        let measured = Measured::between(&self.formed, self.network.engine().stats());
        self.checkpoint = Some(Checkpoint { digest, delivered, generated, measured });
    }

    /// Per-layer samples of the checkpoint; taken apart from it because the
    /// tracer may be off in the repeat that reaches the checkpoint.
    fn sample_checkpoint(&self, t: &mut Tracer) {
        let (true, Some(Checkpoint { measured, .. })) = (self.samples_network, &self.checkpoint)
        else {
            return;
        };
        t.sample("core.network.results_ms", self.results_secs * 1e3);
        let acks = measured.data_acked + measured.data_unacked;
        t.sample("sim.engine.tx_per_slot", measured.transmitted as f64 / measured.slots as f64);
        t.sample("sim.engine.ack_ratio", measured.data_acked as f64 / acks.max(1) as f64);
        t.sample("sim.engine.cca_deferrals", measured.cca_deferrals as f64);
        t.sample("sim.engine.collision_drops", measured.collision_drops as f64);
        t.sample("sim.engine.noise_drops", measured.noise_drops as f64);
    }

    /// Whether a second network built from the same configuration reaches
    /// the recorded checkpoint, and whether the run made sense.
    fn holds(&self, needs_deliveries: bool) -> bool {
        let Some(recorded) = &self.checkpoint else { return false };
        let mut off = Tracer::new(false);
        let mut again = Leg::form(
            self.label,
            self.config.clone(),
            self.shape,
            self.slot_sample,
            false,
            &mut off,
        );
        for _ in 0..self.shape.checkpoint {
            again.segment(&mut off);
        }
        self.slots_exact
            && again.checkpoint.as_ref() == Some(recorded)
            && recorded.delivered <= recorded.generated
            && (recorded.delivered > 0 || !needs_deliveries)
    }
}

/// A workload made of simulation legs measured one segment each per repeat.
#[derive(Debug)]
pub struct SimLegs {
    legs: Vec<Leg>,
    needs_deliveries: bool,
}

impl SimLegs {
    /// `large-150`: the paper's Fig. 12 network (152 nodes, 20 flows, five
    /// disturbers), formed for 180 s; a repeat is `Network::run(10_000)`.
    pub fn large(seed: u64, size: Size, t: &mut Tracer) -> SimLegs {
        let shape = match size {
            Size::Smoke => Shape { formation_secs: 5, segment_slots: 500, checkpoint: 2 },
            _ => Shape { formation_secs: 180, segment_slots: 10_000, checkpoint: 5 },
        };
        let config = pinned(digs::scenarios::large_scale(Protocol::Digs, seed));
        let leg = Leg::form("large-150", config, shape, "core.network.run.slot_ns", true, t);
        SimLegs { legs: vec![leg], needs_deliveries: size != Size::Smoke }
    }

    /// `idle-3stack`: Testbed A with two flows at 30 s under DiGS,
    /// Orchestra and WirelessHART, each formed for 180 s; a repeat is one
    /// `Network::run(20_000)` on each of the three.
    pub fn idle(seed: u64, size: Size, t: &mut Tracer) -> SimLegs {
        let shape = match size {
            Size::Smoke => Shape { formation_secs: 5, segment_slots: 500, checkpoint: 2 },
            _ => Shape { formation_secs: 180, segment_slots: 20_000, checkpoint: 5 },
        };
        let legs = [
            ("idle-digs", Protocol::Digs, "core.stack.digs.slot_ns"),
            ("idle-orchestra", Protocol::Orchestra, "core.stack.orchestra.slot_ns"),
            ("idle-whart", Protocol::WirelessHart, "core.stack.whart.slot_ns"),
        ]
        .into_iter()
        .map(|(label, protocol, slot_sample)| {
            Leg::form(label, idle_config(protocol, seed), shape, slot_sample, false, t)
        })
        .collect();
        SimLegs { legs, needs_deliveries: size != Size::Smoke }
    }
}

impl Workload for SimLegs {
    /// Over all legs.
    fn node_secs_per_repeat(&self) -> f64 {
        self.legs
            .iter()
            .map(|l| {
                l.config.topology.len() as f64 * l.shape.segment_slots as f64
                    / SLOTS_PER_SECOND as f64
            })
            .sum()
    }

    /// The digest's checkpoint.
    fn min_repeats(&self) -> usize {
        self.legs.iter().map(|l| l.shape.checkpoint).max().unwrap_or(1)
    }

    /// One segment on every leg.
    fn repeat(&mut self, t: &mut Tracer) -> Vec<f64> {
        t.next_repeat();
        self.legs.iter_mut().map(|leg| leg.segment(t)).collect()
    }

    /// What the legs' checkpoints measured.
    fn sample_after_repeats(&mut self, t: &mut Tracer) {
        for leg in &self.legs {
            leg.sample_checkpoint(t);
        }
    }

    /// One operation per leg (see [`Leg::holds`]); the digest combines the
    /// legs' checkpoint digests.
    fn verify(&self) -> Verdict {
        let mut verdict = Verdict::default();
        let mut bytes = Vec::new();
        for leg in &self.legs {
            verdict.attempted += 1;
            if !leg.holds(self.needs_deliveries) {
                verdict.failed += 1;
                verdict.notes.push(format!(
                    "{}: the checkpoint after {} segments did not reproduce ({:?})",
                    leg.label, leg.shape.checkpoint, leg.checkpoint
                ));
            }
            bytes.extend(leg.checkpoint.as_ref().map_or(0, |c| c.digest).to_le_bytes());
        }
        verdict.digest = fnv1a64(&bytes);
        verdict
    }
}

/// The `idle-3stack` configuration for one protocol. Also the base of the
/// differential legs in [`crate::probes`].
pub(crate) fn idle_config(protocol: Protocol, seed: u64) -> NetworkConfig {
    pinned(
        NetworkConfig::builder(Topology::testbed_a())
            .protocol(protocol)
            .seed(seed)
            .random_flows(2, 3000, seed)
            .build(),
    )
}
