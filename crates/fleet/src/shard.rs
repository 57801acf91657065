//! Spatially sharded single large networks.
//!
//! A 1k–10k-node site exceeds what one 16-channel TSCH domain (and one
//! simulation loop) can carry, so the deployment area is partitioned into
//! vertical strips — one shard per strip, each with its own access point
//! at the strip center and an independent DiGS network over its devices.
//! Shards run their slot loops independently (fanned over the worker
//! pool) and meet only at *slotframe-window edges*, where each shard
//! publishes its observed per-channel occupancy ([`BoundaryLoad`]) and
//! installs its neighbors' loads as ambient-interference sources
//! ([`digs_sim::interference::JammerKind::Ambient`]) for the next window.
//!
//! Determinism: the exchanged state is a pure function of each shard's
//! deterministic run (committed-transmission counters), and ambient
//! emission is hash-gated on `(salt, asn, channel)` rather than drawn
//! from any engine's RNG — so the whole sharded run is reproducible
//! bit-for-bit regardless of worker count or scheduling order.

use crate::runner::{fleet_tuned, summarize, NetworkSummary, AUDIT_EVERY};
use crate::spec::ShardedSpec;
use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::scenarios;
use digs_pool as pool;
use digs_sim::interference::Jammer;
use digs_sim::position::Position;
use digs_sim::rf::RfConfig;
use digs_sim::rng;
use digs_sim::time::SLOTS_PER_SECOND;
use digs_sim::topology::{Role, Topology};
use std::time::Duration;

/// Application-slotframe ladder for shard sizing: Eq. 4 needs
/// `A × devices` distinct cells, so each frame is a prime comfortably
/// above `3 × devices` (all coprime with the paper's 557/47 frames).
const LADDER: [u32; 7] = [149, 307, 457, 761, 1531, 2039, 3067];

/// The most devices one shard may hold: the ladder's largest frame must
/// exceed `3 × (devices + 1)`.
pub(crate) const MAX_SHARD_DEVICES: usize = (LADDER[LADDER.len() - 1] as usize - 1) / 3 - 1;

/// The first frame of the ladder that holds a shard of `devices`, or
/// `None` above [`MAX_SHARD_DEVICES`].
pub(crate) fn app_slotframe(devices: usize) -> Option<u32> {
    let need = 3 * (devices + 1);
    LADDER.into_iter().find(|&p| p as usize > need)
}

/// Per-shard device counts: as even as possible, earlier strips take the
/// remainder (the first is [`ShardedSpec::largest_shard`]).
fn device_split(spec: &ShardedSpec) -> Vec<usize> {
    let shards = spec.num_shards();
    let base = spec.devices / shards;
    let extra = spec.devices % shards;
    (0..shards).map(|s| base + usize::from(s < extra)).collect()
}

/// Builds the strip topologies: shard `s` owns the square
/// `x ∈ [s·side, (s+1)·side) × y ∈ [0, side)`. Positions are in *global*
/// campus coordinates, so boundary distances — and therefore boundary
/// interference — are physical.
pub fn shard_topologies(spec: &ShardedSpec) -> Vec<Topology> {
    let strip_w = spec.side;
    device_split(spec)
        .into_iter()
        .enumerate()
        .map(|(s, count)| {
            // Two access points per strip, at the third points of the
            // centerline: DiGS routes over a two-parent uplink DAG, and a
            // single sink degenerates it (every near-AP relay funnels
            // through one listener and churns) — the same shape both
            // fleet templates use.
            let mut positions = vec![
                Position::new(strip_w * (s as f64 + 1.0 / 3.0), spec.side * 0.5),
                Position::new(strip_w * (s as f64 + 2.0 / 3.0), spec.side * 0.5),
            ];
            let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
            let pseed = rng::mix(spec.seed, s as u64, 0x5aa4, 0);
            // Jittered grid, not uniform scatter: engineered campuses
            // instrument on a survey grid, and a uniform scatter grows
            // 7-hop wandering routes whose tail relays never stop
            // churning (the same lesson as the factory-floor template).
            let cols = (count as f64).sqrt().ceil().max(1.0) as usize;
            let rows = count.div_ceil(cols);
            for i in 0..count {
                let (r, c) = (i / cols, i % cols);
                let ju = rng::uniform01(pseed, i as u64, 1, 0) - 0.5;
                let jv = rng::uniform01(pseed, i as u64, 2, 0) - 0.5;
                let u = (c as f64 + 0.5 + ju * 0.4) / cols as f64;
                let v = (r as f64 + 0.5 + jv * 0.4) / rows as f64;
                positions.push(Position::new(strip_w * (s as f64 + u), spec.side * v));
                roles.push(Role::FieldDevice);
            }
            Topology::new(format!("{}-shard{}", spec.name, s), positions, roles)
                .with_rf(RfConfig::open_area())
        })
        .collect()
}

/// Builds the per-shard network configs (flows sourced far from the
/// shard's access point, slotframe sized to the shard).
///
/// # Panics
///
/// When a shard holds more than `MAX_SHARD_DEVICES` (1021) devices, which
/// [`crate::FleetParams::check`] refuses.
pub fn shard_configs(spec: &ShardedSpec, secs: u64) -> Vec<NetworkConfig> {
    shard_topologies(spec)
        .into_iter()
        .enumerate()
        .map(|(s, topology)| {
            let devices = topology.len() - topology.num_access_points();
            let flows = spec.flows_per_shard.min(devices);
            let flow_seed = rng::mix(spec.seed, s as u64, 0xf10, 2);
            // 30 s monitor period: discovery-phase loss scales with the
            // traffic rate (every NACK burst swaps a parent and resets a
            // registration), so campus monitor flows poll at SCADA pace
            // rather than the templates' 5-10 s.
            let flow_set = scenarios::delay_flows(
                scenarios::far_flow_set(&topology, flows, 3_000, flow_seed),
                scenarios::WARMUP_SECS,
            );
            let slotframes = digs_scheduling::SlotframeLengths {
                app: app_slotframe(devices).unwrap_or_else(|| {
                    panic!("shard of {devices} devices exceeds the slotframe ladder")
                }),
                ..digs_scheduling::SlotframeLengths::paper()
            };
            let config = NetworkConfig::builder(topology)
                .protocol(Protocol::Digs)
                .slotframes(slotframes)
                .seed(rng::mix(spec.seed, s as u64, 0x5a4d, 3))
                .flows(flow_set)
                // Same discovery-phase allowances as the fleet templates
                // (see `digs::scenarios`), scaled to the shard size: link
                // quality is only learned from data traffic, and a
                // 100-device shard legitimately swaps tens of parents per
                // epoch while ETX estimates settle.
                .health_settle_secs(300)
                .health_churn_storm((devices as u32 / 3).max(16))
                .build();
            fleet_tuned(config, secs)
        })
        .collect()
}

/// One shard's observed channel occupancy over a slotframe window — the
/// state shards exchange at window edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryLoad {
    /// Committed transmissions per physical channel during the window.
    pub per_channel: [u64; 16],
    /// Window length in slots.
    pub window_slots: u64,
}

impl BoundaryLoad {
    /// The per-channel emission duty (per-mille) a neighbor should model:
    /// transmissions per slot, clamped to 1000‰.
    pub fn duty_pm(&self) -> [u16; 16] {
        let mut duty = [0u16; 16];
        if self.window_slots == 0 {
            return duty;
        }
        for (d, &tx) in duty.iter_mut().zip(&self.per_channel) {
            *d = ((tx * 1_000) / self.window_slots).min(1_000) as u16;
        }
        duty
    }
}

/// What a sharded-network run produced.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// One summary per shard, labeled `name/shard<i>`.
    pub summaries: Vec<NetworkSummary>,
    /// Per-shard compute time (for a utilization report).
    pub busy: Vec<Duration>,
    /// Slotframe windows executed.
    pub windows: u64,
    /// Ambient-jammer installations with nonzero duty — evidence the
    /// boundary exchange actually carried load.
    pub boundary_installs: u64,
}

/// Runs one sharded network: all shards advance one slotframe window per
/// round (fanned over the pool), then exchange boundary interference.
pub fn run_sharded(spec: &ShardedSpec, secs: u64, jobs: usize) -> ShardedOutcome {
    let configs = shard_configs(spec, secs);
    let shards = configs.len();
    let strip_w = spec.side;
    // All shards exchange on the widest shard's application slotframe so
    // window edges line up across the fleet of shards.
    let window: u64 = configs.iter().map(|c| u64::from(c.slotframes.app)).max().unwrap_or(1);
    let tx_power = configs[0].rf.tx_power;
    eprintln!(
        "fleet: sharded `{}`: {} device(s) over {} shard(s), exchange every {} slots",
        spec.name, spec.devices, shards, window
    );

    let mut nets: Vec<(usize, Network)> =
        configs.into_iter().map(Network::new).enumerate().collect();
    let mut busy = vec![Duration::ZERO; shards];
    let mut prev_tx = vec![[0u64; 16]; shards];
    let mut windows = 0u64;
    let mut boundary_installs = 0u64;
    let total_slots = secs * SLOTS_PER_SECOND;
    let mut done = 0u64;
    while done < total_slots {
        let step = window.min(total_slots - done);
        let name = spec.name.clone();
        let timed = pool::par_map_labeled(
            nets,
            jobs,
            |_, (s, _)| format!("{name}/shard{s}@slot{done}"),
            move |(s, mut net)| {
                net.run_audited(step, AUDIT_EVERY);
                (s, net)
            },
        );
        nets = timed
            .into_iter()
            .map(|t| {
                busy[t.value.0] += t.elapsed;
                t.value
            })
            .collect();
        done += step;
        windows += 1;

        // Boundary exchange: what each shard transmitted this window
        // becomes its neighbors' ambient load for the next one.
        let loads: Vec<BoundaryLoad> = nets
            .iter()
            .zip(&prev_tx)
            .map(|((_, net), prev)| {
                let now = net.engine().stats().channel_tx;
                let mut per_channel = [0u64; 16];
                for (d, (n, p)) in per_channel.iter_mut().zip(now.iter().zip(prev)) {
                    *d = n - p;
                }
                BoundaryLoad { per_channel, window_slots: step }
            })
            .collect();
        for ((_, net), prev) in nets.iter().zip(&mut prev_tx) {
            *prev = net.engine().stats().channel_tx;
        }
        if done >= total_slots {
            break; // no window follows; skip the final install
        }
        for (s, (_, net)) in nets.iter_mut().enumerate() {
            let mut ambient = Vec::new();
            for nb in [s.checked_sub(1), (s + 1 < shards).then_some(s + 1)].into_iter().flatten() {
                let duty = loads[nb].duty_pm();
                if duty.iter().any(|&d| d > 0) {
                    // The neighbor's aggregate traffic, modelled as one
                    // source at its strip center (distance attenuation
                    // makes the coupling physical: strong at the shared
                    // boundary, negligible two strips away).
                    let position = Position::new(strip_w * (nb as f64 + 0.5), spec.side * 0.5);
                    let salt = rng::mix(spec.seed, nb as u64, 0xb0d7, 4);
                    ambient.push(Jammer::ambient(position, duty, tx_power, salt));
                    boundary_installs += 1;
                }
            }
            net.set_ambient_jammers(ambient);
        }
    }

    let summaries =
        nets.iter().map(|(s, net)| summarize(&format!("{}/shard{}", spec.name, s), net)).collect();
    ShardedOutcome { summaries, busy, windows, boundary_installs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ShardedSpec {
        ShardedSpec {
            name: "tiny".into(),
            devices: 60,
            shard_devices: 30,
            side: 200.0,
            seed: 7,
            flows_per_shard: 2,
        }
    }

    #[test]
    fn slotframe_ladder_covers_shard_sizes() {
        assert_eq!(app_slotframe(40), Some(149));
        assert_eq!(app_slotframe(100), Some(307));
        assert_eq!(app_slotframe(150), Some(457));
        assert_eq!(app_slotframe(250), Some(761));
        assert_eq!(app_slotframe(500), Some(1531));
        assert_eq!(app_slotframe(1000), Some(3067));
        assert_eq!(MAX_SHARD_DEVICES, 1021);
        assert_eq!(app_slotframe(MAX_SHARD_DEVICES), Some(3067));
        assert_eq!(app_slotframe(MAX_SHARD_DEVICES + 1), None);
    }

    #[test]
    fn strips_partition_the_area() {
        let spec = tiny_spec();
        let topos = shard_topologies(&spec);
        assert_eq!(topos.len(), 2);
        let strip_w = spec.side;
        for (s, topo) in topos.iter().enumerate() {
            assert_eq!(topo.len(), 32, "30 devices + 2 APs");
            assert_eq!(topo.num_access_points(), 2);
            for id in topo.node_ids() {
                let p = topo.position(id);
                let lo = strip_w * s as f64;
                assert!(p.x >= lo && p.x < lo + strip_w, "shard {s} leaked: {p}");
                assert!(p.y >= 0.0 && p.y <= spec.side);
            }
        }
    }

    #[test]
    fn uneven_devices_split_deterministically() {
        let spec = ShardedSpec { devices: 61, ..tiny_spec() };
        assert_eq!(device_split(&spec), vec![21, 20, 20]);
        assert_eq!(spec.largest_shard(), 21);
    }

    #[test]
    fn boundary_load_duty_is_clamped_per_mille() {
        let mut per_channel = [0u64; 16];
        per_channel[3] = 50;
        per_channel[7] = 2_000;
        let load = BoundaryLoad { per_channel, window_slots: 1_000 };
        let duty = load.duty_pm();
        assert_eq!(duty[3], 50);
        assert_eq!(duty[7], 1_000, "duty clamps at always-on");
        assert_eq!(duty[0], 0);
        assert_eq!(BoundaryLoad { per_channel, window_slots: 0 }.duty_pm(), [0u16; 16]);
    }

    #[test]
    fn sharded_run_is_deterministic_and_exchanges_load() {
        let spec = tiny_spec();
        let a = run_sharded(&spec, 150, 2);
        let b = run_sharded(&spec, 150, 1);
        assert_eq!(a.summaries.len(), 2);
        assert!(a.windows > 1, "the run must cross at least one exchange edge");
        assert!(a.boundary_installs > 0, "steady-state traffic must produce nonzero boundary load");
        // Same spec, different worker counts: identical outcomes.
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.boundary_installs, b.boundary_installs);
        for s in &a.summaries {
            assert!(s.generated > 0, "{}: flows must generate traffic", s.label);
            assert!(s.pdr > 0.3, "{}: PDR collapsed to {}", s.label, s.pdr);
        }
    }
}
