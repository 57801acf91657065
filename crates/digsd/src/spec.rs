//! Launch specs: everything needed to construct a run, as data.
//!
//! The daemon receives a spec as the JSON `spec` field of a `launch`
//! message and dispatches on its `kind`. [`SingleSpec`] is the canonical
//! home of the "CLI options → [`Network`]" wiring — `digs-cli` builds its
//! in-process runs through the same code, so a daemon-launched run and a
//! local `digs-cli run` of the same options are the same network.

use crate::message::Secs;
use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs_fleet::{FleetSpec, ShardedSpec, Template};
use digs_json::{message, Value};
use digs_sim::interference::Jammer;
use digs_sim::position::Position;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// Parses a CLI/wire topology name.
pub fn topology_from(name: &str) -> Result<Topology, String> {
    match name {
        "testbed-a" => Ok(Topology::testbed_a()),
        "testbed-a-half" => Ok(Topology::testbed_a_half()),
        "testbed-b" => Ok(Topology::testbed_b()),
        "testbed-b-half" => Ok(Topology::testbed_b_half()),
        "cooja" => Ok(Topology::cooja_150(7)),
        other => {
            if let Some(spec) = other.strip_prefix("random:") {
                let parts: Vec<&str> = spec.split(':').collect();
                if parts.len() != 2 {
                    return Err("random topology spec is random:<devices>:<side-m>".into());
                }
                let n: usize = parts[0].parse().map_err(|e| format!("bad device count: {e}"))?;
                let side: f64 = parts[1].parse().map_err(|e| format!("bad side length: {e}"))?;
                Ok(Topology::random_area(n, side, 7))
            } else {
                Err(format!("unknown topology `{other}`"))
            }
        }
    }
}

message! {
    /// One single-network run, fully specified. Field-for-field this mirrors
    /// the `digs-cli` run/trace/telemetry options.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SingleSpec: "single" by "kind" {
        /// Topology name (see [`topology_from`]).
        topology: String = "testbed-a".into(),
        /// Protocol name (`digs` | `orchestra` | `wirelesshart`).
        protocol: String = "digs".into(),
        /// Master RNG seed.
        seed: u64 = 1,
        /// Random monitor flows.
        flows: usize = 4,
        /// Flow period, milliseconds.
        period_ms: u64 = 5000,
        /// Simulated seconds.
        secs: u64 as Secs = 300,
        /// Fixed WiFi jammers switching on at 60 s.
        jammers: usize = 0,
        /// Adaptive schedule-learning jammer per access point, on at this
        /// second.
        adaptive_jam: Option<u64> as Option<Secs>,
        /// Schedule-randomization defense secret (`None` = off).
        randomize: Option<u64>,
        /// Flight-recorder capacity per node (`None` = config default).
        trace_cap: Option<usize>,
        /// `(epoch_slots, cap)` — enables telemetry sampling.
        telemetry: Option<(u64, usize)>,
        /// `(start_secs, end_secs)` — full-band jammer cluster on every
        /// access point for the window.
        jam: Option<(u64, u64)> as Option<(Secs, Secs)>,
        /// Invariant-audit cadence in slots (`None` = unaudited run).
        audit_every: Option<u64>,
    }
}

impl Default for SingleSpec {
    /// Every row's default: what the minimal spec `{"kind":"single"}` is.
    fn default() -> SingleSpec {
        SingleSpec::from_json(&Value::Obj(Vec::new())).expect("every row has a default")
    }
}

impl SingleSpec {
    /// Builds the network config. One code path for CLI and daemon: the
    /// construction order below is deterministic, so the same spec always
    /// produces the same network.
    pub fn build_config(&self) -> Result<NetworkConfig, String> {
        let topology = topology_from(&self.topology)?;
        let protocol = Protocol::parse(&self.protocol)?;
        let ap_positions: Vec<Position> =
            topology.access_points().iter().map(|ap| topology.position(*ap)).collect();
        let mut builder = NetworkConfig::builder(topology)
            .protocol(protocol)
            .seed(self.seed)
            .random_flows(self.flows, self.period_ms / 10, self.seed);
        if let Some(cap) = self.trace_cap {
            builder = builder.trace_cap(cap);
        }
        if let Some((epoch_slots, cap)) = self.telemetry {
            if epoch_slots == 0 || cap == 0 {
                return Err("telemetry needs epoch_slots > 0 and cap > 0".into());
            }
            builder = builder.telemetry_epoch(epoch_slots).telemetry_cap(cap);
        }
        for i in 0..self.jammers {
            let pos = Position::new(12.0 + 14.0 * i as f64, 8.0 + 5.0 * i as f64);
            builder = builder.jammer(Jammer::wifi(pos, [1u8, 6, 11][i % 3], Asn::from_secs(60)));
        }
        if let Some(start) = self.adaptive_jam {
            let app_len = digs_scheduling::SlotframeLengths::paper().app;
            for (i, pos) in ap_positions.iter().enumerate() {
                builder = builder.jammer(Jammer::adaptive(
                    Position::new(pos.x + 2.0, pos.y + 2.0),
                    app_len,
                    Asn::from_secs(start),
                    0xada9 ^ ((i as u64) << 8),
                ));
            }
        }
        if let Some(secret) = self.randomize {
            builder = builder.randomize(secret);
        }
        if let Some((start, end)) = self.jam {
            if end <= start {
                return Err(format!("jam window must have start < end, got {start}:{end}"));
            }
            // Four WiFi channels spaced 20 MHz apart blanket all sixteen
            // 802.15.4 channels; one cluster per access point, elevated
            // power, distinct salts (same construction as the CLI's
            // canonical fault-injection smoke).
            for (i, pos) in ap_positions.iter().enumerate() {
                for (k, wifi_ch) in [1u8, 5, 9, 13].into_iter().enumerate() {
                    let mut j = Jammer::wifi(*pos, wifi_ch, Asn::from_secs(start))
                        .until(Asn::from_secs(end));
                    j.tx_power = Dbm(24.0);
                    j.salt = 0x9a7 ^ ((i as u64) << 8) ^ k as u64;
                    builder = builder.jammer(j);
                }
            }
        }
        Ok(builder.build())
    }

    /// Builds the network itself.
    pub fn build(&self) -> Result<Network, String> {
        Ok(Network::new(self.build_config()?))
    }

    /// Total simulated slots this run covers — the bound the resume path
    /// clamps a journaled cursor to (a cursor past the end would mean the
    /// whole run is a "silent" replay with no live tail).
    pub fn total_slots(&self) -> u64 {
        self.secs * digs_sim::time::SLOTS_PER_SECOND
    }
}

message! {
    /// One fleet run: the options of `digs-cli fleet run`, which builds its
    /// fleet through this struct too.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FleetParams: "fleet" by "kind" {
        /// `oil` | `factory` | `mixed`.
        template: String = "mixed".into(),
        /// Independent networks to stamp out.
        networks: u32 = 4,
        /// Seed of the first network.
        seed_base: u64 = 1,
        /// Simulated seconds per network.
        secs: u64 as Secs = 600,
        /// Devices in the optional sharded large network (0 = none). 32 bits
        /// on the wire, so that the node sums the runner does over it fit.
        sharded_devices: u32 = 0,
        /// Devices per shard.
        shard_size: u32 = 100,
        /// Sharded network master seed (`None` = `seed_base`).
        sharded_seed: Option<u64>,
        /// Worker threads (`None` = one per core).
        jobs: Option<usize>,
    }
}

impl Default for FleetParams {
    /// Every row's default.
    fn default() -> FleetParams {
        FleetParams::from_json(&Value::Obj(Vec::new())).expect("every row has a default")
    }
}

impl FleetParams {
    /// Expands to the fleet spec.
    pub fn build(&self) -> Result<FleetSpec, String> {
        // Network `k` runs at seed `seed_base + k`.
        if self.seed_base.checked_add(u64::from(self.networks)).is_none() {
            return Err(format!(
                "seed_base: {} leaves no seeds for {} networks",
                self.seed_base, self.networks
            ));
        }
        let mut spec = FleetSpec::new().secs(self.secs);
        match self.template.as_str() {
            "mixed" => {
                // Alternating split: oil-field gets the odd network out.
                let oil = self.networks.div_ceil(2);
                if oil > 0 {
                    spec = spec.group(Template::OilField, oil, self.seed_base);
                }
                if self.networks > oil {
                    spec = spec.group(Template::FactoryFloor, self.networks - oil, self.seed_base);
                }
            }
            name => {
                let template: Template = name.parse()?;
                spec = spec.group(template, self.networks, self.seed_base);
            }
        }
        if self.sharded_devices > 0 {
            if self.shard_size == 0 {
                return Err("shard_size must be > 0".into());
            }
            let seed = self.sharded_seed.unwrap_or(self.seed_base);
            let mut sharded = ShardedSpec::sized(
                format!("campus-{}", self.sharded_devices),
                self.sharded_devices as usize,
                seed,
            );
            sharded.shard_devices = self.shard_size as usize;
            spec = spec.sharded(sharded);
        }
        if spec.networks() == 0 {
            return Err("empty fleet: need networks > 0 or sharded_devices > 0".into());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_spec_round_trips() {
        let spec = SingleSpec {
            topology: "testbed-b-half".into(),
            protocol: "orchestra".into(),
            seed: 42,
            flows: 6,
            period_ms: 2000,
            secs: 120,
            jammers: 2,
            adaptive_jam: Some(90),
            randomize: Some(7),
            trace_cap: Some(4096),
            telemetry: Some((500, 128)),
            jam: Some((60, 90)),
            audit_every: Some(2000),
        };
        let back = SingleSpec::from_json(&spec.to_json()).expect("decodes");
        assert_eq!(back, spec);
        // Text round-trip too: this is what actually crosses the wire.
        let text = spec.to_json().to_compact();
        let parsed = digs_json::parse(&text).expect("parses");
        assert_eq!(SingleSpec::from_json(&parsed).expect("decodes"), spec);
    }

    #[test]
    fn sixty_four_bit_seeds_and_secrets_cross_the_wire_exactly() {
        // Both used to pass through an f64: 2^53+1 arrived as 2^53 and the
        // secret as …111680, so the daemon built a different network than
        // `digs-cli run` did from the same options.
        let spec = SingleSpec {
            seed: (1 << 53) + 1,
            randomize: Some(0xdead_beef_cafe_f00d),
            ..SingleSpec::default()
        };
        let text = spec.to_json().to_compact();
        assert!(text.contains("\"seed\":9007199254740993"), "{text}");
        assert!(text.contains("\"randomize\":16045690984503111693"), "{text}");
        let back = SingleSpec::from_json(&digs_json::parse(&text).expect("parses")).expect("ok");
        assert_eq!(back, spec);
        let (a, b) = (spec.build_config().expect("builds"), back.build_config().expect("builds"));
        assert_eq!((a.seed, a.sched_randomize), (spec.seed, spec.randomize));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "both sides build the same network");
    }

    #[test]
    fn out_of_range_and_ill_typed_spec_fields_are_errors() {
        let single = |text: &str| SingleSpec::from_json(&digs_json::parse(text).expect("parses"));
        assert!(single(r#"{"seed":-1}"#).unwrap_err().contains("seed"));
        assert!(single(r#"{"seed":"7"}"#).unwrap_err().contains("seed"));
        assert!(single(r#"{"flows":1e30}"#).unwrap_err().contains("flows"));
        assert!(single(r#"{"telemetry":[1000,1.5]}"#).unwrap_err().contains("telemetry[1]"));
        assert!(single(r#"{"topology":7}"#).unwrap_err().contains("topology"));
        let fleet = |text: &str| FleetParams::from_json(&digs_json::parse(text).expect("parses"));
        // 2^32+1 networks used to wrap to 1.
        let err = fleet(r#"{"networks":4294967297}"#).unwrap_err();
        assert!(err.contains("networks") && err.contains("4294967297"), "{err}");
        assert_eq!(fleet(r#"{"networks":4294967295}"#).expect("fits").networks, u32::MAX);
    }

    #[test]
    fn seconds_whose_slot_count_overflows_are_refused_at_decode() {
        // `secs × 100` used to panic a debug daemon in `total_slots` and
        // `Asn::from_secs`, and wrap to a garbage run length in release.
        let single = |text: &str| SingleSpec::from_json(&digs_json::parse(text).expect("parses"));
        let fleet = |text: &str| FleetParams::from_json(&digs_json::parse(text).expect("parses"));
        let max = u64::MAX;
        assert!(single(&format!(r#"{{"secs":{max}}}"#)).unwrap_err().contains("`secs`"));
        assert!(single(&format!(r#"{{"adaptive_jam":{max}}}"#))
            .unwrap_err()
            .contains("`adaptive_jam`"));
        assert!(single(&format!(r#"{{"jam":[{max},5]}}"#)).unwrap_err().contains("`jam[0]`"));
        assert!(single(&format!(r#"{{"jam":[5,{max}]}}"#)).unwrap_err().contains("`jam[1]`"));
        assert!(fleet(&format!(r#"{{"secs":{max}}}"#)).unwrap_err().contains("`secs`"));
        // The largest countable run still decodes, and its slots fit.
        let edge = max / digs_sim::time::SLOTS_PER_SECOND;
        let spec = single(&format!(r#"{{"secs":{edge},"jam":[1,{edge}]}}"#)).expect("fits");
        assert_eq!(spec.total_slots(), edge * digs_sim::time::SLOTS_PER_SECOND);
        assert!(single(&format!(r#"{{"secs":{}}}"#, edge + 1)).is_err());
    }

    #[test]
    fn minimal_spec_takes_defaults() {
        let v = digs_json::parse(r#"{"kind":"single"}"#).expect("parses");
        assert_eq!(SingleSpec::from_json(&v).expect("decodes"), SingleSpec::default());
    }

    #[test]
    fn fleet_params_round_trip_and_build() {
        let params = FleetParams {
            template: "mixed".into(),
            networks: 3,
            seed_base: 5,
            secs: 150,
            sharded_devices: 0,
            shard_size: 100,
            sharded_seed: None,
            jobs: Some(2),
        };
        let back = FleetParams::from_json(&params.to_json()).expect("decodes");
        assert_eq!(back, params);
        let spec = params.build().expect("builds");
        // mixed split: 2 oil + 1 factory.
        assert_eq!(spec.networks(), 3);
        assert_eq!(spec.secs, 150);
    }

    #[test]
    fn a_fleet_whose_seeds_or_nodes_do_not_fit_is_refused() {
        // Found by `decoder_fuzz.rs` once it built what it decoded: the
        // last network's seed overflowed in `FleetGroup::label` on the run
        // thread, and 2^64 − 1 sharded devices overflowed `total_nodes`.
        let fleet = |text: &str| FleetParams::from_json(&digs_json::parse(text).expect("parses"));
        let max = u64::MAX;
        let late = fleet(&format!(r#"{{"template":"oil","networks":2,"seed_base":{max}}}"#));
        assert!(late.expect("decodes").build().unwrap_err().contains("seed_base"));
        let last = fleet(&format!(r#"{{"networks":2,"seed_base":{}}}"#, max - 2)).expect("decodes");
        assert_eq!(
            last.build().expect("fits").groups[0].label(0),
            format!("oil-field-0000/seed{}", max - 2)
        );
        let err = fleet(&format!(r#"{{"sharded_devices":{max}}}"#)).unwrap_err();
        assert!(err.contains("sharded_devices"), "{err}");
        let big = fleet(r#"{"networks":0,"sharded_devices":4294967295,"shard_size":1}"#);
        assert_eq!(big.expect("decodes").build().expect("fits").total_nodes(), 3 * 4_294_967_295);
    }

    #[test]
    fn same_spec_same_network_config() {
        let spec = SingleSpec { seed: 3, flows: 2, ..SingleSpec::default() };
        let a = spec.build_config().expect("builds");
        let b = spec.build_config().expect("builds");
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(a.topology.len(), b.topology.len());
    }
}
