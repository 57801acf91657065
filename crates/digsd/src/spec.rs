//! Launch specs: everything needed to construct a run, as data.
//!
//! The daemon receives a spec as the JSON `spec` field of a `launch`
//! message and dispatches on its `kind`. [`SingleSpec`] is the canonical
//! home of the "CLI options → [`Network`]" wiring — `digs-cli` builds its
//! in-process runs through the same code, so a daemon-launched run and a
//! local `digs-cli run` of the same options are the same network.

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::results::Secs;
use digs::scenarios;
use digs_json::{message, Value};
use digs_sim::interference::Jammer;
use digs_sim::position::Position;
use digs_sim::time::{Asn, SLOT_MS};
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
                if n == 0 {
                    return Err("a random topology needs at least one device".into());
                }
                if !(side.is_finite() && side > 0.0) {
                    return Err(format!("bad side length: {side} is not a positive length"));
                }
                Ok(Topology::random_area(n, side, 7))
            } else {
                Err(format!("unknown topology `{other}`"))
            }
        }
    }
}

/// The most fixed WiFi jammers a [`SingleSpec`] may ask for: one per
/// 802.15.4 channel. Each stands 14 m further along a diagonal than the
/// last, so more would stand outside every topology while still costing
/// the engine work each slot, and the count comes off the wire as any
/// 64-bit number.
const MAX_JAMMERS: usize = 16;

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
        /// Invariant-audit cadence in slots, at least 1 (`None` = unaudited
        /// run).
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
        // A spec set in code skips the decoder's refusal of seconds whose
        // slots overflow, so it is made here too.
        let (jam_start, jam_end) = self.jam.unzip();
        let times = [
            ("secs", Some(self.secs)),
            ("adaptive_jam", self.adaptive_jam),
            ("jam", jam_start),
            ("jam", jam_end),
        ];
        for (key, secs) in times {
            if let Some(secs) = secs {
                Secs::slots(key, secs)?;
            }
        }
        if self.period_ms < SLOT_MS {
            return Err(format!(
                "period_ms: {} is shorter than one {SLOT_MS} ms slot",
                self.period_ms
            ));
        }
        if self.audit_every == Some(0) {
            return Err("audit_every: 0 is no cadence; leave it out for an unaudited run".into());
        }
        let devices = topology.field_devices().len();
        if self.flows > devices {
            return Err(format!(
                "flows: {} flows need as many field devices, and `{}` has {devices}",
                self.flows, self.topology
            ));
        }
        if self.jammers > MAX_JAMMERS {
            return Err(format!("jammers: {} is above the most, {MAX_JAMMERS}", self.jammers));
        }
        let adaptive = self.adaptive_jam.map_or(Vec::new(), |start| {
            scenarios::adaptive_jammers_near_aps(&topology, Asn::from_secs(start))
        });
        let clusters = match self.jam {
            Some((start, end)) if end <= start => {
                return Err(format!("jam window must have start < end, got {start}:{end}"));
            }
            Some((start, end)) => scenarios::jammer_clusters_on_aps(
                &topology,
                Asn::from_secs(start),
                Asn::from_secs(end),
            ),
            None => Vec::new(),
        };
        let mut builder = NetworkConfig::builder(topology)
            .protocol(protocol)
            .seed(self.seed)
            .random_flows(self.flows, self.period_ms / SLOT_MS, self.seed);
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
        for j in adaptive.into_iter().chain(clusters) {
            builder = builder.jammer(j);
        }
        if let Some(secret) = self.randomize {
            builder = builder.randomize(secret);
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
    }

    #[test]
    fn seconds_whose_slot_count_overflows_are_refused_at_decode() {
        // `secs × 100` used to panic a debug daemon in `total_slots` and
        // `Asn::from_secs`, and wrap to a garbage run length in release.
        let single = |text: &str| SingleSpec::from_json(&digs_json::parse(text).expect("parses"));
        let max = u64::MAX;
        assert!(single(&format!(r#"{{"secs":{max}}}"#)).unwrap_err().contains("`secs`"));
        assert!(single(&format!(r#"{{"adaptive_jam":{max}}}"#))
            .unwrap_err()
            .contains("`adaptive_jam`"));
        assert!(single(&format!(r#"{{"jam":[{max},5]}}"#)).unwrap_err().contains("`jam[0]`"));
        assert!(single(&format!(r#"{{"jam":[5,{max}]}}"#)).unwrap_err().contains("`jam[1]`"));
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
    fn a_spec_that_cannot_be_built_is_an_error_naming_its_field() {
        // Each used to panic in `random_flow_set`, or to push jammers
        // without bound, on the daemon's connection thread.
        let refused = |spec: SingleSpec| spec.build_config().unwrap_err();
        assert!(
            refused(SingleSpec { period_ms: 9, ..SingleSpec::default() }).starts_with("period_ms")
        );
        assert!(
            refused(SingleSpec { period_ms: 0, ..SingleSpec::default() }).starts_with("period_ms")
        );
        // Testbed A's 50 nodes are 48 field devices and 2 access points.
        let flows = |flows| SingleSpec { flows, ..SingleSpec::default() };
        assert!(flows(48).build_config().is_ok());
        assert_eq!(
            refused(flows(49)),
            "flows: 49 flows need as many field devices, and `testbed-a` has 48"
        );
        assert!(refused(flows(usize::MAX)).starts_with("flows"));
        let jammers = |jammers| SingleSpec { jammers, ..SingleSpec::default() };
        assert_eq!(jammers(MAX_JAMMERS).build_config().expect("builds").jammers.len(), MAX_JAMMERS);
        assert!(refused(jammers(MAX_JAMMERS + 1)).starts_with("jammers"));
        assert!(refused(jammers(usize::MAX)).starts_with("jammers"));
        let random =
            |topology: &str| SingleSpec { topology: topology.into(), ..SingleSpec::default() };
        assert!(refused(random("random:0:100")).contains("at least one device"));
        for side in ["0", "-3", "nan", "inf"] {
            assert!(refused(random(&format!("random:5:{side}"))).starts_with("bad side length"));
        }
        let edge = u64::MAX / digs_sim::time::SLOTS_PER_SECOND;
        assert!(
            refused(SingleSpec { secs: edge + 1, ..SingleSpec::default() }).starts_with("`secs`")
        );
        let late = SingleSpec { adaptive_jam: Some(edge + 1), ..SingleSpec::default() };
        assert!(refused(late).starts_with("`adaptive_jam`"));
        let jam = SingleSpec { jam: Some((1, edge + 1)), ..SingleSpec::default() };
        assert!(refused(jam).starts_with("`jam`"));
        let shortest = SingleSpec { period_ms: 10, ..SingleSpec::default() };
        assert_eq!(shortest.build_config().expect("builds").flows[0].period, 1);
        let audited = |every| SingleSpec { audit_every: Some(every), ..SingleSpec::default() };
        assert!(refused(audited(0)).starts_with("audit_every"));
        assert!(audited(1).build_config().is_ok());
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
