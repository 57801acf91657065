//! The fleet's one description, [`FleetParams`], and the templates and
//! sharded networks it is made of.

use crate::shard;
use digs::config::{NetworkConfig, Protocol};
use digs::results::Secs;
use digs::scenarios;
use digs_json::{message, Value};

/// A scenario template independent networks are stamped out from. Each
/// template is a promoted [`digs::scenarios`] deployment; the per-network
/// seed selects the flow set and the master RNG seed, so two networks of
/// the same template never share a channel realisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// 47-node pipeline deployment ([`scenarios::oil_field`]).
    OilField,
    /// 82-node machine-hall deployment ([`scenarios::factory_floor`]).
    FactoryFloor,
}

impl Template {
    /// Short name used in labels, reports, and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            Template::OilField => "oil-field",
            Template::FactoryFloor => "factory-floor",
        }
    }

    /// Nodes per network (access points + field devices).
    pub fn nodes(self) -> usize {
        match self {
            Template::OilField => 47,
            Template::FactoryFloor => 82,
        }
    }

    /// Instantiates the template for one network.
    pub fn config(self, seed: u64) -> NetworkConfig {
        match self {
            Template::OilField => scenarios::oil_field(Protocol::Digs, seed),
            Template::FactoryFloor => scenarios::factory_floor(Protocol::Digs, seed),
        }
    }

    /// The label of network `k` of a group, run at `seed` — stable across
    /// runs, used for panic attribution and the worst-k table.
    pub fn label(self, k: u32, seed: u64) -> String {
        format!("{}-{:04}/seed{}", self.name(), k, seed)
    }
}

impl std::str::FromStr for Template {
    type Err = String;

    fn from_str(s: &str) -> Result<Template, String> {
        match s {
            "oil" | "oil-field" => Ok(Template::OilField),
            "factory" | "factory-floor" => Ok(Template::FactoryFloor),
            other => Err(format!("unknown template `{other}` (expected oil | factory)")),
        }
    }
}

/// One spatially sharded large network: a row of `side` × `side` m
/// square strips, one shard per strip, that run their slot loops
/// independently and exchange boundary-interference state at
/// slotframe-window edges (see [`crate::shard`]).
#[derive(Debug, Clone)]
pub struct ShardedSpec {
    /// Network name (labels, reports).
    pub name: String,
    /// Total field devices across all shards.
    pub devices: usize,
    /// Maximum field devices per shard (each shard also gets two access
    /// points on its strip centerline).
    pub shard_devices: usize,
    /// Side of one square shard strip, meters — it bounds how far a
    /// device can sit from its strip-center access point, and therefore
    /// the hop depth the shard's slotframe latency must cover.
    pub side: f64,
    /// Master seed (drives placement, flows, and every shard's stacks).
    pub seed: u64,
    /// Monitor flows sourced per shard.
    pub flows_per_shard: usize,
}

impl ShardedSpec {
    /// A campus-scale default: `devices` devices in 100-device shards
    /// over 120 m × 120 m strips, 8 monitor flows each.
    pub fn sized(name: impl Into<String>, devices: usize, seed: u64) -> ShardedSpec {
        // The strip side is set by the latency budget, not the device
        // count: a 100-device shard needs a 307-slot Eq. 4 frame
        // (~3.1 s), routing hops cover 35–50 m under the open-area
        // model, and the route from a strip corner (~141 m out) must
        // land within the 30 s monitor period with margin. Growing
        // `devices` therefore adds strips instead of stretching them.
        ShardedSpec {
            name: name.into(),
            devices,
            shard_devices: 100,
            side: 120.0,
            seed,
            flows_per_shard: 8,
        }
    }

    /// Number of shards this spec partitions into.
    pub fn num_shards(&self) -> usize {
        self.devices.div_ceil(self.shard_devices.max(1)).max(1)
    }

    /// Field devices in the largest shard (the split is as even as
    /// possible, earlier strips taking the remainder).
    pub(crate) fn largest_shard(&self) -> usize {
        self.devices.div_ceil(self.num_shards())
    }

    /// Total nodes including the two access points per shard.
    pub fn total_nodes(&self) -> usize {
        self.devices + 2 * self.num_shards()
    }
}

message! {
    /// The fleet: the options of `digs-cli fleet run` and the daemon's
    /// `fleet` launch spec. Independent networks stamped out from a
    /// template, plus an optional sharded large network, all run for the
    /// same simulated duration; [`FleetParams::check`] is its validation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FleetParams: "fleet" by "kind" {
        /// `oil` | `factory` | `mixed`.
        template: String = "mixed".into(),
        /// Independent networks to stamp out.
        networks: u32 = 4,
        /// Seed of the first network.
        seed_base: u64 = 1,
        /// Simulated seconds per network. The default is sized so lifetime
        /// PDR clears the SLO floors: link quality is only discovered by
        /// data traffic, and the first ~3 minutes of a run legitimately lose
        /// packets while ETX estimates correct themselves.
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
    /// Refuses a fleet the runner cannot run: seconds whose slots do not
    /// fit the slot counter, a last network's seed that overflows, an
    /// unknown template, a zero or unframeable shard size, or no network at
    /// all.
    pub fn check(&self) -> Result<(), String> {
        Secs::slots("secs", self.secs)?;
        // Network `k` runs at seed `seed_base + k`.
        if self.seed_base.checked_add(u64::from(self.networks)).is_none() {
            return Err(format!(
                "seed_base: {} leaves no seeds for {} networks",
                self.seed_base, self.networks
            ));
        }
        self.groups()?;
        if let Some(sharded) = self.sharded() {
            if self.shard_size == 0 {
                return Err("shard_size must be > 0".into());
            }
            let largest = sharded.largest_shard();
            if shard::app_slotframe(largest).is_none() {
                return Err(format!(
                    "shard_size: a shard of {largest} devices is more than the slotframe \
                     ladder frames (at most {})",
                    shard::MAX_SHARD_DEVICES
                ));
            }
        }
        if self.networks() == 0 {
            return Err("empty fleet: need networks > 0 or sharded_devices > 0".into());
        }
        Ok(())
    }

    /// The independent networks' templates and counts, in run order. Each
    /// group counts network `k` from `seed_base`: `mixed` gives the oil
    /// fields the odd network out, then the factory floors.
    pub fn groups(&self) -> Result<Vec<(Template, u32)>, String> {
        Ok(match self.template.as_str() {
            "mixed" => {
                let oil = self.networks.div_ceil(2);
                vec![(Template::OilField, oil), (Template::FactoryFloor, self.networks - oil)]
            }
            name => vec![(name.parse()?, self.networks)],
        })
    }

    /// The sharded large network, when `sharded_devices > 0`.
    pub fn sharded(&self) -> Option<ShardedSpec> {
        (self.sharded_devices > 0).then(|| {
            let devices = self.sharded_devices as usize;
            let seed = self.sharded_seed.unwrap_or(self.seed_base);
            let mut sharded = ShardedSpec::sized(format!("campus-{devices}"), devices, seed);
            sharded.shard_devices = self.shard_size as usize;
            sharded
        })
    }

    /// Total networks (a sharded network counts once).
    pub fn networks(&self) -> usize {
        self.networks as usize + usize::from(self.sharded_devices > 0)
    }

    /// Total simulated nodes across the fleet (an unknown template's
    /// networks count none).
    pub fn total_nodes(&self) -> u64 {
        let groups = self.groups().unwrap_or_default();
        let independent: u64 = groups.iter().map(|&(t, n)| u64::from(n) * t.nodes() as u64).sum();
        independent + self.sharded().map_or(0, |s| s.total_nodes() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_parse_and_shape() {
        assert_eq!("oil".parse::<Template>().unwrap(), Template::OilField);
        assert_eq!("factory-floor".parse::<Template>().unwrap(), Template::FactoryFloor);
        assert!("refinery".parse::<Template>().is_err());
        // The advertised node counts must match the actual topologies.
        for t in [Template::OilField, Template::FactoryFloor] {
            assert_eq!(t.config(1).topology.len(), t.nodes(), "{}", t.name());
        }
    }

    #[test]
    fn group_labels_are_stable_and_distinct() {
        assert_eq!(Template::OilField.label(0, 10), "oil-field-0000/seed10");
        assert_eq!(Template::OilField.label(2, 12), "oil-field-0002/seed12");
    }

    #[test]
    fn fleet_arithmetic() {
        let params = FleetParams {
            networks: 14,
            sharded_devices: 1000,
            sharded_seed: Some(7),
            ..FleetParams::default()
        };
        assert_eq!(
            params.groups().expect("mixed"),
            vec![(Template::OilField, 7), (Template::FactoryFloor, 7)]
        );
        assert_eq!(params.networks(), 15);
        // 7*47 + 7*82 + (1000 devices + 2 APs x 10 shards)
        assert_eq!(params.total_nodes(), 329 + 574 + 1020);
    }

    #[test]
    fn sharded_partition_counts() {
        let s = ShardedSpec::sized("x", 1000, 1);
        assert_eq!(s.num_shards(), 10);
        assert_eq!(s.total_nodes(), 1020);
        assert_eq!(s.largest_shard(), 100);
        let odd = ShardedSpec { devices: 501, ..s };
        assert_eq!(odd.num_shards(), 6);
        assert_eq!(odd.largest_shard(), 84);
    }

    fn fleet(text: &str) -> Result<FleetParams, String> {
        FleetParams::from_json(&digs_json::parse(text).expect("parses"))
    }

    #[test]
    fn fleet_params_round_trip_and_check() {
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
        params.check().expect("checks");
        // mixed split: 2 oil + 1 factory.
        assert_eq!(
            params.groups().expect("mixed"),
            vec![(Template::OilField, 2), (Template::FactoryFloor, 1)]
        );
        assert_eq!(params.networks(), 3);
    }

    #[test]
    fn out_of_range_and_ill_typed_fleet_fields_are_errors() {
        // 2^32+1 networks used to wrap to 1.
        let err = fleet(r#"{"networks":4294967297}"#).unwrap_err();
        assert!(err.contains("networks") && err.contains("4294967297"), "{err}");
        assert_eq!(fleet(r#"{"networks":4294967295}"#).expect("fits").networks, u32::MAX);
        // `secs × 100` must fit the slot counter, decoded or set.
        assert!(fleet(&format!(r#"{{"secs":{}}}"#, u64::MAX)).unwrap_err().contains("`secs`"));
        let set = FleetParams { secs: u64::MAX / 100 + 1, ..FleetParams::default() };
        assert!(set.check().unwrap_err().starts_with("`secs`"));
        FleetParams { secs: u64::MAX / 100, ..FleetParams::default() }.check().expect("fits");
    }

    #[test]
    fn a_fleet_whose_seeds_or_nodes_do_not_fit_is_refused() {
        // Found by `decoder_fuzz.rs` once it built what it decoded: the
        // last network's seed overflowed in the label on the run thread,
        // and 2^64 − 1 sharded devices overflowed `total_nodes`.
        let max = u64::MAX;
        let late = fleet(&format!(r#"{{"template":"oil","networks":2,"seed_base":{max}}}"#));
        assert!(late.expect("decodes").check().unwrap_err().contains("seed_base"));
        let last = fleet(&format!(r#"{{"networks":2,"seed_base":{}}}"#, max - 2)).expect("decodes");
        last.check().expect("fits");
        assert_eq!(last.groups().expect("mixed")[0], (Template::OilField, 1));
        let err = fleet(&format!(r#"{{"sharded_devices":{max}}}"#)).unwrap_err();
        assert!(err.contains("sharded_devices"), "{err}");
        let big = fleet(r#"{"networks":0,"sharded_devices":4294967295,"shard_size":1}"#);
        let big = big.expect("decodes");
        big.check().expect("fits");
        assert_eq!(big.total_nodes(), 3 * 4_294_967_295);
    }

    #[test]
    fn a_fleet_that_cannot_run_is_refused_naming_its_field() {
        let refused = |params: FleetParams| params.check().unwrap_err();
        let d = FleetParams::default();
        assert!(
            refused(FleetParams { template: "refinery".into(), ..d.clone() }).contains("refinery")
        );
        assert_eq!(
            refused(FleetParams { networks: 0, ..d.clone() }),
            "empty fleet: need networks > 0 or sharded_devices > 0"
        );
        let campus = |devices, shard_size| FleetParams {
            networks: 0,
            sharded_devices: devices,
            shard_size,
            ..d.clone()
        };
        assert_eq!(refused(campus(60, 0)), "shard_size must be > 0");
        // The slotframe ladder's largest frame, 3067 slots, frames 1021
        // devices (Eq. 4 needs more than 3 × (devices + 1) cells).
        campus(1021, 1021).check().expect("the ladder's largest shard");
        let err = refused(campus(1022, 1022));
        assert!(err.starts_with("shard_size") && err.contains("1022"), "{err}");
        assert!(refused(campus(2000, 2000)).starts_with("shard_size"));
        // A shard size above the devices is one shard of the devices.
        campus(500, 2000).check().expect("one 500-device shard");
        // 2043 devices in shards of 1022 split 1022 + 1021.
        assert!(refused(campus(2043, 1022)).starts_with("shard_size"));
        campus(2042, 1022).check().expect("two 1021-device shards");
    }
}
