//! Live telemetry: epoch-sampled time-series metrics and a network
//! health monitor.
//!
//! The flight recorder ([`crate::config::NetworkConfig::trace_cap`])
//! answers *what happened to packet X* after the fact; this layer
//! answers *how is the network doing right now*. On a configurable slot
//! cadence (an **epoch**) the sampler reads the engine, every protocol
//! stack, and the routing/scheduling layers into a typed
//! [`EpochSnapshot`]:
//!
//! - engine: per-channel occupancy, CCA deferrals, noise vs collision
//!   drops, radio duty cycle from the energy meters,
//! - stacks: per-flow windowed PDR, end-to-end latency histograms
//!   ([`digs_metrics::LogHistogram`]), queue depth gauges, parent churn,
//! - routing/scheduling: advertised-ETX distribution, Trickle interval
//!   range (DiGS), slotframe utilization.
//!
//! The sampler's health check evaluates per-epoch rules ([`HealthRule`])
//! over the stream — PDR collapse below the paper's floors, churn storms,
//! queue saturation, convergence stall (the joined-fraction bar shared
//! with [`crate::watchdog`]; the settle time and the churn threshold read
//! from the [`NetworkConfig`]) — and emits typed
//! [`HealthAlert`]s which [`crate::network::Network`]
//! mirrors into the flight recorder as `health-alert` events.
//!
//! Like the trace recorder, telemetry is **off by default and zero-cost
//! when off**: the network holds no sampler at all unless a cadence and
//! cap are configured (see [`TelemetrySettings::resolve`]), and the
//! slot loop is the plain [`digs_sim::engine::Engine::run`] path.
//! Everything sampled comes from the deterministic simulation state, so
//! exports are byte-identical across runs of the same seed.

use crate::config::{NetworkConfig, QUEUE_CAPACITY};
use crate::stack::ProtocolStack;
use crate::watchdog::RESTORE_FRACTION;
use digs_json::message::{decode_line, Kind, Map, Omitted, Rows, WireField};
use digs_json::Value;
use digs_metrics::{LogHistogram, Registry, StreamingSummary};
use digs_sim::engine::Engine;
use digs_sim::time::{SLOTS_PER_SECOND, SLOT_MS};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// Retained-epoch cap when the configuration names none.
pub const DEFAULT_CAP: usize = 4096;

/// Registry keys for the 16 per-channel occupancy counters.
const CHANNEL_KEYS: [&str; 16] = [
    "chan.00", "chan.01", "chan.02", "chan.03", "chan.04", "chan.05", "chan.06", "chan.07",
    "chan.08", "chan.09", "chan.10", "chan.11", "chan.12", "chan.13", "chan.14", "chan.15",
];

/// Resolved telemetry knobs: sampling cadence and retention cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Slots per epoch.
    pub epoch_slots: u64,
    /// Maximum retained epochs; older snapshots are dropped (counted).
    pub cap: usize,
}

impl TelemetrySettings {
    /// The settings a configuration asks for: no cadence means off, no cap
    /// means [`DEFAULT_CAP`]. Returns `None` — telemetry fully off, not a
    /// degraded mode — unless both the cadence and the cap are positive.
    pub fn resolve(config: &NetworkConfig) -> Option<TelemetrySettings> {
        let epoch_slots = config.telemetry_epoch.unwrap_or(0);
        let cap = config.telemetry_cap.unwrap_or(DEFAULT_CAP);
        (epoch_slots > 0 && cap > 0).then_some(TelemetrySettings { epoch_slots, cap })
    }
}

/// Epoch PDR below this fires [`HealthRule::PdrCollapse`] (the paper's
/// Fig. 5 floor band lower edge).
const PDR_FLOOR: f64 = 0.70;

/// Minimum packets generated in an epoch before its PDR is judged (guards
/// against small-sample noise at epoch boundaries).
const MIN_GENERATED: u64 = 4;

/// Seconds after which an unconverged network fires
/// [`HealthRule::ConvergenceStall`].
const STALL_SECS: u64 = 60;

digs_json::named! {
    /// The typed health rules the monitor evaluates each epoch. The names
    /// are stable: they are the trace event's `rule` field.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum HealthRule: "health rule" {
        /// Windowed PDR fell below the configured floor after convergence.
        PdrCollapse = "pdr-collapse",
        /// Parent churn in one epoch exceeded the storm threshold.
        ChurnStorm = "churn-storm",
        /// Some node's application queue reached its configured capacity.
        QueueSaturation = "queue-saturation",
        /// The network failed to converge within the stall deadline.
        ConvergenceStall = "convergence-stall",
    }
}

digs_json::message! {
    /// One alert raised by the health monitor at an epoch boundary: an
    /// `alert` line.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HealthAlert: "alert" by "type" {
        /// Which rule fired.
        rule: HealthRule,
        /// Epoch index (0-based).
        epoch: u64,
        /// First slot of the epoch window.
        asn_start: u64,
        /// One past the last slot of the epoch window.
        asn_end: u64,
        /// Deterministic human-readable detail.
        detail: String,
    }
}

digs_json::message! {
    /// Per-flow delivery counts within one epoch, keyed by generation time
    /// (generated here) vs arrival time (delivered here) — in-flight packets
    /// can make a single epoch's ratio exceed 1.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FlowEpoch {
        /// Flow id.
        flow: u16,
        /// Packets the source generated during the epoch.
        generated: u64,
        /// Unique packets of this flow first delivered during the epoch.
        delivered: u64,
    }
}

digs_json::message! {
    /// A distribution over nodes as an epoch line carries it: how many
    /// samples it has and, when that is any, their mean, min and max.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Spread {
        /// Samples.
        count: u64,
        /// Their mean.
        mean: Option<f64> as Omitted<f64>,
        /// The smallest.
        min: Option<f64> as Omitted<f64>,
        /// The largest.
        max: Option<f64> as Omitted<f64>,
    }
}

impl From<&StreamingSummary> for Spread {
    fn from(s: &StreamingSummary) -> Spread {
        Spread { count: s.count(), mean: s.mean(), min: s.min(), max: s.max() }
    }
}

digs_json::message! {
    /// A latency histogram as an epoch line carries it: its count and, when
    /// that is any, its exact min and max and its non-empty buckets as
    /// `[index, count]` pairs ([`LogHistogram::sparse`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Buckets {
        /// Values recorded.
        count: u64,
        /// The smallest.
        min: Option<u64> as Omitted<u64>,
        /// The largest.
        max: Option<u64> as Omitted<u64>,
        /// The non-empty buckets, in index order.
        buckets: Option<Vec<(usize, u64)>> as Omitted<Vec<(usize, u64)>>,
    }
}

/// Codes a [`LogHistogram`] as its [`Buckets`]. A histogram whose count is
/// not its buckets' sum, or whose min is above its max, is refused.
pub struct Histogram;

impl WireField<LogHistogram> for Histogram {
    const KIND: Kind = Kind::Obj(Buckets::FIELDS);

    fn write(h: &LogHistogram, out: &mut String) {
        let buckets = (!h.is_empty()).then(|| h.sparse());
        Buckets { count: h.count(), min: h.min(), max: h.max(), buckets }.write_json(out);
    }

    fn decode(key: &str, value: &Value) -> Result<LogHistogram, String> {
        let b = Buckets::take_fields(value)?;
        let h = match (b.min, b.max) {
            (Some(min), Some(max)) => {
                LogHistogram::from_sparse(&b.buckets.unwrap_or_default(), min, max)?
            }
            _ => LogHistogram::new(),
        };
        if h.count() != b.count {
            return Err(format!("`{key}` counts {} values, its buckets {}", b.count, h.count()));
        }
        Ok(h)
    }
}

digs_json::message! {
    /// One typed time-series sample covering `[asn_start, asn_end)`: an
    /// `epoch` line.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EpochSnapshot: "epoch" by "type" {
        /// Epoch index (0-based, monotonic even past the retention cap).
        epoch: u64,
        /// First slot of the window.
        asn_start: u64,
        /// One past the last slot of the window.
        asn_end: u64,
        /// Registry counter deltas for the window, in key order.
        counters: Vec<(Cow<'static, str>, u64)> as Map<u64>,
        /// Registry gauge values at the window end, in key order.
        gauges: Vec<(Cow<'static, str>, i64)> as Map<i64>,
        /// Per-flow generation/delivery counts.
        flows: Vec<FlowEpoch>,
        /// End-to-end latencies (ms) of packets delivered in the window.
        latency_ms: LogHistogram as Histogram,
        /// Advertised path cost (ETXw / path ETX) across joined nodes.
        etx: Spread,
        /// Cumulative radio duty cycle across nodes at the window end.
        duty_cycle: Spread,
    }
}

digs_json::message! {
    /// A sampler's settings and counts: the `meta` line. A streamed run
    /// sends it last, once the run is complete and the counts are known.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TelemetryMeta: "meta" by "type" {
        /// Slots per epoch.
        epoch_slots: u64,
        /// Retained-epoch cap.
        cap: usize,
        /// Epochs sampled, dropped ones included.
        epochs: u64,
        /// Epochs dropped past the cap.
        dropped_epochs: u64,
    }
}

digs_json::message! {
    /// One line of a telemetry series, read back: a [`TelemetryView`] reads
    /// these, and DESIGN §4.9 prints their table.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TelemetryLine: "telemetry line type" by "type" {}
    structs {
        /// The `meta` line.
        Meta(TelemetryMeta),
        /// An `epoch` line.
        Epoch(EpochSnapshot),
        /// An `alert` line.
        Alert(HealthAlert),
    }
}

impl TelemetryLine {
    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown `type`, or a field that is missing, of
    /// the wrong type or out of range.
    pub fn decode(line: &str) -> Result<TelemetryLine, String> {
        decode_line(line, TelemetryLine::take_fields)
    }
}

impl EpochSnapshot {
    /// Total packets generated in the window.
    pub fn generated(&self) -> u64 {
        self.flows.iter().map(|f| f.generated).sum()
    }

    /// Total unique packets first delivered in the window.
    pub fn delivered(&self) -> u64 {
        self.flows.iter().map(|f| f.delivered).sum()
    }

    /// Windowed delivery ratio (`None` for an idle window). Can exceed 1
    /// when packets generated earlier arrive in this window.
    pub fn pdr(&self) -> Option<f64> {
        let generated = self.generated();
        (generated > 0).then(|| self.delivered() as f64 / generated as f64)
    }

    /// The delta recorded for a counter key, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The value recorded for a gauge key, if present.
    pub fn gauge(&self, key: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Aggregate view of a whole run's telemetry: its epoch and alert counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySummary {
    /// Epochs sampled (including any dropped past the cap).
    pub epochs: u64,
    /// Health alerts raised.
    pub alerts: u64,
}

/// Convergence-state machine the PDR rules gate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Convergence {
    /// Not yet converged.
    Waiting,
    /// Converged at this slot; PDR rules arm after the settle time.
    At(u64),
}

/// The epoch sampler + health monitor. Owned by
/// [`crate::network::Network`] only when telemetry is enabled — the
/// disabled path holds `None` and allocates nothing.
#[derive(Debug)]
pub struct TelemetrySampler {
    settings: TelemetrySettings,
    registry: Registry,
    epochs: VecDeque<EpochSnapshot>,
    /// Snapshots dropped after hitting the retention cap.
    dropped_epochs: u64,
    next_epoch: u64,
    last_sample_asn: u64,
    /// Cumulative per-flow generated counts at the previous epoch.
    prev_generated: BTreeMap<u16, u64>,
    /// Per-node cursor into each stack's delivery log.
    delivery_cursor: Vec<usize>,
    /// `(flow, seq)` pairs already counted (retransmissions can deliver
    /// a packet more than once).
    seen: BTreeSet<(u16, u32)>,
    /// Run-wide latency histogram across all epochs.
    latency_run: LogHistogram,
    /// Every alert raised so far.
    alerts: Vec<HealthAlert>,
    convergence: Convergence,
    stall_fired: bool,
    /// Cumulative per-channel transmit counts at the previous epoch (for
    /// the per-window channel-entropy gauge).
    prev_channel_tx: [u64; 16],
}

impl TelemetrySampler {
    /// Creates a sampler for a network of `num_nodes` nodes.
    pub fn new(settings: TelemetrySettings, num_nodes: usize) -> Self {
        TelemetrySampler {
            settings,
            registry: Registry::new(),
            epochs: VecDeque::new(),
            dropped_epochs: 0,
            next_epoch: 0,
            last_sample_asn: 0,
            prev_generated: BTreeMap::new(),
            delivery_cursor: vec![0; num_nodes],
            seen: BTreeSet::new(),
            latency_run: LogHistogram::new(),
            alerts: Vec::new(),
            convergence: Convergence::Waiting,
            stall_fired: false,
            prev_channel_tx: [0; 16],
        }
    }

    /// The resolved settings.
    pub fn settings(&self) -> TelemetrySettings {
        self.settings
    }

    /// Retained epoch snapshots, oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = &EpochSnapshot> {
        self.epochs.iter()
    }

    /// Snapshots dropped past the retention cap.
    pub fn dropped_epochs(&self) -> u64 {
        self.dropped_epochs
    }

    /// Every health alert raised so far.
    pub fn alerts(&self) -> &[HealthAlert] {
        &self.alerts
    }

    /// Run-wide end-to-end latency histogram (ms).
    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency_run
    }

    /// The `meta` line's settings and counts.
    pub fn meta(&self) -> TelemetryMeta {
        TelemetryMeta {
            epoch_slots: self.settings.epoch_slots,
            cap: self.settings.cap,
            epochs: self.next_epoch,
            dropped_epochs: self.dropped_epochs,
        }
    }

    /// Aggregate summary for conformance records.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary { epochs: self.next_epoch, alerts: self.alerts.len() as u64 }
    }

    /// Samples one epoch ending at the engine's current slot and runs the
    /// health rules. Returns the alerts raised *this* epoch (the network
    /// mirrors them into the trace). Read-only with respect to the
    /// simulation: observation must never perturb the run.
    pub fn sample(
        &mut self,
        engine: &Engine,
        stacks: &[ProtocolStack],
        config: &NetworkConfig,
    ) -> Vec<HealthAlert> {
        let asn_end = engine.asn().0;
        let asn_start = self.last_sample_asn;
        self.last_sample_asn = asn_end;
        let epoch = self.next_epoch;
        self.next_epoch += 1;

        // --- engine counters → registry (cumulative mirror, delta read) ---
        let stats = engine.stats();
        for (ch, key) in CHANNEL_KEYS.iter().enumerate() {
            self.registry.counter(key).set_at_least(stats.channel_tx[ch]);
        }
        self.registry.counter("tx.data").set_at_least(stats.data.transmitted);
        self.registry.counter("rx.data").set_at_least(stats.data.received);
        self.registry.counter("ack.data").set_at_least(stats.data.acked);
        self.registry.counter("nack.data").set_at_least(stats.data.unacked);
        self.registry.counter("tx.beacon").set_at_least(stats.beacon.transmitted);
        self.registry.counter("tx.routing").set_at_least(stats.routing.transmitted);
        self.registry.counter("cca.deferrals").set_at_least(stats.cca_deferrals);
        self.registry.counter("drop.noise").set_at_least(stats.noise_drops);
        self.registry.counter("drop.collision").set_at_least(stats.collision_drops);
        // Adaptive-jammer observability (all zero without an adaptive
        // jammer in the run; kept unconditional so the export schema is
        // uniform across scenarios).
        self.registry.counter("jam.slots").set_at_least(stats.adaptive_jam_slots);
        self.registry.counter("jam.hits").set_at_least(stats.adaptive_jam_hits);
        self.registry.counter("jam.opps").set_at_least(stats.adaptive_jam_opportunities);
        self.registry.counter("jam.retargets").set_at_least(stats.adaptive_retargets);
        self.registry.counter("jam.relearns").set_at_least(stats.adaptive_relearns);

        // --- stack counters ---
        let mut churn_total = 0u64;
        let mut retry_drops = 0u64;
        let mut queue_drops = 0u64;
        let mut forwarded = 0u64;
        let mut queue_max = 0usize;
        let mut queue_total = 0usize;
        let mut joined = 0usize;
        for stack in stacks {
            let t = stack.telemetry();
            churn_total += t.parent_changes.len() as u64;
            retry_drops += t.retry_drops;
            queue_drops += t.queue_drops;
            forwarded += t.forwarded;
            let depth = stack.app_queue_len();
            queue_max = queue_max.max(depth);
            queue_total += depth;
            if stack.is_joined() {
                joined += 1;
            }
        }
        self.registry.counter("churn.parent").set_at_least(churn_total);
        self.registry.counter("drop.retry").set_at_least(retry_drops);
        self.registry.counter("drop.queue").set_at_least(queue_drops);
        self.registry.counter("fwd.data").set_at_least(forwarded);

        // --- per-flow generation deltas + new deliveries ---
        let mut generated_now: BTreeMap<u16, u64> = BTreeMap::new();
        for spec in &config.flows {
            generated_now.insert(spec.id.0, 0);
        }
        let mut delivered_now: BTreeMap<u16, u64> = BTreeMap::new();
        let mut latency_ms = LogHistogram::new();
        for (i, stack) in stacks.iter().enumerate() {
            let t = stack.telemetry();
            for (flow, count) in &t.generated {
                *generated_now.entry(flow.0).or_insert(0) += u64::from(*count);
            }
            let deliveries = &t.deliveries;
            for record in &deliveries[self.delivery_cursor[i]..] {
                let key = (record.packet.flow.0, record.packet.seq);
                if self.seen.insert(key) {
                    *delivered_now.entry(record.packet.flow.0).or_insert(0) += 1;
                    let ms = (record.delivered_at.0 - record.packet.generated_at.0) * SLOT_MS;
                    latency_ms.record(ms);
                    self.latency_run.record(ms);
                }
            }
            self.delivery_cursor[i] = deliveries.len();
        }
        let flows: Vec<FlowEpoch> = generated_now
            .iter()
            .map(|(&flow, &total)| {
                let prev = self.prev_generated.get(&flow).copied().unwrap_or(0);
                FlowEpoch {
                    flow,
                    generated: total - prev,
                    delivered: delivered_now.get(&flow).copied().unwrap_or(0),
                }
            })
            .collect();
        self.prev_generated = generated_now;

        // --- routing/scheduling gauges ---
        let mut etx = StreamingSummary::new();
        let mut trickle_min = u64::MAX;
        let mut trickle_max = 0u64;
        let mut util = StreamingSummary::new();
        for stack in stacks {
            match stack {
                ProtocolStack::Digs(s) => {
                    if s.is_joined() {
                        etx.push(s.routing().etx_w());
                    }
                    let iv = s.routing().trickle_interval();
                    trickle_min = trickle_min.min(iv);
                    trickle_max = trickle_max.max(iv);
                    util.push(digs_scheduling::analysis::slotframe_utilization(
                        s.cell_claims().len(),
                        config.slotframes.app,
                    ));
                }
                ProtocolStack::Orchestra(s) => {
                    if s.is_joined() {
                        etx.push(s.routing().path_etx());
                    }
                }
                ProtocolStack::WirelessHart(s) => {
                    util.push(digs_scheduling::analysis::slotframe_utilization(
                        s.cell_count(),
                        s.superframe_len(),
                    ));
                }
            }
        }
        let mut duty = StreamingSummary::new();
        for meter in engine.energy_meters() {
            duty.push(meter.duty_cycle());
        }

        let g = &mut self.registry;
        g.gauge("queue.max").set(queue_max as i64);
        g.gauge("queue.total").set(queue_total as i64);
        g.gauge("nodes.joined").set(joined as i64);
        g.gauge("nodes.total").set(stacks.len() as i64);
        if trickle_max > 0 {
            g.gauge("trickle.min_slots").set(trickle_min as i64);
            g.gauge("trickle.max_slots").set(trickle_max as i64);
        }
        if let Some(mean_util) = util.mean() {
            // Basis points: gauges are integers so the export stays free
            // of float formatting concerns in the common table views.
            g.gauge("slotframe.util_bp").set((mean_util * 10_000.0).round() as i64);
        }
        // Cumulative attacker hit rate (basis points): how often a jamming
        // burst actually landed on a victim transmission. The defense's
        // goal is to pin this near the 1-in-16 channel-guessing floor.
        if stats.adaptive_jam_opportunities > 0 {
            let rate = stats.adaptive_jam_hits as f64 / stats.adaptive_jam_opportunities as f64;
            g.gauge("jam.hit_rate_bp").set((rate * 10_000.0).round() as i64);
        }
        // Normalized Shannon entropy of this window's per-channel transmit
        // distribution (basis points; 10 000 = perfectly uniform over the
        // 16 channels). Schedule randomization shows up as this staying
        // high; a static schedule under a channel-focused attack drifts
        // low.
        let mut channel_deltas = [0u64; 16];
        for (ch, delta) in channel_deltas.iter_mut().enumerate() {
            *delta = stats.channel_tx[ch] - self.prev_channel_tx[ch];
        }
        self.prev_channel_tx = stats.channel_tx;
        let total_tx: u64 = channel_deltas.iter().sum();
        if total_tx > 0 {
            let entropy: f64 = channel_deltas
                .iter()
                .filter(|&&d| d > 0)
                .map(|&d| {
                    let p = d as f64 / total_tx as f64;
                    -p * p.log2()
                })
                .sum();
            // log2(16) = 4 bits is the uniform maximum.
            g.gauge("chan.entropy_bp").set((entropy / 4.0 * 10_000.0).round() as i64);
        }

        let snapshot = EpochSnapshot {
            epoch,
            asn_start,
            asn_end,
            counters: named(self.registry.take_counter_deltas()),
            gauges: named(self.registry.gauge_values()),
            flows,
            latency_ms,
            etx: Spread::from(&etx),
            duty_cycle: Spread::from(&duty),
        };
        let new_alerts = self.check_health(&snapshot, stacks.len(), joined, config);
        self.alerts.extend(new_alerts.iter().cloned());

        self.epochs.push_back(snapshot);
        while self.epochs.len() > self.settings.cap {
            self.epochs.pop_front();
            self.dropped_epochs += 1;
        }
        new_alerts
    }

    /// Evaluates the health rules against one snapshot.
    fn check_health(
        &mut self,
        snap: &EpochSnapshot,
        total_nodes: usize,
        joined: usize,
        config: &NetworkConfig,
    ) -> Vec<HealthAlert> {
        let mut alerts = Vec::new();
        let alert = |rule: HealthRule, detail: String| HealthAlert {
            rule,
            epoch: snap.epoch,
            asn_start: snap.asn_start,
            asn_end: snap.asn_end,
            detail,
        };

        // Convergence bookkeeping: converged once the joined fraction
        // clears the watchdog bar; PDR rules arm a settle time later so
        // formation-phase losses don't read as collapses.
        let fraction = joined as f64 / total_nodes.max(1) as f64;
        if self.convergence == Convergence::Waiting && fraction >= RESTORE_FRACTION {
            self.convergence = Convergence::At(snap.asn_end);
        }
        let armed_at = match self.convergence {
            Convergence::Waiting => None,
            Convergence::At(asn) => Some(asn + config.health_settle_secs * SLOTS_PER_SECOND),
        };

        // The steady-state rules only arm once the settle time after
        // convergence has passed: graph formation legitimately churns
        // parents, backlogs queues, and loses packets, and alerting on it
        // would make every clean run noisy.
        if armed_at.is_some_and(|armed| snap.asn_start >= armed) {
            let generated = snap.generated();
            if generated >= MIN_GENERATED {
                if let Some(pdr) = snap.pdr() {
                    if pdr < PDR_FLOOR {
                        alerts.push(alert(
                            HealthRule::PdrCollapse,
                            format!(
                                "epoch PDR {:.2} < {:.2} ({} delivered / {generated} generated)",
                                pdr,
                                PDR_FLOOR,
                                snap.delivered(),
                            ),
                        ));
                    }
                }
            }

            let storm = u64::from(config.health_churn_storm);
            if let Some(churn) = snap.counter("churn.parent") {
                if churn >= storm {
                    alerts.push(alert(
                        HealthRule::ChurnStorm,
                        format!("{churn} parent changes in one epoch (threshold {storm})"),
                    ));
                }
            }

            if let Some(depth) = snap.gauge("queue.max") {
                if depth >= QUEUE_CAPACITY as i64 {
                    alerts.push(alert(
                        HealthRule::QueueSaturation,
                        format!("max queue depth {depth} at capacity {QUEUE_CAPACITY}"),
                    ));
                }
            }
        }

        if !self.stall_fired
            && self.convergence == Convergence::Waiting
            && snap.asn_end >= STALL_SECS * SLOTS_PER_SECOND
        {
            self.stall_fired = true;
            alerts.push(alert(
                HealthRule::ConvergenceStall,
                format!(
                    "{joined}/{total_nodes} nodes joined after {} s (need {:.0}%)",
                    snap.asn_end / SLOTS_PER_SECOND,
                    RESTORE_FRACTION * 100.0,
                ),
            ));
        }
        alerts
    }
}

/// Registry entries with their keys borrowed, as an epoch line's map holds
/// them.
fn named<T>(entries: Vec<(&'static str, T)>) -> Vec<(Cow<'static, str>, T)> {
    entries.into_iter().map(|(key, value)| (Cow::Borrowed(key), value)).collect()
}

// --- sinks -----------------------------------------------------------------

/// Serializes a sampler's full state as deterministic JSONL: one `meta`
/// line, one `epoch` line per retained snapshot, one `alert` line per
/// alert, each written from its rows ([`TelemetryMeta`], [`EpochSnapshot`],
/// [`HealthAlert`]) — the lines a streamed run sends one by one, so a
/// streamed export reassembles to these exact bytes. A float is written as
/// `digs_json::write_num` writes it, so the output is byte-identical for
/// identical runs.
pub fn to_jsonl(sampler: &TelemetrySampler) -> String {
    let mut out = String::new();
    sampler.meta().write_json(&mut out);
    out.push('\n');
    for e in sampler.epochs() {
        e.write_json(&mut out);
        out.push('\n');
    }
    for a in sampler.alerts() {
        a.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Serializes the scalar per-epoch series as CSV (fixed column set).
pub fn to_csv(sampler: &TelemetrySampler) -> String {
    let mut out = String::from(
        "epoch,asn_start,asn_end,generated,delivered,pdr,tx_data,nack_data,drop_noise,\
         drop_collision,drop_queue,churn_parent,queue_max,nodes_joined,latency_p50_ms,\
         latency_p99_ms,duty_mean\n",
    );
    for e in sampler.epochs() {
        let pdr = e.pdr().map_or(String::new(), |p| format!("{p:.4}"));
        let p50 = e.latency_ms.quantile(50.0).map_or(String::new(), |v| format!("{v:.1}"));
        let p99 = e.latency_ms.quantile(99.0).map_or(String::new(), |v| format!("{v:.1}"));
        let duty = e.duty_cycle.mean.map_or(String::new(), |v| format!("{v:.6}"));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            e.epoch,
            e.asn_start,
            e.asn_end,
            e.generated(),
            e.delivered(),
            pdr,
            e.counter("tx.data").unwrap_or(0),
            e.counter("nack.data").unwrap_or(0),
            e.counter("drop.noise").unwrap_or(0),
            e.counter("drop.collision").unwrap_or(0),
            e.counter("drop.queue").unwrap_or(0),
            e.counter("churn.parent").unwrap_or(0),
            e.gauge("queue.max").unwrap_or(0),
            e.gauge("nodes.joined").unwrap_or(0),
            p50,
            p99,
            duty,
        );
    }
    out
}

/// How much of a run a [`TelemetryView`] renders: the last `epochs` table
/// rows and the last `alerts` alert lines.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Table rows shown, newest last.
    pub epochs: usize,
    /// Alert lines shown, newest last.
    pub alerts: usize,
}

impl Window {
    /// Every epoch and every alert.
    pub const ALL: Window = Window { epochs: usize::MAX, alerts: usize::MAX };
}

/// One table row, read from an `epoch` line.
#[derive(Debug)]
struct EpochRow {
    epoch: u64,
    asn_start: u64,
    joined: (i64, i64),
    generated: u64,
    delivered: u64,
    tx: u64,
    drops: u64,
    churn: u64,
    queue_max: i64,
    p50: Option<f64>,
    p99: Option<f64>,
}

impl EpochRow {
    /// The row of an epoch: a counter or gauge it does not carry reads as
    /// 0, and sums saturate (a line off the wire may carry any counts).
    fn of(e: &EpochSnapshot) -> EpochRow {
        let counter = |key| e.counter(key).unwrap_or(0);
        let gauge = |key| e.gauge(key).unwrap_or(0);
        let sum =
            |count: fn(&FlowEpoch) -> u64| e.flows.iter().map(count).fold(0, u64::saturating_add);
        EpochRow {
            epoch: e.epoch,
            asn_start: e.asn_start,
            joined: (gauge("nodes.joined"), gauge("nodes.total")),
            generated: sum(|f| f.generated),
            delivered: sum(|f| f.delivered),
            tx: counter("tx.data"),
            drops: counter("drop.noise").saturating_add(counter("drop.collision")),
            churn: counter("churn.parent"),
            queue_max: gauge("queue.max"),
            p50: e.latency_ms.quantile(50.0),
            p99: e.latency_ms.quantile(99.0),
        }
    }
}

/// The human-readable telemetry view, built from the JSONL lines
/// [`to_jsonl`] writes and a daemon streams — `meta`, `epoch` and `alert`
/// — so a run rendered in process and the same run attached over the wire
/// draw the same text.
#[derive(Debug, Default)]
pub struct TelemetryView {
    /// `(epochs, epoch_slots, dropped_epochs)`; a stream sends `meta` last,
    /// so until it arrives these render as `-`.
    meta: Option<(u64, u64, u64)>,
    epochs: Vec<EpochRow>,
    alerts: Vec<String>,
}

impl TelemetryView {
    /// Reads a whole JSONL export.
    pub fn from_jsonl(text: &str) -> Result<TelemetryView, String> {
        let mut view = TelemetryView::default();
        for line in text.lines() {
            view.push_line(line)?;
        }
        Ok(view)
    }

    /// Adds one `meta`, `epoch` or `alert` line.
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        match TelemetryLine::decode(line).map_err(|e| format!("bad telemetry line: {e}"))? {
            TelemetryLine::Meta(m) => self.meta = Some((m.epochs, m.epoch_slots, m.dropped_epochs)),
            TelemetryLine::Epoch(e) => self.epochs.push(EpochRow::of(&e)),
            TelemetryLine::Alert(a) => self.alerts.push(format!(
                "ALERT {} epoch {} [{}-{}): {}",
                a.rule.as_str(),
                a.epoch,
                a.asn_start,
                a.asn_end,
                a.detail
            )),
        }
        Ok(())
    }

    /// The header, the PDR sparkline over every epoch held, the table over
    /// `window.epochs` and the alert log over `window.alerts`.
    pub fn render(&self, window: Window) -> String {
        let dash = |x: Option<u64>| x.map_or("-".to_string(), |x| x.to_string());
        let points: Vec<crate::timeline::TimelinePoint> = self
            .epochs
            .iter()
            .map(|e| crate::timeline::TimelinePoint {
                start_secs: e.asn_start as f64 / SLOTS_PER_SECOND as f64,
                generated: e.generated.min(u64::from(u32::MAX)) as u32,
                delivered: e.delivered.min(u64::from(u32::MAX)) as u32,
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} epochs x {} slots ({} retained, {} dropped), {} alerts",
            dash(self.meta.map(|m| m.0)),
            dash(self.meta.map(|m| m.1)),
            self.epochs.len(),
            dash(self.meta.map(|m| m.2)),
            self.alerts.len(),
        );
        let _ = writeln!(out, "pdr: {}", crate::timeline::sparkline(&points));
        out.push_str(
            " epoch       t(s)    joined    gen    dlv    pdr      tx  drops  churn   p50ms   p99ms  q.max\n",
        );
        let ms = |x: Option<f64>| x.map_or("-".into(), |v| format!("{v:.0}"));
        for e in &self.epochs[self.epochs.len().saturating_sub(window.epochs)..] {
            let pdr = (e.generated > 0)
                .then(|| format!("{:.2}", e.delivered as f64 / e.generated as f64));
            let _ = writeln!(
                out,
                "{:>6} {:>10.1} {:>9} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6} {:>7} {:>7} {:>6}",
                e.epoch,
                e.asn_start as f64 / SLOTS_PER_SECOND as f64,
                format!("{}/{}", e.joined.0, e.joined.1),
                e.generated,
                e.delivered,
                pdr.as_deref().unwrap_or("-"),
                e.tx,
                e.drops,
                e.churn,
                ms(e.p50),
                ms(e.p99),
                e.queue_max,
            );
        }
        for a in &self.alerts[self.alerts.len().saturating_sub(window.alerts)..] {
            let _ = writeln!(out, "{a}");
        }
        out
    }
}

/// The [`TelemetryView`] of a sampler's [`to_jsonl`] export, over `window`.
pub fn report(sampler: &TelemetrySampler, window: Window) -> String {
    TelemetryView::from_jsonl(&to_jsonl(sampler))
        .expect("a sampler's own export reads back")
        .render(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use digs_sim::topology::Topology;

    fn base_builder() -> crate::config::NetworkConfigBuilder {
        NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::Digs)
            .seed(3)
            .random_flows(2, 500, 3)
    }

    #[test]
    fn settings_resolution_prefers_config_over_env() {
        let on = base_builder().telemetry_epoch(1000).telemetry_cap(64).build();
        assert_eq!(
            TelemetrySettings::resolve(&on),
            Some(TelemetrySettings { epoch_slots: 1000, cap: 64 })
        );
        let off_epoch = base_builder().telemetry_epoch(0).telemetry_cap(64).build();
        assert_eq!(TelemetrySettings::resolve(&off_epoch), None);
        let off_cap = base_builder().telemetry_epoch(1000).telemetry_cap(0).build();
        assert_eq!(TelemetrySettings::resolve(&off_cap), None);
    }

    #[test]
    fn rule_names_are_stable() {
        assert_eq!(HealthRule::PdrCollapse.as_str(), "pdr-collapse");
        assert_eq!(HealthRule::ChurnStorm.as_str(), "churn-storm");
        assert_eq!(HealthRule::QueueSaturation.as_str(), "queue-saturation");
        assert_eq!(HealthRule::ConvergenceStall.as_str(), "convergence-stall");
    }

    #[test]
    fn sampler_collects_epochs_and_respects_cap() {
        let config = base_builder().telemetry_epoch(500).telemetry_cap(4).build();
        let mut net = crate::network::Network::new(config);
        net.run_secs(60);
        let tele = net.telemetry().expect("enabled by config");
        assert_eq!(tele.summary().epochs, 12, "60 s / 5 s epochs");
        assert_eq!(tele.epochs().count(), 4, "cap retains the latest 4");
        assert_eq!(tele.dropped_epochs(), 8);
        let last = tele.epochs().last().unwrap();
        assert_eq!(last.epoch, 11);
        assert_eq!(last.asn_end, 6000);
        assert_eq!(last.asn_end - last.asn_start, 500);
        // Engine activity shows up as counter deltas.
        let tx: u64 = tele.epochs().filter_map(|e| e.counter("tx.beacon")).sum();
        assert!(tx > 0, "beacons must appear in the channel counters");
        // Channel-entropy gauge tracks the window's transmit spread, and
        // the jam counters exist (zero) even without an attacker.
        assert!(last.gauge("chan.entropy_bp").is_some_and(|v| v > 0));
        assert_eq!(last.counter("jam.hits"), Some(0));
        assert!(last.gauge("jam.hit_rate_bp").is_none(), "no attacker, no hit rate");
    }

    #[test]
    fn disabled_config_builds_no_sampler() {
        let config = base_builder().telemetry_epoch(0).build();
        let net = crate::network::Network::new(config);
        assert!(net.telemetry().is_none(), "cadence 0 must not allocate a sampler");
    }

    #[test]
    fn an_inconsistent_histogram_is_refused() {
        let line = |h: &str| {
            format!(
                r#"{{"type":"epoch","epoch":0,"asn_start":0,"asn_end":0,"counters":{{}},"gauges":{{}},"flows":[],"latency_ms":{h},"etx":{{"count":0}},"duty_cycle":{{"count":0}}}}"#
            )
        };
        assert!(TelemetryLine::decode(&line(r#"{"count":1,"min":3,"max":3,"buckets":[[3,1]]}"#))
            .is_ok());
        let err = TelemetryLine::decode(&line(r#"{"count":2,"min":3,"max":3,"buckets":[[3,1]]}"#))
            .unwrap_err();
        assert_eq!(err, "`latency_ms` counts 2 values, its buckets 1");
        // A min above the max made the view's quantiles panic.
        let err = TelemetryView::default()
            .push_line(&line(r#"{"count":1,"min":4,"max":3,"buckets":[[3,1]]}"#))
            .unwrap_err();
        assert_eq!(err, "bad telemetry line: min 4 is above max 3");
    }

    /// A sampler over 10 nodes and the config its rules read, with the
    /// oil field's settle time and churn threshold when `oil` is set.
    fn health_sampler(oil: bool) -> (TelemetrySampler, NetworkConfig) {
        let settings = TelemetrySettings { epoch_slots: 500, cap: 64 };
        let mut builder = base_builder();
        if oil {
            builder = builder.health_settle_secs(150).health_churn_storm(16);
        }
        (TelemetrySampler::new(settings, 10), builder.build())
    }

    /// Epoch `epoch` of 500 slots: one flow's counts, the epoch's parent
    /// changes and its deepest queue.
    fn epoch(epoch: u64, generated: u64, delivered: u64, churn: u64, queue: i64) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            asn_start: epoch * 500,
            asn_end: (epoch + 1) * 500,
            counters: vec![(Cow::Borrowed("churn.parent"), churn)],
            gauges: vec![(Cow::Borrowed("queue.max"), queue)],
            flows: vec![FlowEpoch { flow: 0, generated, delivered }],
            latency_ms: LogHistogram::new(),
            etx: Spread::default(),
            duty_cycle: Spread::default(),
        }
    }

    /// The alerts one epoch raises with `joined` of the 10 nodes joined.
    fn raised(
        (sampler, config): &mut (TelemetrySampler, NetworkConfig),
        snap: EpochSnapshot,
        joined: usize,
    ) -> Vec<(HealthRule, String)> {
        let alerts = sampler.check_health(&snap, 10, joined, config);
        alerts.into_iter().map(|a| (a.rule, a.detail)).collect()
    }

    /// Walks every health rule across its edge for a sampler whose PDR
    /// rules arm `settle_secs` after convergence and whose churn storm is
    /// `churn_storm` parent changes.
    fn rules_fire_at_their_edges(oil: bool, settle_secs: u64, churn_storm: u64) {
        let mut h = health_sampler(oil);
        let bad = |e| epoch(e, 100, 0, churn_storm, 8);
        // 8 of 10 joined is under the 0.9 bar; 9 of 10 converges at the
        // end of epoch 1 (slot 1000), and nothing is armed yet.
        assert_eq!(raised(&mut h, bad(0), 8), []);
        assert_eq!(raised(&mut h, bad(1), 9), []);
        // The rules arm exactly `settle_secs` after slot 1000.
        let armed = (1000 + settle_secs * SLOTS_PER_SECOND) / 500;
        assert_eq!(raised(&mut h, bad(armed - 1), 10), []);
        let rules: Vec<HealthRule> = raised(&mut h, bad(armed), 10).iter().map(|r| r.0).collect();
        let all = [HealthRule::PdrCollapse, HealthRule::ChurnStorm, HealthRule::QueueSaturation];
        assert_eq!(rules, all);

        let e = armed + 1;
        // pdr-collapse: under 0.70 fires, 0.70 does not; 4 packets
        // generated are judged, 3 are not.
        let pdr = "epoch PDR 0.69 < 0.70 (69 delivered / 100 generated)";
        assert_eq!(
            raised(&mut h, epoch(e, 100, 69, 0, 0), 10),
            [(HealthRule::PdrCollapse, pdr.into())]
        );
        assert_eq!(raised(&mut h, epoch(e + 1, 100, 70, 0, 0), 10), []);
        let four = "epoch PDR 0.50 < 0.70 (2 delivered / 4 generated)";
        assert_eq!(
            raised(&mut h, epoch(e + 2, 4, 2, 0, 0), 10),
            [(HealthRule::PdrCollapse, four.into())]
        );
        assert_eq!(raised(&mut h, epoch(e + 3, 3, 0, 0, 0), 10), []);
        // churn-storm: at the threshold fires, one under does not.
        let churn = format!("{churn_storm} parent changes in one epoch (threshold {churn_storm})");
        assert_eq!(
            raised(&mut h, epoch(e + 4, 0, 0, churn_storm, 0), 10),
            [(HealthRule::ChurnStorm, churn)]
        );
        assert_eq!(raised(&mut h, epoch(e + 5, 0, 0, churn_storm - 1, 0), 10), []);
        // queue-saturation: a depth of 8, the queue's capacity, fires.
        let queue = "max queue depth 8 at capacity 8".to_string();
        assert_eq!(
            raised(&mut h, epoch(e + 6, 0, 0, 0, 8), 10),
            [(HealthRule::QueueSaturation, queue)]
        );
        assert_eq!(raised(&mut h, epoch(e + 7, 0, 0, 0, 7), 10), []);

        // convergence-stall: a network under the bar fires once, at 60 s.
        let mut h = health_sampler(oil);
        for e in 0..11 {
            assert_eq!(raised(&mut h, bad(e), 8), [], "epoch {e} ends before 60 s");
        }
        let stall = "8/10 nodes joined after 60 s (need 90%)".to_string();
        assert_eq!(raised(&mut h, bad(11), 8), [(HealthRule::ConvergenceStall, stall)]);
        assert_eq!(raised(&mut h, bad(12), 8), [], "a stall fires once");
    }

    #[test]
    fn health_rules_fire_at_their_edges() {
        rules_fire_at_their_edges(false, 10, 8);
    }

    #[test]
    fn health_rules_fire_at_their_edges_with_the_oil_fields_overrides() {
        rules_fire_at_their_edges(true, 150, 16);
    }

    #[test]
    fn jsonl_csv_and_report_render() {
        let config = base_builder().telemetry_epoch(1000).telemetry_cap(64).build();
        let mut net = crate::network::Network::new(config);
        net.run_secs(120);
        let tele = net.telemetry().unwrap();
        let jsonl = to_jsonl(tele);
        assert!(jsonl.starts_with("{\"type\":\"meta\""));
        assert!(jsonl.matches("\"type\":\"epoch\"").count() == 12);
        let csv = to_csv(tele);
        assert_eq!(csv.lines().count(), 13, "header + 12 epochs");
        let text = report(tele, Window::ALL);
        assert!(text.starts_with("telemetry: 12 epochs x 1000 slots (12 retained, 0 dropped)"));
        // A stream sends `meta` last: until then its fields read `-`.
        let (_, no_meta) = jsonl.split_once('\n').unwrap();
        let streaming = TelemetryView::from_jsonl(no_meta).unwrap().render(Window::ALL);
        assert!(streaming.starts_with("telemetry: - epochs x - slots (12 retained, - dropped)"));
        assert_eq!(streaming.split_once('\n').unwrap().1, text.split_once('\n').unwrap().1);
    }
}
