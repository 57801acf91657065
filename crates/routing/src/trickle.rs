//! The Trickle algorithm (RFC 6206).
//!
//! Trickle paces the join-in (DiGS) and DIO (RPL) broadcasts: the interval
//! starts at `Imin`, doubles up to `Imax` while the network is consistent,
//! and snaps back to `Imin` whenever an inconsistency is detected (in DiGS,
//! a change of the node's best or second-best parent). Within each interval
//! the node picks a uniformly random firing point in the second half and
//! suppresses its transmission if it has already heard `k` consistent
//! messages this interval.

use digs_sim::rng;
use digs_sim::time::Asn;

/// Trickle timer configuration, in slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrickleConfig {
    /// Minimum interval length, in slots.
    pub imin: u64,
    /// Maximum interval length, in slots.
    pub imax: u64,
    /// Redundancy constant: suppress transmission after hearing this many
    /// consistent messages in the current interval. **0 disables
    /// suppression** — the right choice for DiGS join-ins, where every
    /// node's `(rank, ETXw)` advertisement is unique information a
    /// neighbor's message cannot substitute for (suppression would starve
    /// parent discovery in dense networks).
    pub k: u32,
}

impl TrickleConfig {
    /// Defaults matching the experiments: Imin = 1 s, Imax = 64 s, no
    /// suppression.
    pub fn standard() -> TrickleConfig {
        TrickleConfig { imin: 100, imax: 6400, k: 0 }
    }

    /// A fast profile for unit tests.
    pub fn fast() -> TrickleConfig {
        TrickleConfig { imin: 4, imax: 32, k: 2 }
    }
}

/// A Trickle timer instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Trickle {
    config: TrickleConfig,
    seed: u64,
    /// Current interval length in slots.
    interval: u64,
    /// ASN at which the current interval began.
    interval_start: Asn,
    /// Firing slot within the current interval (absolute).
    fire_at: Asn,
    /// Consistent messages heard this interval.
    counter: u32,
    /// Whether we already fired this interval.
    fired: bool,
    /// Monotone counter making each interval's firing point differ.
    epoch: u64,
}

impl Trickle {
    /// Creates a timer starting its first interval at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`imin` = 0 or
    /// `imax < imin`).
    pub fn new(config: TrickleConfig, seed: u64, now: Asn) -> Trickle {
        assert!(config.imin > 0, "Imin must be positive");
        assert!(config.imax >= config.imin, "Imax must be at least Imin");
        let mut t = Trickle {
            config,
            seed,
            interval: config.imin,
            interval_start: now,
            fire_at: now,
            counter: 0,
            fired: false,
            epoch: 0,
        };
        t.schedule_fire();
        t
    }

    fn schedule_fire(&mut self) {
        // Uniform in [I/2, I).
        let half = self.interval / 2;
        let span = (self.interval - half).max(1);
        let r = rng::mix(self.seed, self.epoch, self.interval, 0xf17e) % span;
        self.fire_at = Asn(self.interval_start.0 + half + r);
    }

    /// Current interval length in slots.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Notes a consistent message heard from a neighbor.
    pub fn hear_consistent(&mut self) {
        self.counter = self.counter.saturating_add(1);
    }

    /// Resets to `Imin` (inconsistency detected: e.g. a parent change).
    pub fn reset(&mut self, now: Asn) {
        if self.interval != self.config.imin {
            self.interval = self.config.imin;
            self.begin_interval(now);
        } else if self.fired {
            // Already at Imin and spent: start a fresh Imin interval so the
            // update propagates promptly.
            self.begin_interval(now);
        }
    }

    fn begin_interval(&mut self, now: Asn) {
        self.interval_start = now;
        self.counter = 0;
        self.fired = false;
        self.epoch += 1;
        self.schedule_fire();
    }

    /// Advances to slot `now`; returns `true` if the timer fires in this
    /// slot (the caller should then broadcast its message).
    pub fn tick(&mut self, now: Asn) -> bool {
        // Interval rollover (possibly several if the caller skipped slots).
        while now.0 >= self.interval_start.0 + self.interval {
            let end = self.interval_start.0 + self.interval;
            self.interval = (self.interval * 2).min(self.config.imax);
            self.interval_start = Asn(end);
            self.counter = 0;
            self.fired = false;
            self.epoch += 1;
            self.schedule_fire();
        }
        let suppressed = self.config.k != 0 && self.counter >= self.config.k;
        if !self.fired && now >= self.fire_at && !suppressed {
            self.fired = true;
            return true;
        }
        if now >= self.fire_at {
            self.fired = true;
        }
        false
    }

    /// The earliest slot at which [`Self::tick`] does anything: the firing
    /// point while the interval's transmission is still open (a late tick
    /// settles it, so the slot may be in the past), else the rollover into
    /// the next interval. Ticks before it are no-ops.
    pub fn next_event(&self) -> Asn {
        if self.fired {
            Asn(self.interval_start.0 + self.interval)
        } else {
            self.fire_at
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_fires(t: &mut Trickle, from: u64, to: u64) -> usize {
        (from..to).filter(|s| t.tick(Asn(*s))).count()
    }

    #[test]
    fn fires_once_per_interval_without_suppression() {
        let cfg = TrickleConfig { imin: 10, imax: 10, k: 100 };
        let mut t = Trickle::new(cfg, 1, Asn(0));
        let fires = count_fires(&mut t, 0, 100);
        // 10 intervals of 10 slots each → ~10 fires (first interval included).
        assert!((9..=11).contains(&fires), "fires = {fires}");
    }

    #[test]
    fn interval_doubles_until_imax() {
        let cfg = TrickleConfig { imin: 4, imax: 64, k: 100 };
        let mut t = Trickle::new(cfg, 2, Asn(0));
        for s in 0..1000 {
            t.tick(Asn(s));
        }
        assert_eq!(t.interval(), 64);
    }

    #[test]
    fn reset_snaps_back_to_imin() {
        let cfg = TrickleConfig { imin: 4, imax: 64, k: 100 };
        let mut t = Trickle::new(cfg, 3, Asn(0));
        for s in 0..500 {
            t.tick(Asn(s));
        }
        assert_eq!(t.interval(), 64);
        t.reset(Asn(500));
        assert_eq!(t.interval(), 4);
        // Fires again quickly after reset.
        let fired = (500..510).any(|s| t.tick(Asn(s)));
        assert!(fired, "should fire within Imin after reset");
    }

    #[test]
    fn suppression_by_redundancy() {
        let cfg = TrickleConfig { imin: 10, imax: 10, k: 1 };
        let mut t = Trickle::new(cfg, 4, Asn(0));
        let mut fires = 0;
        for s in 0..200u64 {
            if t.tick(Asn(s)) {
                fires += 1;
            }
            // Hear a consistent message early in every interval (after the
            // boundary tick so it lands in the new interval).
            if s % 10 == 0 {
                t.hear_consistent();
            }
        }
        assert_eq!(fires, 0, "k=1 with a chatty neighbor suppresses everything");
    }

    #[test]
    fn firing_point_in_second_half() {
        let cfg = TrickleConfig { imin: 100, imax: 100, k: 100 };
        for seed in 0..20 {
            let mut t = Trickle::new(cfg, seed, Asn(0));
            let fire_slot = (0..100u64).find(|s| t.tick(Asn(*s)));
            let fire_slot = fire_slot.expect("fires in first interval");
            assert!(fire_slot >= 50, "fired at {fire_slot}, expected ≥ 50");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = TrickleConfig::fast();
        let mut a = Trickle::new(cfg, 7, Asn(0));
        let mut b = Trickle::new(cfg, 7, Asn(0));
        for s in 0..200 {
            assert_eq!(a.tick(Asn(s)), b.tick(Asn(s)));
        }
    }

    #[test]
    fn different_seeds_desynchronise() {
        let cfg = TrickleConfig { imin: 100, imax: 100, k: 100 };
        let fire = |seed| {
            let mut t = Trickle::new(cfg, seed, Asn(0));
            (0..100u64).find(|s| t.tick(Asn(*s))).unwrap_or(u64::MAX)
        };
        let distinct: std::collections::HashSet<u64> = (0..10).map(fire).collect();
        assert!(distinct.len() > 3, "firing points should spread out");
    }

    #[test]
    #[should_panic(expected = "Imin must be positive")]
    fn zero_imin_panics() {
        let _ = Trickle::new(TrickleConfig { imin: 0, imax: 4, k: 1 }, 0, Asn(0));
    }

    #[test]
    fn closed_form_skipping_to_next_event_matches_ticking_every_slot() {
        digs_cases::cases(300, |d| {
            let imin = d.int(1u64..=40);
            let config = TrickleConfig { imin, imax: imin << d.int(0..5), k: d.int(0u32..3) };
            let start = d.int(0u64..1_000);
            let mut every = Trickle::new(config, d.u64(), Asn(start));
            let mut skipping = every.clone();
            let mut fires = (Vec::new(), Vec::new());
            let mut wake = skipping.next_event();
            for now in (start..start + 600).map(Asn) {
                if every.tick(now) {
                    fires.0.push(now);
                }
                if now >= wake {
                    if skipping.tick(now) {
                        fires.1.push(now);
                    }
                    wake = skipping.next_event().max(now.next());
                }
                // What reaches the timer from outside: a reset, or a
                // consistent message heard. Both happen while the node is
                // awake, after which the engine asks for the wake slot again.
                match d.int(0..40) {
                    0 => {
                        every.reset(now);
                        skipping.reset(now);
                        wake = skipping.next_event().max(now.next());
                    }
                    1..=4 => {
                        every.hear_consistent();
                        skipping.hear_consistent();
                    }
                    _ => {}
                }
                assert_eq!(skipping, every, "{config:?} at {now}");
            }
            assert_eq!(fires.0, fires.1, "{config:?} from {start}");
            assert!(!fires.0.is_empty() || config.k != 0, "{config:?} never fired");
        });
    }
}
