//! Fault injection for the daemon itself — chaos for the harness, not
//! the simulated network.
//!
//! Four knobs, all off by default, set as [`ChaosConfig`] fields by
//! in-process tests (`digs-cli digsd serve --chaos-slow-ms` sets the one
//! an external smoke needs): a one-shot or repeating panic at a target ASN
//! (exercises the supervisor), a forced subscriber-connection drop after
//! N delivered lines (exercises client reconnect), a per-write stall on
//! the stream path (exercises bounded-queue drop accounting), and a
//! pacing sleep at observer flush boundaries (slows a run down enough
//! for an external `kill -9` to land mid-run deterministically).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Fault-injection configuration (all `None`/off by default).
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic the run thread when its progress reaches this ASN.
    pub panic_at_asn: Option<u64>,
    /// Panic on every (re)start, not just the first — deterministic
    /// poison, exercised by the quarantine tests.
    pub panic_repeat: bool,
    /// Shut a subscriber's socket down after delivering this many lines.
    pub drop_subscriber_after: Option<u64>,
    /// How many connections [`ChaosConfig::drop_subscriber_after`] may
    /// kill before disarming (keeps reconnect tests bounded).
    pub drop_count: u32,
    /// Sleep before each stream write batch, ms.
    pub stall_ms: Option<u64>,
    /// Sleep at each observer flush boundary, ms.
    pub slow_run_ms: Option<u64>,
}

/// Per-daemon chaos state: the config plus the latches that make
/// injected faults one-shot (so a supervised restart can succeed and a
/// reconnect test terminates).
#[derive(Debug)]
pub struct ChaosState {
    config: ChaosConfig,
    panic_fired: AtomicBool,
    drops_left: AtomicU32,
}

impl ChaosState {
    /// Arms the injector for one daemon instance.
    pub fn new(config: ChaosConfig) -> ChaosState {
        let drops =
            if config.drop_subscriber_after.is_some() { config.drop_count.max(1) } else { 0 };
        ChaosState {
            config,
            panic_fired: AtomicBool::new(false),
            drops_left: AtomicU32::new(drops),
        }
    }

    /// Called from the run observer at progress boundaries: paces the
    /// run, then panics if the target ASN is armed. With `panic_repeat`
    /// the latch never disarms (the supervisor must quarantine).
    pub fn on_progress(&self, asn: u64) {
        if let Some(ms) = self.config.slow_run_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if let Some(at) = self.config.panic_at_asn {
            if asn >= at
                && (self.config.panic_repeat || !self.panic_fired.swap(true, Ordering::SeqCst))
            {
                panic!("chaos: injected panic at asn {asn}");
            }
        }
    }

    /// Called from the stream path before each write batch; returns
    /// `true` when the connection should be hard-dropped after having
    /// delivered `lines_sent` lines.
    pub fn should_drop_connection(&self, lines_sent: u64) -> bool {
        let Some(after) = self.config.drop_subscriber_after else {
            return false;
        };
        if lines_sent < after {
            return false;
        }
        self.drops_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// The stream-path stall, if armed.
    pub fn stall(&self) {
        if let Some(ms) = self.config.stall_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_latch_is_one_shot_unless_repeating() {
        let state =
            ChaosState::new(ChaosConfig { panic_at_asn: Some(100), ..ChaosConfig::default() });
        state.on_progress(50); // below target: no panic
        let hit = std::panic::catch_unwind(|| state.on_progress(100));
        assert!(hit.is_err(), "armed panic fires");
        state.on_progress(200); // latched: the restarted run survives
        let repeating = ChaosState::new(ChaosConfig {
            panic_at_asn: Some(100),
            panic_repeat: true,
            ..ChaosConfig::default()
        });
        assert!(std::panic::catch_unwind(|| repeating.on_progress(100)).is_err());
        assert!(std::panic::catch_unwind(|| repeating.on_progress(100)).is_err());
    }

    #[test]
    fn connection_drops_are_budgeted() {
        let state = ChaosState::new(ChaosConfig {
            drop_subscriber_after: Some(10),
            drop_count: 2,
            ..ChaosConfig::default()
        });
        assert!(!state.should_drop_connection(9));
        assert!(state.should_drop_connection(10));
        assert!(state.should_drop_connection(11));
        assert!(!state.should_drop_connection(12), "budget exhausted");
    }
}
