//! A dependency-light metrics registry: named monotonic counters and
//! gauges keyed by static strings.
//!
//! The registry is the accumulation surface between instrumented code
//! and the epoch sampler. Counters are monotonic with an explicit
//! *mark* so the sampler can read per-epoch deltas without resetting
//! the cumulative total; gauges are last-write-wins point-in-time
//! values. Iteration order is the `BTreeMap` key order, so exports are
//! deterministic without any sorting at the call site.

use std::collections::BTreeMap;

/// A monotonic counter with a mark for delta reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    marked: u64,
}

impl Counter {
    /// Adds to the cumulative total.
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// The cumulative total since creation.
    pub fn get(&self) -> u64 {
        self.total
    }

    /// Raises the counter to `total` if it is behind (no-op otherwise).
    /// Lets instrumented code mirror an externally-kept cumulative
    /// figure without double counting.
    pub fn set_at_least(&mut self, total: u64) {
        self.total = self.total.max(total);
    }

    /// The increase since the last [`Counter::take_delta`], advancing
    /// the mark.
    pub fn take_delta(&mut self) -> u64 {
        let delta = self.total - self.marked;
        self.marked = self.total;
        delta
    }
}

/// A last-write-wins point-in-time value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
}

impl Gauge {
    /// Overwrites the current value.
    pub fn set(&mut self, v: i64) {
        self.value = v;
    }

    /// Keeps the larger of the current and given value.
    pub fn set_max(&mut self, v: i64) {
        self.value = self.value.max(v);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value
    }
}

/// Named counters and gauges with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&mut self, name: &'static str) -> &mut Counter {
        self.counters.entry(name).or_default()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&mut self, name: &'static str) -> &mut Gauge {
        self.gauges.entry(name).or_default()
    }

    /// Cumulative counter totals in key order.
    pub fn counter_totals(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(k, c)| (*k, c.get())).collect()
    }

    /// Per-epoch counter deltas in key order, advancing every mark.
    pub fn take_counter_deltas(&mut self) -> Vec<(&'static str, u64)> {
        self.counters.iter_mut().map(|(k, c)| (*k, c.take_delta())).collect()
    }

    /// Current gauge values in key order.
    pub fn gauge_values(&self) -> Vec<(&'static str, i64)> {
        self.gauges.iter().map(|(k, g)| (*k, g.get())).collect()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta_marks_advance() {
        let mut c = Counter::default();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(c.take_delta(), 6);
        assert_eq!(c.take_delta(), 0);
        c.add(4);
        assert_eq!(c.take_delta(), 4);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_set_at_least_never_regresses() {
        let mut c = Counter::default();
        c.set_at_least(9);
        assert_eq!(c.get(), 9);
        c.set_at_least(3);
        assert_eq!(c.get(), 9, "mirroring a stale total must not rewind");
        c.set_at_least(12);
        assert_eq!(c.take_delta(), 12);
    }

    #[test]
    fn gauge_semantics() {
        let mut g = Gauge::default();
        assert_eq!(g.get(), 0);
        g.set(-4);
        assert_eq!(g.get(), -4);
        g.set_max(7);
        g.set_max(2);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn registry_iterates_in_key_order() {
        let mut r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("m.mid").set(3);
        assert_eq!(r.counter_totals(), vec![("a.first", 2), ("z.last", 1)]);
        assert_eq!(r.gauge_values(), vec![("m.mid", 3)]);
        assert_eq!(r.take_counter_deltas(), vec![("a.first", 2), ("z.last", 1)]);
        assert_eq!(r.take_counter_deltas(), vec![("a.first", 0), ("z.last", 0)]);
        assert!(!r.is_empty());
        assert!(Registry::new().is_empty());
    }
}
