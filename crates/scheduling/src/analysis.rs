//! Analytical performance model (paper Section VI-B).
//!
//! - Eq. 5: contention probability of the shared routing slot under a
//!   Poisson traffic model;
//! - Eq. 6: probability that a slotframe's cell is skipped because a
//!   higher-priority slotframe claimed the slot during combination.

/// Eq. 5 — the contention probability of the shared routing slot:
///
/// ```text
/// pc = 1 − e^(−T·L/N)   if L ≥ N
/// pc = 1 − e^(−T)       otherwise
/// ```
///
/// where `t` is the average traffic load on the slot (Poisson), `n` the
/// number of nodes, and `l` the slotframe length.
///
/// # Panics
///
/// Panics if `t` is negative or `n` is zero.
pub fn contention_probability(t: f64, n: u32, l: u32) -> f64 {
    assert!(t >= 0.0, "traffic load cannot be negative");
    assert!(n > 0, "need at least one node");
    let exponent = if l >= n { t * f64::from(l) / f64::from(n) } else { t };
    1.0 - (-exponent).exp()
}

/// Occupancy description of one slotframe for the Eq. 6 skip model: its
/// length and how many of its slots carry scheduled (non-idle) cells for
/// the node under analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotframeOccupancy {
    /// Slotframe length in slots.
    pub length: u32,
    /// Number of occupied (scheduled) slots per slotframe period.
    pub occupied: u32,
}

impl SlotframeOccupancy {
    /// Fraction of this slotframe's slots that are occupied.
    ///
    /// # Panics
    ///
    /// Panics if `occupied > length` or `length == 0`.
    pub fn density(&self) -> f64 {
        assert!(self.length > 0, "slotframe length must be positive");
        assert!(self.occupied <= self.length, "cannot occupy more slots than exist");
        f64::from(self.occupied) / f64::from(self.length)
    }
}

/// Eq. 6 — the probability that a given scheduled cell of slotframe `a` is
/// skipped because a slot of any *higher-priority* slotframe lands on it:
///
/// ```text
/// pskip(A) = 1 − Π_{B ∈ SF, pri(B) > pri(A)} (1 − p(conf_{A,B}))
/// ```
///
/// With coprime slotframe lengths every alignment is equally likely, so
/// `p(conf_{A,B})` is simply the occupancy density of `B`.
pub fn skip_probability(higher_priority: &[SlotframeOccupancy]) -> f64 {
    let survive: f64 = higher_priority.iter().map(|sf| 1.0 - sf.density()).product();
    1.0 - survive
}

/// Convenience: the skip probabilities of the three DiGS slotframes for a
/// node whose sync slotframe has `sync_occupied` busy slots (its own EB +
/// its parent's EB), whose routing slotframe has one shared slot, and whose
/// application slotframe has `app_occupied` busy slots.
///
/// Returns `(p_skip_sync, p_skip_routing, p_skip_app)`.
pub fn digs_skip_probabilities(
    lengths: (u32, u32, u32),
    sync_occupied: u32,
    app_occupied: u32,
) -> (f64, f64, f64) {
    let (sync_len, routing_len, app_len) = lengths;
    let sync = SlotframeOccupancy { length: sync_len, occupied: sync_occupied };
    let routing = SlotframeOccupancy { length: routing_len, occupied: 1 };
    let _app = SlotframeOccupancy { length: app_len, occupied: app_occupied };
    (
        skip_probability(&[]),              // sync: highest priority, never skipped
        skip_probability(&[sync]),          // routing: yields to sync
        skip_probability(&[sync, routing]), // app: yields to both
    )
}

/// Fraction of a slotframe's slots claimed by scheduled cells, clamped
/// to `[0, 1]`. Unlike [`SlotframeOccupancy::density`] this is total on
/// any input (a zero-length slotframe reads as fully utilized, and
/// over-claiming saturates at 1.0), which is what the telemetry gauge
/// needs: it observes live scheduler state mid-convergence, where
/// transient over-subscription is normal rather than a caller bug.
pub fn slotframe_utilization(claimed: usize, length: u32) -> f64 {
    if length == 0 {
        return 1.0;
    }
    (claimed as f64 / f64::from(length)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotframe_utilization_is_total_and_clamped() {
        assert_eq!(slotframe_utilization(0, 101), 0.0);
        assert!((slotframe_utilization(5, 101) - 5.0 / 101.0).abs() < 1e-12);
        assert_eq!(slotframe_utilization(101, 101), 1.0);
        assert_eq!(slotframe_utilization(500, 101), 1.0, "over-claiming saturates");
        assert_eq!(slotframe_utilization(3, 0), 1.0, "zero-length reads as full");
    }

    #[test]
    fn contention_zero_load_is_zero() {
        assert_eq!(contention_probability(0.0, 10, 47), 0.0);
    }

    #[test]
    fn contention_grows_with_load() {
        let low = contention_probability(0.1, 10, 47);
        let high = contention_probability(1.0, 10, 47);
        assert!(low < high);
        assert!(high < 1.0);
    }

    #[test]
    fn contention_branches_on_l_vs_n() {
        // L < N uses the plain 1 − e^{−T} branch.
        let small_l = contention_probability(0.5, 100, 47);
        assert!((small_l - (1.0 - (-0.5f64).exp())).abs() < 1e-12);
        // L ≥ N scales the exponent by L/N.
        let big_l = contention_probability(0.5, 10, 47);
        assert!((big_l - (1.0 - (-0.5f64 * 4.7).exp())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "traffic load cannot be negative")]
    fn negative_load_panics() {
        let _ = contention_probability(-1.0, 10, 47);
    }

    #[test]
    fn skip_probability_empty_is_zero() {
        assert_eq!(skip_probability(&[]), 0.0);
    }

    #[test]
    fn skip_probability_composes() {
        let a = SlotframeOccupancy { length: 10, occupied: 1 };
        let b = SlotframeOccupancy { length: 5, occupied: 1 };
        let p = skip_probability(&[a, b]);
        assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn paper_config_skip_probabilities_are_low() {
        // Paper: "the probability of an application or routing slotframe to
        // be skipped is expected to be very low in practice". 557-slot sync
        // frame with 2 busy slots, 151-slot app frame with 3 busy slots.
        let (s, r, a) = digs_skip_probabilities((557, 47, 151), 2, 3);
        assert_eq!(s, 0.0);
        assert!(r < 0.01, "routing skip {r}");
        assert!(a < 0.03, "app skip {a}");
    }

    #[test]
    fn density_bounds() {
        let sf = SlotframeOccupancy { length: 4, occupied: 4 };
        assert_eq!(sf.density(), 1.0);
        assert_eq!(skip_probability(&[sf]), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot occupy more slots than exist")]
    fn over_occupancy_panics() {
        let _ = SlotframeOccupancy { length: 4, occupied: 5 }.density();
    }
}
