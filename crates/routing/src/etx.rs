//! Expected transmission count (ETX) estimation.
//!
//! A link's ETX is initialised from the received signal strength of the
//! first frame heard from the neighbor (the paper's RSS→ETX mapping) and is
//! then updated from acknowledgement outcomes with an EWMA over the delivery
//! probability, so that "the ETX value gets penalized if a transmission
//! error occurs (e.g., no ACK)".

use digs_sim::rf::{initial_etx_from_rss, Dbm};

/// Upper bound on an estimated link ETX; links worse than this are useless.
pub const ETX_CAP: f64 = 10.0;

/// EWMA weight on history when folding in a new transmission outcome.
/// A long memory keeps bursty interference from stampeding parent
/// selection — route diversity, not parent churn, is DiGS's answer to
/// transient loss.
pub const EWMA_ALPHA: f64 = 0.95;

/// Per-link ETX estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtxEstimator {
    /// Smoothed delivery probability of a single transmission attempt.
    prr: f64,
}

impl EtxEstimator {
    /// Initialises the estimator from the RSS of the first frame heard from
    /// the neighbor, per the paper's mapping.
    pub fn from_rss(rss: Dbm) -> EtxEstimator {
        let etx = initial_etx_from_rss(rss);
        EtxEstimator { prr: 1.0 / etx }
    }

    /// Initialises from a known ETX value (used by oracle/centralized code).
    ///
    /// # Panics
    ///
    /// Panics if `etx < 1`.
    pub fn from_etx(etx: f64) -> EtxEstimator {
        assert!(etx >= 1.0, "ETX cannot be below 1, got {etx}");
        EtxEstimator { prr: (1.0 / etx).max(1.0 / ETX_CAP) }
    }

    /// Current ETX estimate (≥ 1, capped at [`ETX_CAP`]).
    pub fn etx(&self) -> f64 {
        (1.0 / self.prr.max(1.0 / ETX_CAP)).min(ETX_CAP)
    }

    /// Folds in the outcome of one unicast transmission attempt to the
    /// neighbor.
    pub fn record(&mut self, acked: bool) {
        let sample = if acked { 1.0 } else { 0.0 };
        self.prr = EWMA_ALPHA * self.prr + (1.0 - EWMA_ALPHA) * sample;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initialised_from_strong_rss() {
        let e = EtxEstimator::from_rss(Dbm(-50.0));
        assert!((e.etx() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn initialised_from_weak_rss() {
        let e = EtxEstimator::from_rss(Dbm(-95.0));
        assert!((e.etx() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn failures_penalise() {
        let mut e = EtxEstimator::from_rss(Dbm(-50.0));
        let before = e.etx();
        e.record(false);
        assert!(e.etx() > before, "a missed ACK must raise ETX");
    }

    #[test]
    fn successes_recover() {
        let mut e = EtxEstimator::from_rss(Dbm(-50.0));
        for _ in 0..10 {
            e.record(false);
        }
        let degraded = e.etx();
        for _ in 0..40 {
            e.record(true);
        }
        assert!(e.etx() < degraded, "sustained success must lower ETX");
        assert!(e.etx() < 1.5);
    }

    #[test]
    fn etx_is_capped() {
        let mut e = EtxEstimator::from_rss(Dbm(-95.0));
        for _ in 0..200 {
            e.record(false);
        }
        assert!(e.etx() <= ETX_CAP + 1e-9);
        assert!(e.etx() >= ETX_CAP - 1e-9);
    }

    #[test]
    fn etx_never_below_one() {
        let mut e = EtxEstimator::from_rss(Dbm(-40.0));
        for _ in 0..200 {
            e.record(true);
        }
        assert!(e.etx() >= 1.0);
    }

    #[test]
    fn from_etx_roundtrip() {
        let e = EtxEstimator::from_etx(2.5);
        assert!((e.etx() - 2.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ETX cannot be below 1")]
    fn from_etx_rejects_sub_one() {
        let _ = EtxEstimator::from_etx(0.5);
    }
}
