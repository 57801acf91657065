//! Property-based tests for the statistics toolkit.

use digs_cases::{cases, Draw};
use digs_metrics::stats::percentile_sorted;
use digs_metrics::{Cdf, Summary};

fn finite_samples(d: &mut Draw) -> Vec<f64> {
    d.vec(1..200, |d| d.f64(-1e6..1e6))
}

/// Summary statistics respect basic order relations.
#[test]
fn summary_order_relations() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let s = Summary::of(&samples).expect("non-empty finite");
        assert!(s.min <= s.median + 1e-9);
        assert!(s.median <= s.max + 1e-9);
        assert!(s.min <= s.mean + 1e-9);
        assert!(s.mean <= s.max + 1e-9);
        assert!(s.std_dev >= 0.0);
        assert_eq!(s.count, samples.len());
    });
}

/// Percentiles are monotone in p and bracketed by min/max.
#[test]
fn percentiles_monotone() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let p = d.f64(0.0..100.0);
        let q = d.f64(0.0..100.0);
        let cdf = Cdf::new(samples).expect("ok");
        let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
        assert!(cdf.percentile(lo) <= cdf.percentile(hi) + 1e-9);
        assert!(cdf.percentile(0.0) >= cdf.min() - 1e-9);
        assert!(cdf.percentile(100.0) <= cdf.max() + 1e-9);
    });
}

/// Percentile interpolation agrees with the sorted slice's endpoints.
#[test]
fn percentile_endpoints() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(percentile_sorted(&sorted, 0.0), sorted[0]);
        assert_eq!(percentile_sorted(&sorted, 100.0), sorted[sorted.len() - 1]);
    });
}
