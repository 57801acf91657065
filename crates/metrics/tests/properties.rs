//! Property-based tests for the statistics toolkit.

use digs_cases::{cases, Draw};
use digs_metrics::stats::percentile_sorted;
use digs_metrics::{BoxplotStats, Cdf, Summary};

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

/// The CDF is monotone: F(x) ≤ F(y) whenever x ≤ y, and its range
/// is [0, 1].
#[test]
fn cdf_is_monotone() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let x = d.f64(-1e6..1e6);
        let y = d.f64(-1e6..1e6);
        let cdf = Cdf::new(samples).expect("ok");
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        let f_lo = cdf.fraction_at_or_below(lo);
        let f_hi = cdf.fraction_at_or_below(hi);
        assert!(f_lo <= f_hi);
        assert!((0.0..=1.0).contains(&f_lo));
        assert!((0.0..=1.0).contains(&f_hi));
    });
}

/// `fraction_at_or_below` and `fraction_at_or_above` partition the
/// sample (up to ties at exactly `x`).
#[test]
fn cdf_fractions_partition() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let x = d.f64(-1e6..1e6);
        let cdf = Cdf::new(samples).expect("ok");
        let below = cdf.fraction_at_or_below(x);
        let above = cdf.fraction_at_or_above(x);
        // Ties at x are counted on both sides, so the sum is ≥ 1 − ε only
        // when x is a sample; in general below + strictly-above = 1.
        assert!(below + above >= 1.0 - 1e-9);
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

/// Boxplot quartiles are ordered.
#[test]
fn boxplot_quartiles_ordered() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let b = BoxplotStats::of(&samples).expect("ok");
        assert!(b.min <= b.q1 + 1e-9);
        assert!(b.q1 <= b.median + 1e-9);
        assert!(b.median <= b.q3 + 1e-9);
        assert!(b.q3 <= b.max + 1e-9);
        assert!(b.iqr() >= -1e-9);
    });
}

/// The CDF series is a valid staircase: monotone in both coordinates,
/// covering the full range.
#[test]
fn cdf_series_staircase() {
    cases(256, |d| {
        let samples = finite_samples(d);
        let steps = d.int(1usize..50);
        let cdf = Cdf::new(samples).expect("ok");
        let series = cdf.series(steps);
        assert_eq!(series.len(), steps + 1);
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0 - 1e-9);
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((series[0].0 - cdf.min()).abs() < 1e-9);
        assert!((series[steps].0 - cdf.max()).abs() < 1e-9);
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
