//! Summary statistics, empirical CDFs, and confidence intervals.

use core::fmt;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics. Returns `None` for an empty sample or a
    /// sample containing non-finite values.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(Summary {
            count,
            mean,
            median: percentile_sorted(&sorted, 50.0),
            min: sorted[0],
            max: sorted[count - 1],
            std_dev: var.sqrt(),
        })
    }

    /// Starts a one-pass streaming accumulator (no sample buffering, so no
    /// median). See [`StreamingSummary`].
    pub fn streaming() -> StreamingSummary {
        StreamingSummary::new()
    }
}

/// One-pass streaming summary statistics (Welford's online algorithm):
/// count, mean, variance, min, and max without buffering the sample
/// vector. The telemetry epoch sampler uses this so per-epoch statistics
/// cost O(1) memory; unlike [`Summary`] there is no median (that requires
/// the full sample — use a histogram quantile instead).
///
/// Non-finite samples are ignored (mirroring [`Summary::of`], which
/// rejects them wholesale; a streaming accumulator cannot reject
/// retroactively, so it skips them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingSummary {
    fn default() -> StreamingSummary {
        StreamingSummary::new()
    }
}

impl StreamingSummary {
    /// An empty accumulator.
    pub fn new() -> StreamingSummary {
        StreamingSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in (Welford update). Non-finite samples are
    /// ignored.
    pub fn push(&mut self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        self.count += 1;
        let delta = sample - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (sample - self.mean);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Merges another accumulator in (Chan et al.'s parallel combination),
    /// so per-shard summaries can be reduced without re-streaming.
    pub fn merge(&mut self, other: &StreamingSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64 / total as f64);
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Minimum, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sample variance (0 for fewer than 2 samples), matching
    /// [`Summary::of`]'s `n - 1` denominator.
    pub fn variance(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Sample standard deviation (0 for fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl fmt::Display for StreamingSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.count {
            0 => write!(f, "n=0"),
            _ => write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3} sd={:.3}",
                self.count,
                self.mean,
                self.min,
                self.max,
                self.std_dev()
            ),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} median={:.3} min={:.3} max={:.3} sd={:.3}",
            self.count, self.mean, self.median, self.min, self.max, self.std_dev
        )
    }
}

/// Percentile (0–100) of an ascending-sorted slice with linear
/// interpolation.
///
/// Out-of-range `p` is clamped into `[0, 100]` (so `p < 0` yields the
/// minimum and `p > 100` the maximum); a NaN `p` is treated as 0. A
/// single-sample slice returns that sample for every `p`.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (non-finite values are rejected).
    ///
    /// Returns `None` if `samples` is empty or contains non-finite values.
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Option<Cdf> {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        if sorted.is_empty() || sorted.iter().any(|s| !s.is_finite()) {
            return None;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(Cdf { sorted })
    }

    /// The `p`-th percentile value. Out-of-range `p` is clamped into
    /// `[0, 100]` (NaN is treated as 0), matching [`percentile_sorted`].
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Minimum (the "worst case" for PDR-like metrics).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Mean of the underlying sample.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Median of the underlying sample.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Normal-approximation confidence interval for the mean at the given
/// confidence level (supported levels: 0.90, 0.95, 0.99). For the small
/// flow-set counts the harness uses, this slightly understates the t
/// interval, which is acceptable for ranking runs.
///
/// Returns `None` for fewer than 2 samples or non-finite input.
pub fn mean_confidence_interval(samples: &[f64], level: f64) -> Option<ConfidenceInterval> {
    if samples.len() < 2 {
        return None;
    }
    let z = match level {
        l if (l - 0.90).abs() < 1e-9 => 1.645,
        l if (l - 0.95).abs() < 1e-9 => 1.960,
        l if (l - 0.99).abs() < 1e-9 => 2.576,
        _ => return None,
    };
    let summary = Summary::of(samples)?;
    let se = summary.std_dev / (samples.len() as f64).sqrt();
    Some(ConfidenceInterval {
        mean: summary.mean,
        lo: summary.mean - z * se,
        hi: summary.mean + z * se,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).expect("non-empty");
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[7.0]).expect("one sample");
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "percentile of an empty sample")]
    fn percentile_empty_panics() {
        let _ = percentile_sorted(&[], 50.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let sorted = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, -10.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 250.0), 3.0);
        assert_eq!(percentile_sorted(&sorted, f64::NEG_INFINITY), 1.0);
        assert_eq!(percentile_sorted(&sorted, f64::INFINITY), 3.0);
        // NaN p is treated as 0 rather than poisoning the result.
        assert_eq!(percentile_sorted(&sorted, f64::NAN), 1.0);
        let cdf = Cdf::new([1.0, 2.0, 3.0]).expect("ok");
        assert_eq!(cdf.percentile(-1.0), 1.0);
        assert_eq!(cdf.percentile(101.0), 3.0);
    }

    #[test]
    fn percentile_single_sample_is_constant() {
        for p in [-5.0, 0.0, 37.5, 100.0, 400.0, f64::NAN] {
            assert_eq!(percentile_sorted(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn streaming_summary_matches_batch() {
        let samples = [3.0, -1.5, 8.25, 0.0, 2.0, 2.0, 7.125];
        let batch = Summary::of(&samples).expect("ok");
        let mut s = Summary::streaming();
        for v in samples {
            s.push(v);
        }
        assert_eq!(s.count(), samples.len() as u64);
        assert!((s.mean().unwrap() - batch.mean).abs() < 1e-12);
        assert_eq!(s.min().unwrap(), batch.min);
        assert_eq!(s.max().unwrap(), batch.max);
        assert!((s.std_dev() - batch.std_dev).abs() < 1e-12);
    }

    #[test]
    fn streaming_summary_empty_and_singleton() {
        let mut s = StreamingSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_dev(), 0.0);
        s.push(4.0);
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn streaming_summary_ignores_non_finite() {
        let mut s = StreamingSummary::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn streaming_merge_matches_single_stream() {
        let (left, right) = ([1.0, 2.0, 3.0], [10.0, 20.0]);
        let mut a = StreamingSummary::new();
        left.iter().for_each(|v| a.push(*v));
        let mut b = StreamingSummary::new();
        right.iter().for_each(|v| b.push(*v));
        let mut whole = StreamingSummary::new();
        left.iter().chain(&right).for_each(|v| whole.push(*v));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging into / from empty is the identity.
        let mut empty = StreamingSummary::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let snapshot = a;
        a.merge(&StreamingSummary::new());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn cdf_order_independent() {
        let a = Cdf::new([3.0, 1.0, 2.0]).expect("ok");
        let b = Cdf::new([1.0, 2.0, 3.0]).expect("ok");
        assert_eq!(a, b);
    }

    #[test]
    fn cdf_statistics() {
        let cdf = Cdf::new([2.0, 4.0, 6.0, 8.0]).expect("ok");
        assert!((cdf.mean() - 5.0).abs() < 1e-12);
        assert!((cdf.median() - 5.0).abs() < 1e-12);
        assert_eq!(cdf.min(), 2.0);
        assert_eq!(cdf.max(), 8.0);
    }

    #[test]
    fn confidence_interval_brackets_mean() {
        let samples: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let ci = mean_confidence_interval(&samples, 0.95).expect("enough samples");
        assert!(ci.lo < ci.mean && ci.mean < ci.hi);
    }

    #[test]
    fn wider_level_wider_interval() {
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        let ci90 = mean_confidence_interval(&samples, 0.90).expect("ok");
        let ci99 = mean_confidence_interval(&samples, 0.99).expect("ok");
        assert!(ci99.lo < ci90.lo && ci90.hi < ci99.hi, "the 99 % interval nests the 90 %");
    }

    #[test]
    fn interval_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| f64::from(i % 5)).collect();
        let large: Vec<f64> = (0..1000).map(|i| f64::from(i % 5)).collect();
        let ci_small = mean_confidence_interval(&small, 0.95).expect("ok");
        let ci_large = mean_confidence_interval(&large, 0.95).expect("ok");
        assert!(ci_large.hi - ci_large.lo < ci_small.hi - ci_small.lo);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(mean_confidence_interval(&[1.0], 0.95).is_none());
        assert!(mean_confidence_interval(&[1.0, 2.0], 0.5).is_none());
        assert!(mean_confidence_interval(&[1.0, f64::NAN], 0.95).is_none());
    }

    #[test]
    fn zero_variance_gives_point_interval() {
        let ci = mean_confidence_interval(&[3.0; 20], 0.95).expect("ok");
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use digs_cases::cases;

    #[test]
    fn streaming_summary_equals_batch_summary() {
        cases(256, |d| {
            let samples = d.vec(1..200, |d| d.f64(-1e6..1e6));
            let batch = Summary::of(&samples).expect("finite, non-empty");
            let mut s = Summary::streaming();
            for v in &samples {
                s.push(*v);
            }
            assert_eq!(s.count(), samples.len() as u64);
            assert!((s.mean().unwrap() - batch.mean).abs() < 1e-6);
            assert_eq!(s.min().unwrap(), batch.min);
            assert_eq!(s.max().unwrap(), batch.max);
            assert!((s.std_dev() - batch.std_dev).abs() < 1e-6);
        });
    }

    #[test]
    fn percentile_is_total_on_any_p() {
        cases(256, |d| {
            let mut samples = d.vec(1..50, |d| d.f64(-1e6..1e6));
            // Any bit pattern but NaN and the infinities: out-of-range,
            // subnormal and huge `p` included.
            let p = loop {
                let p = f64::from_bits(d.u64());
                if p.is_finite() {
                    break p;
                }
            };
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let v = percentile_sorted(&samples, p);
            // Whatever p is thrown at it, the result is a real value
            // within the sample range.
            assert!(v >= samples[0] && v <= samples[samples.len() - 1]);
        });
    }
}
