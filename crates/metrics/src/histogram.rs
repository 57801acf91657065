//! Deterministic log-bucketed (HDR-style) histograms.
//!
//! Bucket boundaries are fixed by construction: they depend only on the
//! recorded value, never on the data seen so far, so two histograms fed
//! the same multiset are structurally identical (the telemetry export
//! leans on this for byte-identical runs) and merging is associative.
//!
//! Values are non-negative integers — the telemetry layer records
//! latencies in milliseconds and queue depths in packets. The first
//! [`SUB_BUCKETS`] values get exact unit buckets; above that, every
//! power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets,
//! which bounds the relative quantization error at `1 / SUB_BUCKETS`
//! while keeping the whole `u64` range in under 500 buckets.

/// Linear sub-buckets per power-of-two octave (must be a power of two).
pub const SUB_BUCKETS: u64 = 8;

/// Log base-2 of [`SUB_BUCKETS`].
const SUB_BUCKET_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// A fixed-boundary log-bucketed histogram over `u64` values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    /// Per-bucket counts, grown on demand (index via
    /// [`LogHistogram::bucket_index`]).
    counts: Vec<u64>,
    /// Total recorded values.
    total: u64,
    /// Exact minimum recorded value (0 when empty).
    min: u64,
    /// Exact maximum recorded value (0 when empty).
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// The bucket index a value falls into. Pure: depends only on `v`.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            v as usize
        } else {
            let exp = 63 - u64::from(v.leading_zeros()) - u64::from(SUB_BUCKET_BITS);
            (exp * SUB_BUCKETS + (v >> exp)) as usize
        }
    }

    /// The `[lo, hi)` value range of a bucket (`hi` saturates at
    /// `u64::MAX` for the topmost bucket).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let i = index as u64;
        if i < SUB_BUCKETS {
            (i, i + 1)
        } else {
            let exp = i / SUB_BUCKETS - 1;
            let lo = (i - exp * SUB_BUCKETS) << exp;
            (lo, lo.saturating_add(1u64 << exp))
        }
    }

    /// Width of the bucket containing `v` — the quantization bound the
    /// quantile property test is stated against.
    pub fn width_at(v: u64) -> u64 {
        let (lo, hi) = Self::bucket_bounds(Self::bucket_index(v));
        (hi - lo).max(1)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records a value `n` times.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        if self.total == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.total += n;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact minimum recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Merges another histogram in. Associative and commutative: bucket
    /// boundaries are global, so this is plain per-bucket addition.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
    }

    /// Representative (midpoint) of the bucket holding the 0-based rank,
    /// clamped into the exactly-tracked `[min, max]` observed range.
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < seen + c {
                let (lo, hi) = Self::bucket_bounds(i);
                let mid = (lo as f64 + hi as f64) / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Quantile estimate at percentile `p` (0–100), linearly interpolated
    /// between bucket midpoints with the same rank convention as
    /// [`crate::stats::percentile_sorted`] (out-of-range `p` clamps, NaN
    /// is treated as 0). `None` when empty. The estimate is within one
    /// bucket width of the exact sample percentile.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let pos = p / 100.0 * (self.total - 1) as f64;
        let lo_rank = pos.floor() as u64;
        let hi_rank = pos.ceil() as u64;
        let v0 = self.value_at_rank(lo_rank);
        let v1 = self.value_at_rank(hi_rank);
        Some(v0 + (v1 - v0) * (pos - lo_rank as f64))
    }

    /// Mean estimate from bucket midpoints (clamped to the observed
    /// range), `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let mut sum = 0.0;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = Self::bucket_bounds(i);
            let mid = ((lo as f64 + hi as f64) / 2.0).clamp(self.min as f64, self.max as f64);
            sum += mid * c as f64;
            seen += c;
        }
        debug_assert_eq!(seen, self.total);
        Some(sum / self.total as f64)
    }

    /// Non-empty buckets as ascending `(index, count)` pairs — the sparse
    /// wire form the telemetry JSONL uses.
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, c)| **c > 0).map(|(i, c)| (i, *c)).collect()
    }

    /// Rebuilds a histogram from its sparse wire form plus the exact
    /// min/max. Inverse of [`LogHistogram::sparse`] for every histogram.
    /// The pairs come off the wire: a bucket index no `u64` value falls
    /// into (it would size the table), counts that overflow, and a min
    /// above the max (the quantiles clamp to `[min, max]`) are refused.
    pub fn from_sparse(pairs: &[(usize, u64)], min: u64, max: u64) -> Result<LogHistogram, String> {
        if min > max {
            return Err(format!("min {min} is above max {max}"));
        }
        let top = Self::bucket_index(u64::MAX);
        let mut h = LogHistogram::new();
        for &(idx, count) in pairs {
            if idx > top {
                return Err(format!("bucket index {idx} is above the last bucket ({top})"));
            }
            if count == 0 {
                continue;
            }
            if h.counts.len() <= idx {
                h.counts.resize(idx + 1, 0);
            }
            let sums = h.counts[idx].checked_add(count).zip(h.total.checked_add(count));
            (h.counts[idx], h.total) = sums.ok_or("bucket counts overflow a u64")?;
        }
        if h.total > 0 {
            h.min = min;
            h.max = max;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_deterministic() {
        // Every value falls inside its bucket's bounds, indices are
        // monotone, and adjacent buckets share a boundary.
        let mut last_idx = 0;
        for v in 0..10_000u64 {
            let idx = LogHistogram::bucket_index(v);
            let (lo, hi) = LogHistogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "v={v} not in [{lo}, {hi})");
            assert!(idx >= last_idx, "index regressed at v={v}");
            last_idx = idx;
        }
        for idx in 0..LogHistogram::bucket_index(1 << 40) {
            let (_, hi) = LogHistogram::bucket_bounds(idx);
            let (lo_next, _) = LogHistogram::bucket_bounds(idx + 1);
            assert_eq!(hi, lo_next, "gap between buckets {idx} and {}", idx + 1);
        }
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(LogHistogram::bucket_bounds(LogHistogram::bucket_index(v)), (v, v + 1));
            assert_eq!(LogHistogram::width_at(v), 1);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [10u64, 100, 1000, 123_456, 1 << 30, u64::MAX / 3] {
            let width = LogHistogram::width_at(v);
            assert!(
                (width as f64) <= v as f64 / (SUB_BUCKETS as f64 / 2.0),
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn record_order_does_not_matter() {
        let values = [5u64, 900, 3, 3, 77, 1 << 20, 0];
        let mut a = LogHistogram::new();
        values.iter().for_each(|v| a.record(*v));
        let mut b = LogHistogram::new();
        values.iter().rev().for_each(|v| b.record(*v));
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let build = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            vals.iter().for_each(|v| h.record(*v));
            h
        };
        let (a, b, c) = (build(&[1, 2, 3, 500]), build(&[900, 900, 7]), build(&[0, 1 << 33]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associativity");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutativity");
        assert_eq!(left.count(), a.count() + b.count() + c.count());
        // Merging an empty histogram is the identity in both directions.
        let mut id = a.clone();
        id.merge(&LogHistogram::new());
        assert_eq!(id, a);
        let mut from_empty = LogHistogram::new();
        from_empty.merge(&a);
        assert_eq!(from_empty, a);
    }

    #[test]
    fn extreme_values_round_trip_through_sparse() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record_n(1, 3);
        let back = LogHistogram::from_sparse(&h.sparse(), h.min().unwrap(), h.max().unwrap())
            .expect("its own sparse form");
        assert_eq!(back, h);
        assert_eq!(back.count(), 6);
        assert_eq!(back.min(), Some(0));
        assert_eq!(back.max(), Some(u64::MAX));
        // Empty round trip too.
        let empty = LogHistogram::new();
        assert_eq!(LogHistogram::from_sparse(&empty.sparse(), 0, 0), Ok(empty));
    }

    #[test]
    fn hostile_sparse_forms_are_refused() {
        // An index past the last bucket used to size the table (this one
        // asks for 2^61 counters), and counts used to add unchecked.
        let top = LogHistogram::bucket_index(u64::MAX);
        assert!(LogHistogram::from_sparse(&[(top, 1)], 0, u64::MAX).is_ok());
        let err = LogHistogram::from_sparse(&[(top + 1, 1)], 0, 0).unwrap_err();
        assert!(err.contains("bucket index"), "{err}");
        assert!(LogHistogram::from_sparse(&[(1 << 61, 1)], 0, 0).is_err());
        let err = LogHistogram::from_sparse(&[(3, u64::MAX), (3, 1)], 3, 3).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        assert!(LogHistogram::from_sparse(&[(3, u64::MAX), (4, 1)], 3, 4).is_err());
        // A min above the max used to come back, and its quantiles panicked
        // in `f64::clamp`.
        let err = LogHistogram::from_sparse(&[(3, 1)], 4, 3).unwrap_err();
        assert_eq!(err, "min 4 is above max 3");
    }

    #[test]
    fn quantiles_on_empty_and_singleton() {
        assert_eq!(LogHistogram::new().quantile(50.0), None);
        assert_eq!(LogHistogram::new().mean(), None);
        let mut h = LogHistogram::new();
        h.record(42);
        for p in [0.0, 50.0, 100.0, -3.0, 400.0, f64::NAN] {
            // Midpoint clamped into [min, max] makes a single value exact.
            assert_eq!(h.quantile(p), Some(42.0));
        }
        assert_eq!(h.mean(), Some(42.0));
    }

    #[test]
    fn quantile_tracks_exact_percentile() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<f64> = Vec::new();
        for v in 0..1000u64 {
            h.record(v);
            samples.push(v as f64);
        }
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = crate::stats::percentile_sorted(&samples, p);
            let est = h.quantile(p).expect("non-empty");
            let width = LogHistogram::width_at(exact as u64) as f64;
            assert!(
                (est - exact).abs() <= width,
                "p{p}: est {est} vs exact {exact} (width {width})"
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::stats::percentile_sorted;
    use digs_cases::cases;

    #[test]
    fn histogram_quantiles_agree_with_percentile_sorted() {
        cases(256, |d| {
            let values = d.vec(1..200, |d| d.int(0u64..1_000_000));
            let p = d.f64(0.0..100.0);
            let mut h = LogHistogram::new();
            let mut sorted: Vec<f64> = Vec::with_capacity(values.len());
            for v in &values {
                h.record(*v);
                sorted.push(*v as f64);
            }
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let exact = percentile_sorted(&sorted, p);
            let est = h.quantile(p).expect("non-empty");
            // The estimate interpolates between the midpoints of the two
            // buckets holding the straddling order statistics, so it is
            // within one bucket width of the exact interpolated
            // percentile (the wider of the two buckets bounds the error).
            let pos = p / 100.0 * (sorted.len() - 1) as f64;
            let v0 = sorted[pos.floor() as usize] as u64;
            let v1 = sorted[pos.ceil() as usize] as u64;
            let width = LogHistogram::width_at(v0).max(LogHistogram::width_at(v1)) as f64;
            assert!(
                (est - exact).abs() <= width,
                "p={p}: est {est} vs exact {exact} (width {width})"
            );
        });
    }

    #[test]
    fn merge_equals_single_stream() {
        cases(256, |d| {
            let left = d.vec(0..100, |d| d.int(0u64..1_000_000));
            let right = d.vec(0..100, |d| d.int(0u64..1_000_000));
            let mut a = LogHistogram::new();
            left.iter().for_each(|v| a.record(*v));
            let mut b = LogHistogram::new();
            right.iter().for_each(|v| b.record(*v));
            let mut whole = LogHistogram::new();
            left.iter().chain(&right).for_each(|v| whole.record(*v));
            a.merge(&b);
            assert_eq!(a, whole);
        });
    }

    /// The fleet invariant: folding N per-network histograms into one
    /// is structurally identical to recording the pooled stream, and
    /// the merged quantiles agree with the pooled quantiles to within
    /// one bucket width (they are in fact identical here, since the
    /// structures are equal — the quantile bound is stated to match
    /// the documented contract).
    #[test]
    fn n_way_merge_equals_pooled_stream() {
        cases(256, |d| {
            let streams = d.vec(1..12, |d| d.vec(0..60, |d| d.int(0u64..1_000_000)));
            let p = d.f64(0.0..100.0);
            let mut merged = LogHistogram::new();
            let mut pooled = LogHistogram::new();
            for stream in &streams {
                let mut h = LogHistogram::new();
                for v in stream {
                    h.record(*v);
                    pooled.record(*v);
                }
                merged.merge(&h);
            }
            assert_eq!(&merged, &pooled);
            assert_eq!(merged.count(), streams.iter().map(Vec::len).sum::<usize>() as u64);
            match (merged.quantile(p), pooled.quantile(p)) {
                (None, None) => assert!(merged.is_empty()),
                (Some(m), Some(w)) => {
                    let width = LogHistogram::width_at(w.max(0.0) as u64) as f64;
                    assert!(
                        (m - w).abs() <= width,
                        "p={p}: merged {m} vs pooled {w} (width {width})"
                    );
                }
                other => panic!("emptiness mismatch: {other:?}"),
            }
        });
    }
}
