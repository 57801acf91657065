//! Order statistics, the FNV-1a-64 digest, and the `VmHWM` reader — the
//! std-only arithmetic every number the benchmark prints goes through.

/// Sorted copy of `samples`.
///
/// # Panics
///
/// Panics on NaN: every sample is a measured duration or count.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), because that is what the benchmark's driver applies to the
/// values this program prints. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the driver holds against a metric's bound.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile above the median that still has at least ten
/// samples beyond it, with its value: 120 samples give p90, 40 give p75,
/// and fewer than 40 give `None` (report the median only).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    // In per mille, so that "ten beyond" is exact integer arithmetic.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| samples.len() * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
        .map(|p| (p, percentile(samples, p)))
}

/// FNV-1a, 64 bit, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The FNV-1a-64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` text into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's resident-set high-water mark in MiB; `None` where the
/// kernel does not publish it (anywhere but Linux), so the metric is left
/// out instead of being reported as 0.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 90.0), 46.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([2, 9, 4, 7, 5], n=4)
        assert_eq!(quartiles(&[2.0, 9.0, 4.0, 7.0, 5.0]), Some([3.0, 5.0, 8.0]));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&ten), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |len: usize| (0..len).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(120)).map(|(p, _)| p), Some(90.0));
        assert_eq!(tail(&n(40)).map(|(p, _)| p), Some(75.0));
        assert_eq!(tail(&n(39)), None);
        assert_eq!(tail(&n(6)), None);
        assert_eq!(tail(&n(200)).map(|(p, _)| p), Some(95.0));
        assert_eq!(tail(&n(1000)).map(|(p, _)| p), Some(99.0));
        assert_eq!(tail(&n(10_000)).map(|(p, _)| p), Some(99.9));
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn vm_hwm_is_parsed_or_unavailable() {
        let status = "Name:\tdigs-perf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tdigs-perf\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        }
    }
}
