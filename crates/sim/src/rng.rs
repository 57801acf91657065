//! Deterministic randomness helpers.
//!
//! The simulator must be fully reproducible under a seed: per-link shadowing
//! and per-channel fading are *frozen* functions of (seed, link, channel)
//! computed by hashing, while per-transmission noise uses a single
//! [`SmallRng`] owned by the engine.

use std::sync::OnceLock;

/// The engine's generator: xoshiro256++ seeded through SplitMix64. The
/// algorithms and their constants are those of `rand` 0.8.5's `SmallRng` on
/// a 64-bit target, so a seed draws the stream every golden was recorded
/// with.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Expands `state` into the four state words with SplitMix64.
    pub fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *word = splitmix_finish(state);
        }
        SmallRng { s }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` from the 53 high bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `0..=high`: widening multiply, redrawing while
    /// the low word falls outside the largest multiple of the range.
    pub fn up_to(&mut self, high: usize) -> usize {
        let range = (high as u64).wrapping_add(1);
        if range == 0 {
            return self.next_u64() as usize;
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return (wide >> 64) as usize;
            }
        }
    }
}

/// Creates the engine's RNG from a user seed.
pub fn engine_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// SplitMix64's output function.
fn splitmix_finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic 64-bit mix of the inputs (SplitMix64 finalizer), used to
/// derive frozen per-link randomness without storing it.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix_finish(
        seed.wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(c.wrapping_mul(0x94d0_49bb_1331_11eb)),
    )
}

/// A uniform sample in `[0, 1)` derived deterministically from the inputs.
pub fn uniform01(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    // 53 high bits → uniform double in [0, 1).
    (mix(seed, a, b, c) >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard-normal sample derived deterministically from the inputs
/// (Box–Muller over two mixed uniforms).
pub fn standard_normal(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let u1 = uniform01(seed, a, b, c).max(1e-12);
    let u2 = uniform01(seed ^ 0x5851_f42d_4c95_7f2d, a, b, c);
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// An upper bound on `|standard_normal(seed, a, b, c)|` for the price of
/// its first hash: Box–Muller's radius `sqrt(-2 ln u1)` falls as `u1` rises
/// and `|cos| <= 1`, so the radius at the low edge of the 1/4096-wide bucket
/// the hash's top twelve bits put `u1` in bounds every sample of that bucket.
pub fn normal_abs_bound(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    static RADIUS: OnceLock<[f64; 4096]> = OnceLock::new();
    let radius = RADIUS.get_or_init(|| {
        // Bucket 0 holds the `1e-12` clamp of `standard_normal`; the factor
        // is slack for the last-place error of `ln` and `sqrt`.
        std::array::from_fn(|b| (-2.0 * (b as f64 / 4096.0).max(1e-12).ln()).sqrt() * (1.0 + 1e-9))
    });
    radius[(mix(seed, a, b, c) >> 52) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
    }

    #[test]
    fn uniform01_in_range() {
        for i in 0..1000 {
            let u = uniform01(42, i, i * 7, i * 13);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform01_is_roughly_uniform() {
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| uniform01(7, i, 0, 0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| standard_normal(11, i, 1, 2)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn matches_the_xoshiro256plusplus_reference_vector() {
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        let expected = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// The first draws of `engine_rng(1)` as `rand` 0.8.5 gave them
    /// (`gen::<u64>()`, `gen::<f64>()`, `gen_range(0..=high)`): every golden
    /// and pinned digest replays this stream.
    #[test]
    fn engine_rng_stream_is_pinned() {
        let mut rng = engine_rng(1);
        let words =
            [13022637563981439720, 12730338491433842474, 9853618787702925075, 11048695036373307703];
        for w in words {
            assert_eq!(rng.next_u64(), w);
        }
        let floats: [u64; 4] =
            [4599691898637115126, 4594700422486567256, 4607102295117644899, 4604801075009849210];
        for f in floats {
            assert_eq!(rng.next_f64().to_bits(), f);
        }
        let ranges = [
            (0, 0),
            (1, 1),
            (2, 0),
            (9, 1),
            (151, 104),
            (1000, 204),
            (usize::MAX, 6165147480344377794),
            (usize::MAX - 1, 16052155069869836854),
            ((1 << 63) + 5, 4757384127219712808),
        ];
        for (high, drawn) in ranges {
            assert_eq!(rng.up_to(high), drawn, "up_to({high})");
        }
        assert_eq!(rng.next_u64(), 3838511851316159523);
    }

    #[test]
    fn up_to_stays_in_range_at_the_edges() {
        let mut rng = engine_rng(7);
        for high in 0..1000 {
            assert!(rng.up_to(high) <= high);
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
        // `0..=0` has one answer and still draws, as `gen_range(0..=0)` did,
        // until a word with a clear top bit; the full range is one raw word.
        let mut twin = rng.clone();
        assert_eq!(rng.up_to(0), 0);
        while twin.next_u64() >> 63 == 1 {}
        assert_eq!(rng.up_to(usize::MAX) as u64, twin.next_u64());
    }

    #[test]
    fn engine_rng_reproducible() {
        let mut a = engine_rng(9);
        let mut b = engine_rng(9);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
