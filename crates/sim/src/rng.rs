//! Deterministic randomness helpers.
//!
//! The simulator must be fully reproducible under a seed: per-link shadowing
//! and per-channel fading are *frozen* functions of (seed, link, channel)
//! computed by hashing, while per-transmission noise uses a single
//! [`SmallRng`] owned by the engine.
//!
//! A hashed normal sample ([`standard_normal`]) is two hashes, then a
//! logarithm, a root and a cosine. Reception asks for millions of them and
//! reads nearly all of them only to compare, so the hashes also come apart
//! from the arithmetic: [`NormalHashes::bounds`] brackets the sample from the
//! two hashes by table look-up, and [`NormalHashes::sample`] finishes the draw
//! from the same two hashes where the bracket does not settle the question.

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
    unit_interval(mix(seed, a, b, c))
}

/// 53 high bits → uniform double in [0, 1).
fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// A standard-normal sample derived deterministically from the inputs
/// (Box–Muller over two mixed uniforms).
pub fn standard_normal(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let u1 = uniform01(seed, a, b, c).max(1e-12);
    let u2 = uniform01(seed ^ 0x5851_f42d_4c95_7f2d, a, b, c);
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Buckets of the two bound tables: a hash's top ten bits index them.
const BUCKETS: usize = 1024;

/// What [`NormalHashes::bounds`] looks up, 16 KB in all.
struct BoundTables {
    /// Box–Muller's radius `sqrt(-2 ln u1)` at the low edge of each bucket of
    /// `u1`, where it is largest, times `1 + 1e-9` for the last-place error
    /// of `ln` and `sqrt`. Bucket 0 holds the `1e-12` clamp. The entry past
    /// the end is the radius at `u1 = 1`, so that `radius_hi[b + 1]` is the
    /// radius at bucket `b`'s high edge, where it is smallest.
    radius_hi: Box<[f64; BUCKETS + 1]>,
    /// The largest `cos(τ·u2)` over each bucket of `u2` — at the edge nearer
    /// 0 or 1 — plus `1e-9` for the rounding of the product and of `cos`.
    cos_hi: Box<[f64; BUCKETS]>,
}

fn bound_tables() -> &'static BoundTables {
    static TABLES: OnceLock<BoundTables> = OnceLock::new();
    // Filled on the heap: an array returned by value crosses the stack.
    fn zeroed<const N: usize>() -> Box<[f64; N]> {
        vec![0.0; N].into_boxed_slice().try_into().expect("N elements were allocated")
    }
    TABLES.get_or_init(|| {
        let mut tables = BoundTables { radius_hi: zeroed(), cos_hi: zeroed() };
        for (b, radius) in tables.radius_hi.iter_mut().enumerate() {
            let u1 = (b as f64 / BUCKETS as f64).max(1e-12);
            *radius = (-2.0 * u1.ln()).sqrt() * (1.0 + 1e-9);
        }
        for (b, cos) in tables.cos_hi.iter_mut().enumerate() {
            // The cosine falls over the first half turn and rises over the
            // second; the buckets touching 0 and τ reach 1 itself.
            let edge = if b < BUCKETS / 2 { b } else { b + 1 };
            *cos = if edge % BUCKETS == 0 {
                1.0
            } else {
                (core::f64::consts::TAU * (edge as f64 / BUCKETS as f64)).cos() + 1e-9
            };
        }
        tables
    })
}

/// The bucket of a uniform drawn from `hash`: `uniform01` keeps the 53 high
/// bits, so the top ten place it among 1024 equal intervals of `[0, 1)`.
fn bucket(hash: u64) -> usize {
    (hash >> 54) as usize
}

/// Both hashes behind `standard_normal(seed, a, b, c)`: the sample, and an
/// interval around it that costs four table look-ups.
#[derive(Debug, Clone, Copy)]
pub struct NormalHashes {
    first: u64,
    second: u64,
}

impl NormalHashes {
    /// Hashes the two uniforms of `standard_normal(seed, a, b, c)`.
    pub fn new(seed: u64, a: u64, b: u64, c: u64) -> NormalHashes {
        NormalHashes {
            first: mix(seed, a, b, c),
            second: mix(seed ^ 0x5851_f42d_4c95_7f2d, a, b, c),
        }
    }

    /// `(lo, hi)` with `lo <= sample() <= hi`, without a branch. The upper
    /// bound: where the cosine can be positive, the largest radius of `u1`'s
    /// bucket times the largest cosine of `u2`'s; where it cannot, the
    /// smallest radius times the cosine nearest zero. The lower bound is its
    /// mirror image, `cos(τ(u + ½)) = −cos(τu)`: the smallest cosine of a
    /// bucket is minus the largest of the bucket half a turn away.
    ///
    /// The smallest radius is read from a table of largest ones, so it sits
    /// `1e-9` of itself too high; the cosine's own `1e-9` more than makes up
    /// for it, `(1 + ε)(c + ε) >= c` for any `c >= -1` — and, mirrored,
    /// `(1 + ε)(c − ε) <= c` for any `c <= 1`.
    pub fn bounds(&self) -> (f64, f64) {
        let tables = bound_tables();
        let (b1, b2) = (bucket(self.first), bucket(self.second));
        let cos_hi = tables.cos_hi[b2];
        let cos_lo = -tables.cos_hi[b2 ^ (BUCKETS / 2)];
        // The choice of radius is an index, not a jump: the sign of a cosine
        // is a coin flip no predictor learns.
        let lo = tables.radius_hi[b1 + usize::from(cos_lo > 0.0)] * cos_lo;
        let hi = tables.radius_hi[b1 + usize::from(cos_hi < 0.0)] * cos_hi;
        (lo, hi)
    }

    /// `standard_normal(seed, a, b, c)` to the bit, from the hashes in hand.
    pub fn sample(&self) -> f64 {
        let u1 = unit_interval(self.first).max(1e-12);
        let u2 = unit_interval(self.second);
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::TAU;

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

    /// Every entry lies strictly beyond the value it bounds as this machine
    /// computes it, so a last-place wobble inside a bucket stays inside.
    #[test]
    fn the_bound_tables_carry_their_slack() {
        let tables = bound_tables();
        let at = |edge: usize| edge as f64 / BUCKETS as f64;
        for b in 0..BUCKETS {
            let radius = (-2.0 * at(b).max(1e-12).ln()).sqrt();
            assert!(tables.radius_hi[b] > radius, "radius of bucket {b}");
            assert!(tables.radius_hi[b] > tables.radius_hi[b + 1], "radius falls at {b}");
            let cos = (TAU * at(b)).cos().max((TAU * at(b + 1)).cos());
            let cos_hi = tables.cos_hi[b];
            assert!(cos_hi > cos || cos_hi == 1.0, "cosine of bucket {b}: {cos_hi} over {cos}");
        }
        assert_eq!(tables.radius_hi[BUCKETS], 0.0);
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
