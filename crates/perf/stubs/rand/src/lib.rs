//! Offline stand-in for `rand` 0.8.
//!
//! The container that runs the benchmark has no crate registry, so the
//! benchmark's build patches `rand` to this crate. It covers exactly what
//! `digs-sim` calls — `SmallRng::seed_from_u64`, `gen::<f64 | u64 | usize>()`
//! and `gen_range` over `usize` and `f64` ranges — and reproduces rand
//! 0.8.5's algorithms on a 64-bit target (xoshiro256++ seeded through
//! SplitMix64, 53-bit floats, widening-multiply integer ranges), so a seed
//! draws the same stream here as with the published crate.

use core::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a `u64` seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Values `Rng::gen` can draw (rand's `Standard` distribution).
pub trait Standard: Sized {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        let (low, high) = self.into_inner();
        assert!(low <= high, "cannot sample empty range");
        let range = (high.wrapping_sub(low).wrapping_add(1)) as u64;
        if range == 0 {
            return rng.next_u64() as usize;
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(range);
            if (wide as u64) <= zone {
                return low.wrapping_add((wide >> 64) as usize);
            }
        }
    }
}

impl SampleRange<usize> for Range<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        (self.start..=self.end - 1).sample_single(rng)
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let scale = self.end - self.start;
        assert!(scale.is_finite(), "range overflow");
        loop {
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + self.start;
            if res < self.end {
                return res;
            }
        }
    }
}

/// User-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, rand 0.8's `SmallRng` on 64-bit targets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
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
    }

    #[cfg(test)]
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
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..1000usize {
            assert!(rng.gen_range(0..=i) <= i);
            let x = rng.gen_range(1e-12..1.0f64);
            assert!((1e-12..1.0).contains(&x));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
