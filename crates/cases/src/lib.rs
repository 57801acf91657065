//! Seeded cases for property tests: std only, deterministic, replayable.
//!
//! [`cases`] runs a property `n` times, each time over a fresh [`Draw`] with
//! its own seed. A `Draw` that is dropped while its thread panics prints its
//! seed, and [`Draw::from_seed`] with that seed draws the same values again,
//! so a failing case is re-run on its own:
//!
//! ```
//! digs_cases::cases(256, |d| {
//!     let xs = d.vec(1..50, |d| d.int(0u32..1000));
//!     let x = *d.pick(&xs);
//!     assert!(xs.contains(&x));
//! });
//! ```
//!
//! There is no shrinking: a failing case is reported as drawn.

use std::ops::{Bound, Range, RangeBounds};

/// SplitMix64: the next word of the sequence that starts at `state`.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `case` `n` times. The seeds are the same on every run of the test.
pub fn cases(n: u32, mut case: impl FnMut(&mut Draw)) {
    let mut seeds = 0;
    for _ in 0..n {
        case(&mut Draw::from_seed(split_mix(&mut seeds)));
    }
}

/// One case's source of values: a stream that is a function of its seed.
#[derive(Debug)]
pub struct Draw {
    seed: u64,
    state: u64,
}

impl Draw {
    /// The stream `seed` names: the same seed draws the same values.
    pub fn from_seed(seed: u64) -> Draw {
        Draw { seed, state: seed }
    }

    /// The seed this stream started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Any 64 bits.
    pub fn u64(&mut self) -> u64 {
        split_mix(&mut self.state)
    }

    /// Either, evenly.
    pub fn bool(&mut self) -> bool {
        self.u64() >> 63 == 1
    }

    /// An unsigned integer in `range`, which needs an upper bound.
    pub fn int<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<u64> + TryFrom<u64>,
    {
        let wide = |bound: &T| (*bound).try_into().ok().expect("an unsigned bound") as u128;
        let low = match range.start_bound() {
            Bound::Included(low) => wide(low),
            Bound::Excluded(low) => wide(low) + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(high) => wide(high) + 1,
            Bound::Excluded(high) => wide(high),
            Bound::Unbounded => panic!("an integer draw needs an upper bound"),
        };
        assert!(low < end, "cannot draw from an empty range");
        let drawn = low + ((u128::from(self.u64()) * (end - low)) >> 64);
        T::try_from(drawn as u64).ok().expect("a value between the bounds fits their type")
    }

    /// A float in `range`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot draw from an empty range");
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// A vector whose length is drawn from `len` and whose items `item` draws.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Draw) -> T,
    ) -> Vec<T> {
        (0..self.int(len)).map(|_| item(self)).collect()
    }

    /// One of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }
}

impl Drop for Draw {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("digs-cases: replay the failing case with Draw::from_seed({:#x})", self.seed);
            #[cfg(test)]
            tests::REPORTED.with(|seeds| seeds.borrow_mut().push(self.seed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    thread_local! {
        /// The seeds the drop guard reported on this thread.
        pub(super) static REPORTED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    fn draws(d: &mut Draw) -> (Vec<u16>, f64, bool, u64) {
        (d.vec(0..20, |d| d.int(3u16..=9)), d.f64(-1.0..1.0), d.bool(), d.u64())
    }

    #[test]
    fn a_failing_case_reports_the_seed_that_replays_it() {
        let mut seen = Vec::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            cases(50, |d| {
                seen.push(draws(d));
                assert!(seen.len() < 7, "the seventh case fails");
            })
        }));
        assert!(failed.is_err(), "the failure reaches the test");
        assert_eq!(seen.len(), 7, "and stops the run");
        let reported = REPORTED.with(|seeds| seeds.borrow().clone());
        let [seed] = reported[..] else { panic!("one failing case, got {reported:x?}") };
        assert_eq!(draws(&mut Draw::from_seed(seed)), seen[6]);
        assert_eq!(REPORTED.with(|seeds| seeds.borrow().len()), 1, "a passing draw is silent");
    }

    #[test]
    fn cases_differ_from_each_other_and_repeat_from_run_to_run() {
        let run = || {
            let mut seeds = Vec::new();
            cases(256, |d| seeds.push((d.seed(), d.u64())));
            seeds
        };
        let first = run();
        assert_eq!(first, run());
        let distinct: std::collections::BTreeSet<_> = first.iter().collect();
        assert_eq!(distinct.len(), 256);
    }

    #[test]
    fn draws_stay_in_range_and_reach_both_ends() {
        let (mut low, mut high, mut full) = (false, false, 0u64);
        cases(256, |d| {
            let x = d.int(10u8..=12);
            assert!((10..=12).contains(&x));
            low |= x == 10;
            high |= x == 12;
            assert!((5..9).contains(&d.int(5usize..9)));
            assert_eq!(d.int(7u32..8), 7);
            full |= d.int(0..=u64::MAX);
            let f = d.f64(-2.5..4.0);
            assert!((-2.5..4.0).contains(&f));
            let v = d.vec(2..=4, |d| d.bool());
            assert!((2..=4).contains(&v.len()));
            assert!([1, 2, 3].contains(d.pick(&[1, 2, 3])));
        });
        assert!(low && high, "both ends of an inclusive range are drawn");
        assert_eq!(full, u64::MAX, "every bit of a full-range draw is set in some case");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_is_refused() {
        Draw::from_seed(1).int(4u8..4);
    }
}
