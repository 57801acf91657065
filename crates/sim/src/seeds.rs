//! Seed-sweep specifications for statistical evaluation.
//!
//! Every paper figure is a distribution over seeded flow sets, and the
//! conformance gate runs whole scenario × seed matrices. A [`SeedSpec`]
//! is the canonical way callers name such a sweep: a count (`"8"` means
//! seeds `1..=8`), an inclusive range (`"3-10"`), or an explicit list
//! (`"1,4,9"`). Seeds are deterministic identifiers, never entropy — the
//! same spec always yields the same runs.

use core::fmt;

/// A parsed seed sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSpec {
    seeds: Vec<u64>,
}

/// Largest sweep [`SeedSpec::parse`] accepts: far above any the gate or the
/// figures run (tens), so a typo like `1-99999999999` is an error, not an
/// allocation.
const MAX_SEEDS: u64 = 100_000;

/// Error from [`SeedSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSpecError(String);

impl fmt::Display for SeedSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad seed spec: {} (use N, LO-HI, or a,b,c)", self.0)
    }
}

impl std::error::Error for SeedSpecError {}

impl SeedSpec {
    /// Seeds `1..=n`, the conventional sweep over `n` flow sets.
    pub fn first(n: u64) -> SeedSpec {
        SeedSpec { seeds: (1..=n).collect() }
    }

    /// Parses `"8"` (seeds 1–8), `"3-10"` (inclusive range), or
    /// `"1,4,9"` (explicit list, deduplicated, order preserved).
    ///
    /// # Errors
    ///
    /// Returns [`SeedSpecError`] on empty, unparsable, or inverted input,
    /// and on a count or range of zero or more than 100 000 seeds.
    pub fn parse(spec: &str) -> Result<SeedSpec, SeedSpecError> {
        let spec = spec.trim();
        let err = || SeedSpecError(spec.to_string());
        if spec.is_empty() {
            return Err(err());
        }
        if spec.contains(',') {
            let mut seeds = Vec::new();
            for part in spec.split(',') {
                let s: u64 = part.trim().parse().map_err(|_| err())?;
                if !seeds.contains(&s) {
                    seeds.push(s);
                }
            }
            return Ok(SeedSpec { seeds });
        }
        if let Some((lo, hi)) = spec.split_once('-') {
            let lo: u64 = lo.trim().parse().map_err(|_| err())?;
            let hi: u64 = hi.trim().parse().map_err(|_| err())?;
            if lo > hi || hi - lo >= MAX_SEEDS {
                return Err(err());
            }
            return Ok(SeedSpec { seeds: (lo..=hi).collect() });
        }
        let n: u64 = spec.parse().map_err(|_| err())?;
        if n == 0 || n > MAX_SEEDS {
            return Err(err());
        }
        Ok(SeedSpec::first(n))
    }

    /// The seeds, in sweep order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of seeds in the sweep.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

impl fmt::Display for SeedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print the densest form that parses back to the same sweep: a
        // contiguous run as LO-HI (a lone `7` would read as 1-7), else a list.
        let contiguous = self.seeds.windows(2).all(|w| w[1].checked_sub(w[0]) == Some(1));
        match (self.seeds.first(), self.seeds.last()) {
            (Some(lo), Some(hi)) if contiguous => write!(f, "{lo}-{hi}"),
            _ => {
                for (i, s) in self.seeds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_form_starts_at_one() {
        assert_eq!(SeedSpec::parse("3").unwrap().seeds(), &[1, 2, 3]);
    }

    #[test]
    fn range_form_is_inclusive() {
        assert_eq!(SeedSpec::parse("5-8").unwrap().seeds(), &[5, 6, 7, 8]);
        assert_eq!(SeedSpec::parse("4-4").unwrap().seeds(), &[4]);
    }

    #[test]
    fn list_form_dedups_and_keeps_order() {
        assert_eq!(SeedSpec::parse("9, 2, 9,5").unwrap().seeds(), &[9, 2, 5]);
    }

    #[test]
    fn bad_specs_error() {
        for bad in ["", "x", "5-2", "1..3", "-3", "1,,2", "0", "100001", "0-18446744073709551615"] {
            assert!(SeedSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn display_round_trips() {
        for spec in ["1-8", "3-10", "9,2,5", "7", "4-4", "6,6", "18446744073709551615,0"] {
            let parsed = SeedSpec::parse(spec).unwrap();
            assert_eq!(SeedSpec::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }
}
