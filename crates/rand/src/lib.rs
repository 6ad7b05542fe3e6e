//! Offline stand-in for the `rand` crate.
//!
//! The build environment resolves crates offline, so the workspace vendors
//! the tiny slice of `rand`'s API it actually uses: a seedable generator
//! (`rngs::StdRng` + [`SeedableRng`]) and uniform range sampling
//! ([`Rng::gen_range`] over half-open and inclusive ranges of the common
//! numeric types).
//!
//! The generator is SplitMix64 — statistically solid for initial-condition
//! noise and fault-site selection, which is all the workspace uses
//! randomness for. Sequences differ from upstream `rand`'s ChaCha-based
//! `StdRng`; every call site treats the stream as arbitrary-but-seeded, so
//! only determinism per seed matters, not the specific sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A generator constructible from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open `a..b` or inclusive
    /// `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Samples a uniform value of a [`Standard`]-distributed type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }
}

impl<G: RngCore> Rng for G {}

/// Types with a canonical "whole domain" uniform distribution.
pub trait Standard {
    /// Draws one value.
    fn sample<G: RngCore>(g: &mut G) -> Self;
}

impl Standard for bool {
    fn sample<G: RngCore>(g: &mut G) -> Self {
        g.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<G: RngCore>(g: &mut G) -> Self {
        unit_f64(g.next_u64())
    }
}

/// A range that can produce uniform samples of `T`.
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample_from<G: RngCore>(self, g: &mut G) -> T;
}

/// Maps 64 random bits onto `[0, 1)` with 53-bit resolution.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<G: RngCore>(self, g: &mut G) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + unit_f64(g.next_u64()) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<G: RngCore>(self, g: &mut G) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range");
        lo + unit_f64(g.next_u64()) * (hi - lo)
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<G: RngCore>(self, g: &mut G) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (g.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<G: RngCore>(self, g: &mut G) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (g.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_ranges!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64's state increment (the golden-ratio constant γ).
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The workspace's standard seeded generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        /// Skips the next `k` outputs of [`RngCore::next_u64`] in O(1):
        /// after `k` draws the state is `seed + k·γ`, so any draw of a
        /// seeded stream can be computed directly.
        pub fn jump(&mut self, k: u64) {
            self.state = self.state.wrapping_add(k.wrapping_mul(GAMMA));
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea & Flood 2014).
            self.state = self.state.wrapping_add(GAMMA);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-0.25f64..0.75);
            assert!((-0.25..0.75).contains(&f));
            let i = rng.gen_range(-3i32..=3);
            assert!((-3..=3).contains(&i));
            let u = rng.gen_range(24u32..32);
            assert!((24..32).contains(&u));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn jump_skips_exactly_k_draws() {
        for seed in [0, 11, 17, 42, u64::MAX] {
            let mut seq = StdRng::seed_from_u64(seed);
            for k in 0..300u64 {
                let mut jumped = StdRng::seed_from_u64(seed);
                jumped.jump(k);
                assert_eq!(jumped.next_u64(), seq.next_u64(), "seed {seed}, draw {k}");
            }
        }
        // Ranged draws take one output each, so they line up too.
        let mut seq = StdRng::seed_from_u64(5);
        let draws: Vec<f64> = (0..64).map(|_| seq.gen_range(-0.2..0.2)).collect();
        for (k, &d) in draws.iter().enumerate() {
            let mut jumped = StdRng::seed_from_u64(5);
            jumped.jump(k as u64);
            assert_eq!(jumped.gen_range(-0.2..0.2f64).to_bits(), d.to_bits());
        }
    }

    #[test]
    fn full_domain_samples() {
        let mut rng = StdRng::seed_from_u64(3);
        let _: bool = rng.gen();
        let f: f64 = rng.gen();
        assert!((0.0..1.0).contains(&f));
    }
}
