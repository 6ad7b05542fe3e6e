//! Offline stand-in for the `proptest` crate.
//!
//! The build environment resolves crates offline, so the workspace vendors
//! the subset of proptest's API its property tests use: the [`Strategy`]
//! trait with [`Strategy::prop_map`], range and [`any`] strategies, tuple
//! and [`prop::collection::vec`] combinators, the [`proptest!`] macro with
//! optional `#![proptest_config(..)]`, and the `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` family.
//!
//! Semantics deliberately kept from upstream: cases are generated from a
//! deterministic per-test seed (derived from the test's module path and
//! name, so failures reproduce exactly), `prop_assume!` rejects a case
//! without consuming it, and assertion failures panic with the formatted
//! message. Shrinking is not implemented — a failing case reports the
//! case number instead of a minimized input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic test-case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty size range");
        lo + (self.next_u64() as usize) % (hi - lo)
    }
}

/// FNV-1a hash of a string — the per-test seed derivation.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assumption failed; the case is skipped without counting.
    Reject,
    /// An assertion failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self::Fail(msg.into())
    }
}

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 strategy range");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! impl_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The whole-domain strategy for `T` (`any::<i32>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Sub-modules mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Length specification for [`vec()`]: an exact `usize` or a
        /// half-open `Range<usize>`.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n + 1 }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                Self {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        /// A strategy generating `Vec`s of `element` values.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.usize_in(self.size.lo, self.size.hi);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling helpers.
    pub mod sample {
        use crate::{Arbitrary, TestRng};

        /// An index into a collection whose length is only known at use
        /// time (`pos.index(v.len())`).
        #[derive(Debug, Clone, Copy)]
        pub struct Index(u64);

        impl Index {
            /// Resolves the index against a collection of `len` elements.
            ///
            /// # Panics
            ///
            /// Panics if `len` is zero.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on empty collection");
                (self.0 % len as u64) as usize
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Self {
                Self(rng.next_u64())
            }
        }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Defines property tests: each `fn name(binding in strategy, ..) { .. }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@block ($cfg) $($rest)*);
    };
    (@block ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($p:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::new($crate::fnv1a(concat!(
                    module_path!(), "::", stringify!($name)
                )));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(16).max(64);
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "{}: too many rejected cases ({} accepted of {} wanted)",
                        stringify!($name), accepted, config.cases
                    );
                    $(let $p = $crate::Strategy::generate(&$strat, &mut rng);)*
                    let outcome: $crate::TestCaseResult = (move || {
                        $body
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("{} failed at case {}: {}", stringify!($name), accepted, msg)
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@block ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n {}",
                    stringify!($left), stringify!($right), l, r, format!($($fmt)*)
                );
            }
        }
    };
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l
                );
            }
        }
    };
}

/// Rejects the current case (skipped, not counted) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -4.0f64..4.0, n in 1usize..10) {
            prop_assert!((-4.0..4.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        #[test]
        fn tuples_and_vecs_compose(
            (a, b) in (0i32..10, 0i32..10),
            v in prop::collection::vec(0u8..255, 1..20),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn prop_map_applies(d in (0i32..100).prop_map(|v| v * 2)) {
            prop_assert_eq!(d % 2, 0);
            prop_assert!(d < 200);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0, "only even cases survive the assumption");
        }

        #[test]
        fn index_resolves_in_range(pos in any::<prop::sample::Index>()) {
            prop_assert!(pos.index(7) < 7);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = prop::collection::vec(-1.0f64..1.0, 4);
        let mut a = crate::TestRng::new(9);
        let mut b = crate::TestRng::new(9);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }
}
