//! Property-based tests for the fixed-point arithmetic invariants the
//! solver datapath relies on.

use fixedpt::{Fx, MacAcc, Q16_16};
use proptest::prelude::*;

/// Strategy: arbitrary Q16.16 bit patterns.
fn any_fx() -> impl Strategy<Value = Q16_16> {
    any::<i32>().prop_map(Q16_16::from_bits)
}

/// `from_f64` as it was written with the libm `round`: the reference the
/// branch-free rounding must match bit for bit.
fn from_f64_reference(v: f64) -> Q16_16 {
    if v.is_nan() {
        return Q16_16::ZERO;
    }
    let scaled = v * 65536.0;
    if scaled >= i32::MAX as f64 {
        Q16_16::MAX
    } else if scaled <= i32::MIN as f64 {
        Q16_16::MIN
    } else {
        Q16_16::from_bits(scaled.round() as i32)
    }
}

/// Strategy: Q16.16 values in a "safe" range where ops cannot saturate.
fn small_fx() -> impl Strategy<Value = Q16_16> {
    (-1_000_000i32..=1_000_000).prop_map(Q16_16::from_bits)
}

proptest! {
    #[test]
    fn f64_round_trip_within_half_ulp(v in -30000.0f64..30000.0) {
        let x = Q16_16::from_f64(v);
        let back = x.to_f64();
        prop_assert!((back - v).abs() <= 0.5 / 65536.0 + 1e-12);
    }

    #[test]
    fn addition_commutes(a in any_fx(), b in any_fx()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn multiplication_commutes(a in any_fx(), b in any_fx()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn addition_associates_when_unsaturated(a in small_fx(), b in small_fx(), c in small_fx()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn neg_is_additive_inverse_when_unsaturated(a in small_fx()) {
        prop_assert_eq!(a + (-a), Q16_16::ZERO);
    }

    #[test]
    fn results_stay_in_range(a in any_fx(), b in any_fx()) {
        // Saturating ops can never wrap: the result is always ordered
        // between MIN and MAX (trivially true for i32, but guards against
        // accidental wrapping arithmetic slipping in).
        for v in [a + b, a - b, a * b, a / b, -a, a.abs()] {
            prop_assert!(Q16_16::MIN <= v && v <= Q16_16::MAX);
        }
    }

    #[test]
    fn mul_matches_f64_within_one_ulp(a in small_fx(), b in small_fx()) {
        let exact = a.to_f64() * b.to_f64();
        let got = (a * b).to_f64();
        prop_assert!((got - exact).abs() <= 1.0 / 65536.0, "{got} vs {exact}");
    }

    #[test]
    fn ordering_is_preserved_by_to_f64(a in any_fx(), b in any_fx()) {
        prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
    }

    #[test]
    fn int_part_is_floor_of_value(a in any_fx()) {
        prop_assert_eq!(a.int_part(), a.to_f64().floor() as i32);
    }

    #[test]
    fn floor_plus_fract_reconstructs(a in any_fx()) {
        prop_assert_eq!(a.floor().saturating_add(a.fract()), a);
    }

    #[test]
    fn cenn_output_is_idempotent_and_bounded(a in any_fx()) {
        let y = a.cenn_output();
        prop_assert_eq!(y.cenn_output(), y);
        prop_assert!(Q16_16::NEG_ONE <= y && y <= Q16_16::ONE);
    }

    #[test]
    fn clamp_is_within_bounds(a in any_fx(), lo in small_fx(), hi in small_fx()) {
        prop_assume!(lo <= hi);
        let c = a.clamp(lo, hi);
        prop_assert!(lo <= c && c <= hi);
    }

    #[test]
    fn convert_widening_is_lossless_in_range(raw in -100_000i32..=100_000) {
        let a = Q16_16::from_bits(raw);
        let wide: Fx<24> = a.convert();
        let back: Q16_16 = wide.convert();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn mac_accumulator_matches_f64_for_small_sums(
        pairs in prop::collection::vec((small_fx(), small_fx()), 1..40)
    ) {
        let mut acc = MacAcc::<16>::new();
        let mut exact = 0.0f64;
        for (a, b) in &pairs {
            acc.mac(*a, *b);
            exact += a.to_f64() * b.to_f64();
        }
        let got = acc.resolve().to_f64();
        // One rounding at the end: within half an output ULP of exact.
        prop_assert!((got - exact).abs() <= 0.5 / 65536.0 + 1e-9, "{got} vs {exact}");
    }

    #[test]
    fn checked_mul_agrees_with_saturating(a in any_fx(), b in any_fx()) {
        match a.checked_mul(b) {
            Some(v) => prop_assert_eq!(v, a * b),
            None => {
                let s = a * b;
                prop_assert!(s == Q16_16::MAX || s == Q16_16::MIN);
            }
        }
    }

    #[test]
    fn parse_display_round_trip(a in small_fx()) {
        let s = a.to_string();
        let back: Q16_16 = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn from_f64_matches_libm_round_on_any_bits(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(Q16_16::from_f64(v), from_f64_reference(v), "{v:e}");
    }

    #[test]
    fn from_f64_matches_libm_round_near_half_ulps(k in -70_000i64..70_000, nudge in -3i64..=3) {
        // The half-ULP boundary (k + 1/2) / 65536 and its f64 neighbours.
        let mid = (k as f64 + 0.5) / 65536.0;
        let v = f64::from_bits((mid.to_bits() as i64 + nudge) as u64);
        prop_assert_eq!(Q16_16::from_f64(v), from_f64_reference(v), "{v:e}");
        prop_assert_eq!(Q16_16::from_f64(-v), from_f64_reference(-v), "{:e}", -v);
    }
}

#[test]
fn from_f64_matches_libm_round_at_rails_and_specials() {
    let rail = i32::MAX as f64 / 65536.0;
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(1 | 1 << 63),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN,
        rail,
        -rail,
        rail - 1.0 / 65536.0,
        -rail - 1.0 / 65536.0,
        (i32::MAX as f64 - 0.5) / 65536.0,
        (i32::MIN as f64 + 0.5) / 65536.0,
    ];
    for v in specials {
        for x in [
            v,
            f64::from_bits(v.to_bits().wrapping_add(1)),
            f64::from_bits(v.to_bits().wrapping_sub(1)),
        ] {
            assert_eq!(Q16_16::from_f64(x), from_f64_reference(x), "{x:e}");
        }
    }
}
