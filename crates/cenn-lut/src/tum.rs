//! The Template Update Module (TUM) datapath.

use crate::entry::{LutEntry, SampleIdx};
use crate::func::NonlinearFn;
use fixedpt::Q16_16;

/// Fixed-point evaluation datapath of the Template Update Module attached
/// to each PE (Fig. 6, Table 1).
///
/// Given a fetched [`LutEntry`] and the current cell state, the TUM either
/// forwards the exact stored `l(p)` (when the state's sub-sample bits are
/// all zero, §4.1) or evaluates the degree-3 Taylor polynomial in Horner
/// form with three fixed-point MACs:
///
/// ```text
/// l(x) ≈ l(p) + δ·(a₁ + δ·(a₂ + δ·a₃)),   δ = x − p ∈ [0, spacing)
/// ```
///
/// The TUM keeps no state. Its op counts follow from
/// [`crate::LutStats`]: `exact_hits` evaluations forward `l(p)`, and the
/// other `accesses − exact_hits` take three MACs each.
///
/// Each product is `Q16_16`'s rounded multiply without its clamp: since
/// `0 ≤ δ < 2¹⁶`, `(acc·δ + 2¹⁵) >> 16` always lies between 0 and `acc`.
/// The adds saturate unless the caller passes `exact_adds`, which it may
/// only do for an entry whose [`LutEntry::adds_exact`] holds; the adds
/// are then plain `i32` adds with the saturating form's bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tum;

/// Result of one TUM evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TumEval {
    /// The approximated function value `l(x)`.
    pub value: Q16_16,
    /// `true` if the exact stored `l(p)` was used (no Taylor MACs).
    pub exact: bool,
}

impl Tum {
    /// Evaluates the entry at state `x` with sample spacing
    /// `2^-log2_inv_spacing`, with plain adds if `exact_adds` (only for an
    /// entry whose [`LutEntry::adds_exact`] holds) and saturating ones
    /// otherwise.
    #[inline]
    pub fn eval(entry: LutEntry, x: Q16_16, log2_inv_spacing: u32, exact_adds: bool) -> TumEval {
        let delta = Self::delta(x, log2_inv_spacing);
        if delta.is_zero() {
            return TumEval {
                value: entry.l_p,
                exact: true,
            };
        }
        // Horner evaluation: 3 MACs, mirroring the TUM ALU.
        let d = delta.to_bits();
        let [l_p, a1, a2, a3] = [entry.l_p, entry.a1, entry.a2, entry.a3].map(Q16_16::to_bits);
        let value = if exact_adds {
            let acc = Self::product(a3, d) + a2;
            let acc = Self::product(acc, d) + a1;
            Self::product(acc, d) + l_p
        } else {
            let acc = Self::product(a3, d).saturating_add(a2);
            let acc = Self::product(acc, d).saturating_add(a1);
            Self::product(acc, d).saturating_add(l_p)
        };
        TumEval {
            value: Q16_16::from_bits(value),
            exact: false,
        }
    }

    /// The rounded product `acc·δ` of raw Q16.16 words, for
    /// `0 ≤ δ < 2¹⁶`: it lies between 0 and `acc`, so it is `Q16_16`'s
    /// saturating multiply with a clamp that never fires.
    #[inline]
    pub fn product(acc: i32, delta: i32) -> i32 {
        debug_assert!((0..1 << Q16_16::FRAC_BITS).contains(&delta));
        let half = 1i64 << (Q16_16::FRAC_BITS - 1);
        ((i64::from(acc) * i64::from(delta) + half) >> Q16_16::FRAC_BITS) as i32
    }

    /// The sub-sample offset `δ = x − p` for the given spacing, extracted
    /// by masking the low fixed-point bits (a zero-cost hardware operation).
    #[inline]
    pub fn delta(x: Q16_16, log2_inv_spacing: u32) -> Q16_16 {
        let low_bits = Q16_16::FRAC_BITS - log2_inv_spacing;
        let mask = ((1i64 << low_bits) - 1) as i32;
        Q16_16::from_bits(x.to_bits() & mask)
    }
}

/// The eq. (10) template decomposition `l(φ) ≈ α(φ)·φ + c₃` with
/// `α = c₀ + c₁φ + c₂φ²`, computed in double precision from the function's
/// derivatives at sample point `p`.
///
/// This is the paper's presentation of the nonlinear template; it is
/// algebraically equivalent to the offset Taylor form the [`Tum`] evaluates
/// (see [`crate::LutEntry`] for why the datapath uses the latter). Exposed
/// for tests, documentation and the `fig8_dataflow` analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaC3 {
    /// `c₀` of eq. (10).
    pub c0: f64,
    /// `c₁` of eq. (10).
    pub c1: f64,
    /// `c₂` of eq. (10).
    pub c2: f64,
    /// `c₃` of eq. (10) (the offset absorbed into `z`).
    pub c3: f64,
}

impl AlphaC3 {
    /// Derives the coefficients for `func` expanded around `p`, following
    /// eq. (10) with `l⁽ᵏ⁾` interpreted as the k-th Taylor *coefficient*
    /// (`l⁽ᵏ⁾/k!`), which is the only reading under which eq. (9) is the
    /// Taylor series of `l`.
    pub fn around(func: &NonlinearFn, p: f64) -> Self {
        let t = func.taylor(p); // [l(p), a1, a2, a3]
        let (l, d1, d2, d3) = (t[0], t[1], t[2], t[3]);
        Self {
            c0: d1 - 2.0 * p * d2 + 3.0 * p * p * d3,
            c1: d2 - 3.0 * p * d3,
            c2: d3,
            c3: l - p * d1 + p * p * d2 - p * p * p * d3,
        }
    }

    /// Evaluates `α(φ) = c₀ + c₁φ + c₂φ²`.
    pub fn alpha(&self, phi: f64) -> f64 {
        self.c0 + phi * (self.c1 + phi * self.c2)
    }

    /// Evaluates the full approximation `α(φ)·φ + c₃`.
    pub fn value(&self, phi: f64) -> f64 {
        self.alpha(phi) * phi + self.c3
    }

    /// The sample index this expansion belongs to at unit spacing.
    pub fn sample(p: f64) -> SampleIdx {
        SampleIdx(p.floor() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs;

    #[test]
    fn exact_path_taken_on_sample_points() {
        let entry = LutEntry::quantize(2.5, 1.0, 0.5, 0.1);
        let r = Tum::eval(entry, Q16_16::from_f64(3.0), 0, entry.adds_exact());
        assert!(r.exact);
        assert_eq!(r.value.to_f64(), 2.5);
    }

    #[test]
    fn taylor_path_uses_three_macs() {
        let entry = LutEntry::quantize(1.0, 2.0, 0.0, 0.0);
        // l(x) ~ 1 + 2*(x - 3) at x = 3.5 -> 2.0
        let r = Tum::eval(entry, Q16_16::from_f64(3.5), 0, entry.adds_exact());
        assert!(!r.exact);
        assert!((r.value.to_f64() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn plain_adds_hold_up_to_the_bound_at_the_widest_offset() {
        // Words whose magnitudes sum to exactly i32::MAX, all of one sign,
        // at the largest unit-spacing offset: every partial sum stays in
        // range (a debug build would panic otherwise), and one more ULP
        // takes the entry past the bound.
        let x = Q16_16::from_bits(0xffff);
        for sign in [1, -1] {
            let w = |v: i32| Q16_16::from_bits(sign * v);
            let (big, rest) = (1 << 29, (1 << 29) - 1);
            let e = LutEntry {
                l_p: w(rest),
                a1: w(big),
                a2: w(big),
                a3: w(big),
            };
            assert!(e.adds_exact());
            let plain = Tum::eval(e, x, 0, true);
            assert_eq!(plain, Tum::eval(e, x, 0, false));
            assert_eq!(plain.value.to_bits().signum(), sign);
            let past = LutEntry {
                l_p: w(rest + 1),
                ..e
            };
            assert!(!past.adds_exact());
        }
    }

    #[test]
    fn delta_handles_negative_states() {
        // x = -2.25 -> p = -3, delta = 0.75
        let d = Tum::delta(Q16_16::from_f64(-2.25), 0);
        assert_eq!(d.to_f64(), 0.75);
        // With half spacing: p = -2.5, delta = 0.25
        let d = Tum::delta(Q16_16::from_f64(-2.25), 1);
        assert_eq!(d.to_f64(), 0.25);
    }

    #[test]
    fn tum_matches_reference_within_lut_error() {
        let f = funcs::tanh();
        for i in -30..30 {
            let x = i as f64 * 0.13;
            let p = x.floor();
            let t = f.taylor(p);
            let entry = LutEntry::quantize(t[0], t[1], t[2], t[3]);
            let got = Tum::eval(entry, Q16_16::from_f64(x), 0, entry.adds_exact())
                .value
                .to_f64();
            let want = f.value(x);
            // Worst case for unit spacing is the cubic truncation term near
            // delta -> 1 (~0.06 for tanh); finer spacing shrinks it as 2^-4s.
            assert!((got - want).abs() < 0.08, "tanh({x}): {got} vs {want}");
        }
    }

    #[test]
    fn alpha_c3_equals_offset_taylor() {
        // The absorbed-p decomposition must agree with the offset form in
        // exact arithmetic.
        let f = funcs::cube();
        let p = 2.0;
        let dec = AlphaC3::around(&f, p);
        for phi in [2.0, 2.25, 2.5, 2.99] {
            let d = phi - p;
            let t = f.taylor(p);
            let offset_form = t[0] + d * (t[1] + d * (t[2] + d * t[3]));
            assert!(
                (dec.value(phi) - offset_form).abs() < 1e-9,
                "phi={phi}: {} vs {offset_form}",
                dec.value(phi)
            );
            // cube is exactly degree 3, so both equal x^3.
            assert!((dec.value(phi) - phi.powi(3)).abs() < 1e-9);
        }
    }

    #[test]
    fn alpha_c3_matches_paper_structure_for_linear() {
        // For l(x) = a*x + b: c0 = a, c1 = c2 = 0, c3 = b.
        let f = funcs::affine(3.0, -1.5);
        let dec = AlphaC3::around(&f, 5.0);
        assert!((dec.c0 - 3.0).abs() < 1e-9);
        assert!(dec.c1.abs() < 1e-9);
        assert!(dec.c2.abs() < 1e-9);
        assert!((dec.c3 + 1.5).abs() < 1e-9);
    }
}
