//! The generic saturating fixed-point scalar.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// A signed 32-bit fixed-point number with `FRAC` fractional bits.
///
/// The raw representation is an `i32` interpreted as `raw / 2^FRAC`. The
/// paper's state format is `Fx<16>` (Q16.16): high 16 bits integer part used
/// as the LUT index, low 16 bits fractional part used as the Taylor-series
/// offset (§4.1).
///
/// All arithmetic saturates at [`Fx::MAX`]/[`Fx::MIN`]; division by zero
/// saturates toward the sign of the numerator (hardware divider behaviour).
///
/// # Examples
///
/// ```
/// use fixedpt::Fx;
///
/// let x: Fx<16> = Fx::from_f64(3.75);
/// assert_eq!(x.int_part(), 3);
/// assert_eq!(x.frac_bits_raw(), 0xC000);
/// assert_eq!((x + x).to_f64(), 7.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx<const FRAC: u32>(i32);

impl<const FRAC: u32> Fx<FRAC> {
    // Compile-time check: FRAC must leave at least one integer bit + sign.
    const _VALID: () = assert!(FRAC >= 1 && FRAC <= 30, "FRAC must be in 1..=30");

    /// The additive identity.
    pub const ZERO: Self = Self(0);
    /// The multiplicative identity.
    pub const ONE: Self = Self(1 << FRAC);
    /// Negative one.
    pub const NEG_ONE: Self = Self(-(1 << FRAC));
    /// Largest representable value, `(2^31 - 1) / 2^FRAC`.
    pub const MAX: Self = Self(i32::MAX);
    /// Smallest (most negative) representable value.
    pub const MIN: Self = Self(i32::MIN);
    /// Smallest positive increment, `2^-FRAC` (one ULP).
    pub const EPSILON: Self = Self(1);
    /// Number of fractional bits in this format.
    pub const FRAC_BITS: u32 = FRAC;
    /// Number of integer bits (excluding sign).
    pub const INT_BITS: u32 = 31 - FRAC;

    /// Creates a value from its raw two's-complement bit pattern.
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Self(bits)
    }

    /// Returns the raw two's-complement bit pattern.
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Creates a value from an integer, saturating on overflow.
    ///
    /// ```
    /// use fixedpt::Q16_16;
    /// assert_eq!(Q16_16::from_int(7).to_f64(), 7.0);
    /// assert_eq!(Q16_16::from_int(1 << 20), Q16_16::MAX); // saturates
    /// ```
    #[inline]
    pub const fn from_int(i: i32) -> Self {
        let wide = (i as i64) << FRAC;
        Self(saturate64(wide))
    }

    /// Converts from `f64`, rounding to nearest and saturating.
    ///
    /// Non-finite inputs saturate: `NaN` maps to zero, `±inf` to `MAX`/`MIN`.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Self::ZERO;
        }
        let scaled = v * (1i64 << FRAC) as f64;
        if scaled >= i32::MAX as f64 {
            Self::MAX
        } else if scaled <= i32::MIN as f64 {
            Self::MIN
        } else {
            // Round half away from zero, as `f64::round`, without the libm
            // call: |scaled| < 2^31, so the truncation and the fractional
            // remainder are both exact.
            let t = scaled as i64;
            let frac = scaled - t as f64;
            let r = if frac >= 0.5 {
                t + 1
            } else if frac <= -0.5 {
                t - 1
            } else {
                t
            };
            Self(r as i32)
        }
    }

    /// Converts from `f32`, rounding to nearest and saturating.
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        Self::from_f64(v as f64)
    }

    /// Converts to `f64` exactly (every `Fx` is representable in `f64`).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i64 << FRAC) as f64
    }

    /// Converts to `f32` (may round).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// The integer part, truncated toward negative infinity (arithmetic
    /// shift), i.e. `floor(x)`. This is the LUT look-up index of §4.1:
    /// the "higher 16 bits" of a Q16.16 state.
    #[inline]
    pub const fn int_part(self) -> i32 {
        self.0 >> FRAC
    }

    /// The raw fractional bits (always non-negative, `< 2^FRAC`).
    ///
    /// A zero value means the state sits exactly on a LUT sample point and
    /// the PE may use the stored `l(p)` directly (§4.1).
    #[inline]
    pub const fn frac_bits_raw(self) -> u32 {
        (self.0 as u32) & ((1u32 << FRAC) - 1)
    }

    /// The fractional part as a value in `[0, 1)`: `x - floor(x)`.
    #[inline]
    pub const fn fract(self) -> Self {
        Self(self.frac_bits_raw() as i32)
    }

    /// `floor(x)` as a fixed-point value.
    #[inline]
    pub const fn floor(self) -> Self {
        Self(self.0 & !(((1u32 << FRAC) - 1) as i32))
    }

    /// `ceil(x)` as a fixed-point value, saturating.
    #[inline]
    pub fn ceil(self) -> Self {
        if self.frac_bits_raw() == 0 {
            self
        } else {
            self.floor().saturating_add(Self::ONE)
        }
    }

    /// Rounds to the nearest integer value (ties away from zero), saturating.
    #[inline]
    pub fn round(self) -> Self {
        let half = 1i64 << (FRAC - 1);
        let bias = if self.0 >= 0 { half } else { -half };
        let wide = ((self.0 as i64 + bias) >> FRAC) << FRAC;
        Self(saturate64(wide))
    }

    /// Absolute value, saturating (`|MIN|` clamps to `MAX`).
    #[inline]
    pub const fn abs(self) -> Self {
        if self.0 == i32::MIN {
            Self::MAX
        } else if self.0 < 0 {
            Self(-self.0)
        } else {
            self
        }
    }

    /// Returns `-1`, `0` or `1` as a fixed-point value.
    #[inline]
    pub const fn signum(self) -> Self {
        if self.0 > 0 {
            Self::ONE
        } else if self.0 < 0 {
            Self::NEG_ONE
        } else {
            Self::ZERO
        }
    }

    /// `true` if the value is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` if the value is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication with round-to-nearest, the PE MAC behaviour.
    #[inline]
    pub const fn saturating_mul(self, rhs: Self) -> Self {
        let prod = self.0 as i64 * rhs.0 as i64;
        // Round to nearest: add half-ULP of the result before shifting.
        let rounded = (prod + (1i64 << (FRAC - 1))) >> FRAC;
        Self(saturate64(rounded))
    }

    /// Saturating division; division by zero saturates toward the sign of
    /// the numerator (0/0 yields zero).
    #[inline]
    pub const fn saturating_div(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            return if self.0 > 0 {
                Self::MAX
            } else if self.0 < 0 {
                Self::MIN
            } else {
                Self::ZERO
            };
        }
        let num = (self.0 as i64) << FRAC;
        Self(saturate64(num / rhs.0 as i64))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Self) -> Option<Self> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Self(v)),
            None => None,
        }
    }

    /// Checked multiplication; `None` on overflow.
    #[inline]
    pub const fn checked_mul(self, rhs: Self) -> Option<Self> {
        let prod = self.0 as i64 * rhs.0 as i64;
        let rounded = (prod + (1i64 << (FRAC - 1))) >> FRAC;
        if rounded > i32::MAX as i64 || rounded < i32::MIN as i64 {
            None
        } else {
            Some(Self(rounded as i32))
        }
    }

    /// The smaller of two values.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// The larger of two values.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "clamp: lo > hi");
        self.max(lo).min(hi)
    }

    /// The standard CeNN output nonlinearity of eq. (2):
    /// `f(x) = clamp(x, -1, 1)` — a unity-gain saturation.
    ///
    /// ```
    /// use fixedpt::Q16_16;
    /// assert_eq!(Q16_16::from_f64(3.0).cenn_output().to_f64(), 1.0);
    /// assert_eq!(Q16_16::from_f64(-0.5).cenn_output().to_f64(), -0.5);
    /// ```
    #[inline]
    pub fn cenn_output(self) -> Self {
        self.clamp(Self::NEG_ONE, Self::ONE)
    }

    /// Linear interpolation `self + t * (other - self)` with a single
    /// rounding, used by LUT refinement paths.
    #[inline]
    pub fn lerp(self, other: Self, t: Self) -> Self {
        let diff = other.saturating_sub(self);
        self.saturating_add(diff.saturating_mul(t))
    }

    /// Reinterprets the value in a different Q format, shifting and rounding
    /// as needed (saturates when the target has fewer integer bits).
    #[inline]
    pub fn convert<const TO: u32>(self) -> Fx<TO> {
        if TO == FRAC {
            Fx::<TO>::from_bits(self.0)
        } else if TO > FRAC {
            Fx::<TO>::from_bits(saturate64((self.0 as i64) << (TO - FRAC)))
        } else {
            let shift = FRAC - TO;
            let bias = 1i64 << (shift - 1);
            Fx::<TO>::from_bits(saturate64((self.0 as i64 + bias) >> shift))
        }
    }
}

#[inline]
const fn saturate64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

impl<const FRAC: u32> Add for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.saturating_add(rhs)
    }
}

impl<const FRAC: u32> Sub for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }
}

impl<const FRAC: u32> Mul for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.saturating_mul(rhs)
    }
}

impl<const FRAC: u32> Div for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.saturating_div(rhs)
    }
}

impl<const FRAC: u32> Rem for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn rem(self, rhs: Self) -> Self {
        if rhs.0 == 0 {
            Self::ZERO
        } else {
            Self(self.0 % rhs.0)
        }
    }
}

impl<const FRAC: u32> Neg for Fx<FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self(self.0.saturating_neg())
    }
}

impl<const FRAC: u32> AddAssign for Fx<FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const FRAC: u32> SubAssign for Fx<FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const FRAC: u32> MulAssign for Fx<FRAC> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const FRAC: u32> DivAssign for Fx<FRAC> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<const FRAC: u32> Sum for Fx<FRAC> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl<const FRAC: u32> From<i16> for Fx<FRAC> {
    /// Converts an `i16` integer; always exact for `FRAC <= 15`, saturating
    /// otherwise only if the integer exceeds the format range.
    fn from(v: i16) -> Self {
        Self::from_int(v as i32)
    }
}

impl<const FRAC: u32> fmt::Debug for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx<{}>({})", FRAC, self.to_f64())
    }
}

impl<const FRAC: u32> fmt::Display for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl<const FRAC: u32> fmt::LowerHex for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&(self.0 as u32), f)
    }
}

impl<const FRAC: u32> fmt::Binary for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&(self.0 as u32), f)
    }
}

/// Error returned when parsing an [`Fx`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFxError {
    kind: std::num::ParseFloatError,
}

impl fmt::Display for ParseFxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fixed-point literal: {}", self.kind)
    }
}

impl std::error::Error for ParseFxError {}

impl<const FRAC: u32> FromStr for Fx<FRAC> {
    type Err = ParseFxError;

    /// Parses a decimal literal (e.g. `"-2.5"`), rounding to the nearest
    /// representable value.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let v: f64 = s.parse().map_err(|kind| ParseFxError { kind })?;
        Ok(Self::from_f64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q = Fx<16>;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(Q::ZERO.to_f64(), 0.0);
        assert_eq!(Q::ONE.to_f64(), 1.0);
        assert_eq!(Q::NEG_ONE.to_f64(), -1.0);
        assert_eq!(Q::EPSILON.to_f64(), 1.0 / 65536.0);
        assert_eq!(Q::INT_BITS, 15);
    }

    #[test]
    fn f64_round_trip_is_exact_for_representable() {
        for v in [0.0, 1.0, -1.0, 0.5, -0.25, 123.125, -4096.0078125] {
            assert_eq!(Q::from_f64(v).to_f64(), v, "round-trip {v}");
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 2^-17 is half an ULP: rounds away from zero.
        let half_ulp = 1.0 / 131072.0;
        assert_eq!(Q::from_f64(half_ulp).to_bits(), 1);
        assert_eq!(Q::from_f64(-half_ulp).to_bits(), -1);
        // Quarter ULP rounds to zero.
        assert_eq!(Q::from_f64(half_ulp / 2.0).to_bits(), 0);
    }

    #[test]
    fn from_f64_saturates_and_handles_non_finite() {
        assert_eq!(Q::from_f64(1e9), Q::MAX);
        assert_eq!(Q::from_f64(-1e9), Q::MIN);
        assert_eq!(Q::from_f64(f64::INFINITY), Q::MAX);
        assert_eq!(Q::from_f64(f64::NEG_INFINITY), Q::MIN);
        assert_eq!(Q::from_f64(f64::NAN), Q::ZERO);
    }

    #[test]
    fn int_part_is_floor() {
        assert_eq!(Q::from_f64(3.75).int_part(), 3);
        assert_eq!(Q::from_f64(-3.75).int_part(), -4);
        assert_eq!(Q::from_f64(0.0).int_part(), 0);
        assert_eq!(Q::from_f64(-0.5).int_part(), -1);
    }

    #[test]
    fn frac_bits_raw_matches_low_half() {
        assert_eq!(Q::from_f64(3.5).frac_bits_raw(), 0x8000);
        assert_eq!(Q::from_f64(7.0).frac_bits_raw(), 0);
        // Negative value: two's complement low bits.
        assert_eq!(Q::from_f64(-0.5).frac_bits_raw(), 0x8000);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(Q::from_f64(2.3).floor().to_f64(), 2.0);
        assert_eq!(Q::from_f64(-2.3).floor().to_f64(), -3.0);
        assert_eq!(Q::from_f64(2.3).ceil().to_f64(), 3.0);
        assert_eq!(Q::from_f64(-2.3).ceil().to_f64(), -2.0);
        assert_eq!(Q::from_f64(2.0).ceil().to_f64(), 2.0);
        assert_eq!(Q::from_f64(2.5).round().to_f64(), 3.0);
        assert_eq!(Q::from_f64(-2.5).round().to_f64(), -3.0);
        assert_eq!(Q::from_f64(2.4).round().to_f64(), 2.0);
    }

    #[test]
    fn saturating_arithmetic_clamps() {
        assert_eq!(Q::MAX + Q::ONE, Q::MAX);
        assert_eq!(Q::MIN - Q::ONE, Q::MIN);
        assert_eq!(Q::MAX * Q::from_int(2), Q::MAX);
        assert_eq!(Q::MIN * Q::from_int(2), Q::MIN);
        assert_eq!(Q::MAX * Q::NEG_ONE, Q::from_bits(-i32::MAX));
    }

    #[test]
    fn mul_rounds_to_nearest() {
        // 1.5 * epsilon = 1.5 ulp, rounds to 2 ulp.
        let x = Q::from_f64(1.5);
        assert_eq!((x * Q::EPSILON).to_bits(), 2);
    }

    #[test]
    fn division_behaviour() {
        let six = Q::from_int(6);
        let two = Q::from_int(2);
        assert_eq!((six / two).to_f64(), 3.0);
        assert_eq!((six / Q::ZERO), Q::MAX);
        assert_eq!((-six / Q::ZERO), Q::MIN);
        assert_eq!((Q::ZERO / Q::ZERO), Q::ZERO);
        assert_eq!((Q::ONE / Q::from_int(3)).to_bits(), 65536 / 3);
    }

    #[test]
    fn checked_ops_report_overflow() {
        assert_eq!(Q::MAX.checked_add(Q::EPSILON), None);
        assert!(Q::ONE.checked_add(Q::ONE).is_some());
        assert_eq!(Q::from_int(30000).checked_mul(Q::from_int(30000)), None);
        assert_eq!(
            Q::from_int(3).checked_mul(Q::from_int(4)),
            Some(Q::from_int(12))
        );
    }

    #[test]
    fn abs_and_signum() {
        assert_eq!(Q::from_f64(-2.5).abs().to_f64(), 2.5);
        assert_eq!(Q::MIN.abs(), Q::MAX);
        assert_eq!(Q::from_f64(-0.1).signum(), Q::NEG_ONE);
        assert_eq!(Q::from_f64(0.1).signum(), Q::ONE);
        assert_eq!(Q::ZERO.signum(), Q::ZERO);
    }

    #[test]
    fn cenn_output_clamps_to_unit_interval() {
        assert_eq!(Q::from_f64(2.0).cenn_output().to_f64(), 1.0);
        assert_eq!(Q::from_f64(-2.0).cenn_output().to_f64(), -1.0);
        assert_eq!(
            Q::from_f64(0.3).cenn_output().to_f64(),
            Q::from_f64(0.3).to_f64()
        );
    }

    #[test]
    fn neg_saturates_min() {
        assert_eq!(-Q::MIN, Q::MAX);
        assert_eq!((-Q::ONE).to_f64(), -1.0);
    }

    #[test]
    fn ordering_and_min_max_clamp() {
        let a = Q::from_f64(1.0);
        let b = Q::from_f64(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Q::from_f64(5.0).clamp(a, b), b);
        assert_eq!(Q::from_f64(-5.0).clamp(a, b), a);
        assert_eq!(Q::from_f64(1.5).clamp(a, b).to_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "clamp: lo > hi")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Q::ZERO.clamp(Q::ONE, Q::NEG_ONE);
    }

    #[test]
    fn format_conversion_preserves_value() {
        let x: Fx<16> = Fx::from_f64(1.25);
        let y: Fx<24> = x.convert();
        assert_eq!(y.to_f64(), 1.25);
        let z: Fx<8> = x.convert();
        assert_eq!(z.to_f64(), 1.25);
        // Down-conversion saturates on range overflow.
        let big: Fx<8> = Fx::from_f64(100_000.0);
        let clipped: Fx<16> = big.convert();
        assert_eq!(clipped, Fx::<16>::MAX);
    }

    #[test]
    fn parse_and_display() {
        let x: Q = "-2.5".parse().unwrap();
        assert_eq!(x.to_f64(), -2.5);
        assert_eq!(format!("{x}"), "-2.5");
        assert!("abc".parse::<Q>().is_err());
        let err = "abc".parse::<Q>().unwrap_err();
        assert!(format!("{err}").contains("invalid fixed-point literal"));
    }

    #[test]
    fn debug_is_nonempty_and_informative() {
        let s = format!("{:?}", Q::from_f64(0.5));
        assert_eq!(s, "Fx<16>(0.5)");
    }

    #[test]
    fn hex_binary_formatting() {
        let x = Q::ONE;
        assert_eq!(format!("{x:x}"), "10000");
        assert_eq!(format!("{:b}", Q::from_bits(5)), "101");
    }

    #[test]
    fn lerp_midpoint() {
        let a = Q::from_f64(1.0);
        let b = Q::from_f64(3.0);
        assert_eq!(a.lerp(b, Q::from_f64(0.5)).to_f64(), 2.0);
        assert_eq!(a.lerp(b, Q::ZERO), a);
        assert_eq!(a.lerp(b, Q::ONE), b);
    }

    #[test]
    fn sum_folds_saturating() {
        let total: Q = (0..10).map(Q::from_int).sum();
        assert_eq!(total.to_f64(), 45.0);
    }

    #[test]
    fn rem_behaviour() {
        let x = Q::from_f64(5.5);
        let y = Q::from_f64(2.0);
        assert_eq!((x % y).to_f64(), 1.5);
        assert_eq!((x % Q::ZERO), Q::ZERO);
    }
}
