//! The LUT data format of Fig. 5.

use fixedpt::Q16_16;

/// Size of one stored LUT entry in bytes.
///
/// Four 32-bit fixed-point words — `{l(p), a₁, a₂, a₃}` — which is exactly
/// why an L2 line of 64 bytes "contains four look-up data" (§6.5).
pub const LUT_ENTRY_BYTES: usize = 16;

/// Index of a sample point in the off-chip LUT.
///
/// With the default unit spacing this is `floor(x)`, i.e. the high 16 bits
/// of the Q16.16 state (§4.1: "multi-bit XNOR operation between higher 16
/// bits ... and index in L1 LUT"). With spacing `2^-s` it is
/// `floor(x · 2^s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SampleIdx(pub i32);

impl SampleIdx {
    /// Derives the sample index for a state value under `2^-log2_inv`
    /// spacing by shifting the raw fixed-point bits (the hardware indexer is
    /// a plain shifter).
    #[inline]
    pub fn of(x: Q16_16, log2_inv_spacing: u32) -> Self {
        debug_assert!(log2_inv_spacing <= Q16_16::FRAC_BITS);
        SampleIdx(x.to_bits() >> (Q16_16::FRAC_BITS - log2_inv_spacing))
    }

    /// The sample point `p` this index refers to, as an `f64`.
    #[inline]
    pub fn point(self, log2_inv_spacing: u32) -> f64 {
        self.0 as f64 / (1u64 << log2_inv_spacing) as f64
    }
}

/// One stored look-up entry: the exact function value at the sample point
/// and the first three Taylor *coefficients* around it.
///
/// The paper's Fig. 5 tuple is `{l(p), c₀, c₁, c₂, c₃ − l(p)}` where the
/// `c`'s are the eq. (10) decomposition `l(φ) ≈ α(φ)·φ + c₃` with
/// `α = c₀ + c₁φ + c₂φ²`. That decomposition is algebraically identical to
/// the offset Taylor form
///
/// ```text
/// l(φ) ≈ l(p) + a₁·δ + a₂·δ² + a₃·δ³,   δ = φ − p,   aₖ = l⁽ᵏ⁾(p)/k!
/// ```
///
/// which we store instead because it is numerically well-conditioned in
/// 32-bit fixed point (the absorbed-`p` form requires words proportional to
/// `p²·l⁗` and overflows Q16.16 for modest `p`). The [`crate::Tum`] can
/// recover `(α, c₃)` for any entry, so both views are available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LutEntry {
    /// Exact value `l(p)` at the sample point (used directly when the state
    /// has a zero fractional part, §4.1).
    pub l_p: Q16_16,
    /// First Taylor coefficient `l′(p)`.
    pub a1: Q16_16,
    /// Second Taylor coefficient `l″(p)/2`.
    pub a2: Q16_16,
    /// Third Taylor coefficient `l‴(p)/6`.
    pub a3: Q16_16,
}

impl LutEntry {
    /// Builds an entry by quantizing `f64` coefficients to Q16.16 — the
    /// quantization applied when the off-chip table is generated, and one of
    /// the two error sources the paper separates in §6.1.
    pub fn quantize(l_p: f64, a1: f64, a2: f64, a3: f64) -> Self {
        Self {
            l_p: Q16_16::from_f64(l_p),
            a1: Q16_16::from_f64(a1),
            a2: Q16_16::from_f64(a2),
            a3: Q16_16::from_f64(a3),
        }
    }

    /// `true` if `|a₃| + |a₂| + |a₁| + |l(p)| ≤ i32::MAX`: each Horner
    /// product lies between 0 and its accumulator ([`crate::Tum`]), so no
    /// partial sum of the evaluation can then leave `i32`, and the TUM's
    /// three adds are exact without saturation.
    pub fn adds_exact(&self) -> bool {
        let mag = |v: Q16_16| u64::from(v.to_bits().unsigned_abs());
        mag(self.l_p) + mag(self.a1) + mag(self.a2) + mag(self.a3) <= i32::MAX as u64
    }

    /// Integrity checksum over the four stored words.
    ///
    /// Each word is rotated into a distinct bit phase before XOR-folding,
    /// so flipping any single bit of any word flips exactly one bit of the
    /// checksum: **every single-bit upset is detected**, which is the
    /// coverage the scrub pass relies on (multi-bit upsets in the same
    /// entry can cancel only if they land on the same rotated bit lane).
    pub fn checksum(&self) -> u32 {
        let w = |v: Q16_16| v.to_bits() as u32;
        w(self.l_p)
            ^ w(self.a1).rotate_left(8)
            ^ w(self.a2).rotate_left(16)
            ^ w(self.a3).rotate_left(24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_idx_unit_spacing_is_floor() {
        assert_eq!(SampleIdx::of(Q16_16::from_f64(3.7), 0), SampleIdx(3));
        assert_eq!(SampleIdx::of(Q16_16::from_f64(-3.7), 0), SampleIdx(-4));
        assert_eq!(SampleIdx::of(Q16_16::from_f64(0.0), 0), SampleIdx(0));
    }

    #[test]
    fn sample_idx_half_spacing() {
        // spacing 0.5 => log2_inv = 1
        assert_eq!(SampleIdx::of(Q16_16::from_f64(3.7), 1), SampleIdx(7));
        assert_eq!(SampleIdx::of(Q16_16::from_f64(-0.25), 1), SampleIdx(-1));
    }

    #[test]
    fn sample_point_round_trips() {
        let idx = SampleIdx::of(Q16_16::from_f64(5.0), 0);
        assert_eq!(idx.point(0), 5.0);
        let idx = SampleIdx::of(Q16_16::from_f64(2.5), 1);
        assert_eq!(idx.point(1), 2.5);
    }

    #[test]
    fn quantize_rounds_coefficients() {
        let e = LutEntry::quantize(1.0, 0.5, -0.25, 1e-9);
        assert_eq!(e.l_p.to_f64(), 1.0);
        assert_eq!(e.a1.to_f64(), 0.5);
        assert_eq!(e.a2.to_f64(), -0.25);
        assert_eq!(e.a3, Q16_16::ZERO); // below one ULP
    }

    #[test]
    fn entry_is_four_words() {
        assert_eq!(LUT_ENTRY_BYTES, 4 * std::mem::size_of::<Q16_16>());
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_exhaustively() {
        let base = LutEntry::quantize(1.5, -0.75, 0.125, 0.001);
        let sum = base.checksum();
        for word in 0..4 {
            for bit in 0..32u32 {
                let mut e = base;
                let target = match word {
                    0 => &mut e.l_p,
                    1 => &mut e.a1,
                    2 => &mut e.a2,
                    _ => &mut e.a3,
                };
                *target = Q16_16::from_bits(target.to_bits() ^ (1 << bit));
                assert_ne!(e.checksum(), sum, "word {word} bit {bit} undetected");
            }
        }
    }
}
