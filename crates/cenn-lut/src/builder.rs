//! Off-chip LUT generation parameters.

use std::fmt;

/// Sampling specification for an off-chip LUT.
///
/// The paper samples nonlinear functions at the integer points addressed by
/// the high 16 bits of the Q16.16 state (Fig. 5). `log2_inv_spacing`
/// generalizes this: spacing is `2^-s`, so `s = 0` reproduces the paper and
/// larger `s` is the accuracy-vs-capacity ablation knob (finer tables mean
/// more DRAM traffic; see the `lut_spacing` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LutSpec {
    /// First sample index (inclusive), in units of the spacing.
    pub min_idx: i32,
    /// Last sample index (inclusive).
    pub max_idx: i32,
    /// Spacing is `2^-log2_inv_spacing`; 0 means unit spacing.
    pub log2_inv_spacing: u32,
}

impl LutSpec {
    /// Unit-spacing spec covering integer points `min ..= max` — the
    /// paper's configuration.
    pub const fn unit_spacing(min: i32, max: i32) -> Self {
        Self {
            min_idx: min,
            max_idx: max,
            log2_inv_spacing: 0,
        }
    }

    /// Spec covering the real interval `[lo, hi]` with spacing `2^-s`.
    pub fn covering(lo: f64, hi: f64, log2_inv_spacing: u32) -> Self {
        let scale = (1u64 << log2_inv_spacing) as f64;
        Self {
            min_idx: (lo * scale).floor() as i32,
            max_idx: (hi * scale).ceil() as i32,
            log2_inv_spacing,
        }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        (self.max_idx - self.min_idx) as usize + 1
    }

    /// `true` when the spec holds no points (never for validated specs).
    pub fn is_empty(&self) -> bool {
        self.max_idx < self.min_idx
    }

    /// The sample spacing as an `f64`.
    pub fn spacing(&self) -> f64 {
        1.0 / (1u64 << self.log2_inv_spacing) as f64
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`LutBuildError`] if the range is empty, the spacing exceeds
    /// the fractional precision, or the table would be absurdly large
    /// (> 2²⁴ entries).
    pub fn validate(&self) -> Result<(), LutBuildError> {
        if self.max_idx < self.min_idx {
            return Err(LutBuildError::EmptyRange {
                min: self.min_idx,
                max: self.max_idx,
            });
        }
        if self.log2_inv_spacing > 16 {
            return Err(LutBuildError::SpacingTooFine(self.log2_inv_spacing));
        }
        if self.len() > (1 << 24) {
            return Err(LutBuildError::TooLarge(self.len()));
        }
        Ok(())
    }
}

/// Error building an off-chip LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LutBuildError {
    /// `max_idx < min_idx`.
    EmptyRange {
        /// Requested first index.
        min: i32,
        /// Requested last index.
        max: i32,
    },
    /// Spacing finer than one fixed-point ULP.
    SpacingTooFine(u32),
    /// Table exceeds the size cap.
    TooLarge(usize),
    /// A Taylor word of the entry at this sample index lies outside the
    /// Q16.16 range, so quantizing it would clamp it to a rail.
    Unrepresentable {
        /// The entry's sample index.
        idx: i32,
    },
}

impl fmt::Display for LutBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyRange { min, max } => {
                write!(f, "empty LUT range: min_idx {min} > max_idx {max}")
            }
            Self::SpacingTooFine(s) => {
                write!(f, "LUT spacing 2^-{s} is finer than the Q16.16 fraction")
            }
            Self::TooLarge(n) => write!(f, "LUT with {n} entries exceeds the 2^24 cap"),
            Self::Unrepresentable { idx } => write!(
                f,
                "LUT entry at sample index {idx} has a Taylor word outside the Q16.16 range"
            ),
        }
    }
}

impl std::error::Error for LutBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_spacing_len_and_spacing() {
        let s = LutSpec::unit_spacing(-8, 8);
        assert_eq!(s.len(), 17);
        assert_eq!(s.spacing(), 1.0);
        assert!(s.validate().is_ok());
        assert!(!s.is_empty());
    }

    #[test]
    fn covering_rounds_outward() {
        let s = LutSpec::covering(-1.5, 2.3, 1);
        assert_eq!(s.min_idx, -3);
        assert_eq!(s.max_idx, 5);
        assert_eq!(s.spacing(), 0.5);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(
            LutSpec::unit_spacing(5, 4).validate(),
            Err(LutBuildError::EmptyRange { .. })
        ));
        let fine = LutSpec {
            min_idx: 0,
            max_idx: 1,
            log2_inv_spacing: 17,
        };
        assert!(matches!(
            fine.validate(),
            Err(LutBuildError::SpacingTooFine(17))
        ));
        let huge = LutSpec::unit_spacing(0, 1 << 25);
        assert!(matches!(huge.validate(), Err(LutBuildError::TooLarge(_))));
    }

    #[test]
    fn error_display_is_descriptive() {
        let e = LutSpec::unit_spacing(5, 4).validate().unwrap_err();
        assert!(e.to_string().contains("empty LUT range"));
    }
}
