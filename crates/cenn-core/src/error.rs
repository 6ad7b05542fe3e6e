//! Model construction errors.

use std::fmt;

/// Maximum number of layers a model may declare.
///
/// The bitstream encodes `N_layer` in 3 bits, so "a coupled dynamical
/// system with up to 8 layers (equivalently, 8 equations) can be solved"
/// (§3).
pub const MAX_LAYERS: usize = 8;

/// Error building or configuring a [`crate::CennModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The model declares no layers.
    NoLayers,
    /// More layers than the 3-bit `N_layer` field can express.
    TooManyLayers(usize),
    /// The integration step is non-positive or non-finite.
    BadTimestep(f64),
    /// A template or state grid has the wrong shape.
    ShapeMismatch {
        /// Expected `(rows, cols)`.
        expected: (usize, usize),
        /// Provided `(rows, cols)`.
        got: (usize, usize),
    },
    /// A template, post-step rule or field names a layer id not defined
    /// in this model.
    UnknownLayer(usize),
    /// A dynamic weight references a function id not registered in the
    /// model's library.
    UnknownFunction(u16),
    /// LUT table generation failed.
    Lut(cenn_lut::LutBuildError),
    /// A fault-injection request named an invalid target.
    Fault(FaultError),
}

/// An invalid fault-injection target (LUT entry, state cell, or template
/// word) — the typed replacement for the old panicking injection hooks,
/// reachable from user input via `--fault-plan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The LUT hierarchy rejected the target.
    Lut(cenn_lut::LutFaultError),
    /// The layer index names no layer in the model.
    Layer(usize),
    /// The cell coordinates fall outside the grid.
    Cell {
        /// Grid rows.
        rows: usize,
        /// Grid cols.
        cols: usize,
        /// Requested row.
        r: usize,
        /// Requested col.
        c: usize,
    },
    /// The template-word index exceeds the layer's word count.
    Tap {
        /// Layer the injection targeted.
        layer: usize,
        /// Template words the layer has.
        n_taps: usize,
        /// Requested word.
        tap: usize,
    },
    /// The bit position exceeds the 32-bit word width.
    Bit(u32),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lut(e) => write!(f, "{e}"),
            Self::Layer(i) => write!(f, "fault targets unknown layer {i}"),
            Self::Cell { rows, cols, r, c } => {
                write!(f, "fault cell ({r},{c}) outside {rows}x{cols} grid")
            }
            Self::Tap { layer, n_taps, tap } => write!(
                f,
                "fault template word {tap} out of range (layer {layer} has {n_taps})"
            ),
            Self::Bit(b) => write!(f, "fault bit {b} out of range (0-31)"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lut(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cenn_lut::LutFaultError> for FaultError {
    fn from(e: cenn_lut::LutFaultError) -> Self {
        Self::Lut(e)
    }
}

impl From<FaultError> for ModelError {
    fn from(e: FaultError) -> Self {
        Self::Fault(e)
    }
}

impl From<cenn_lut::LutFaultError> for ModelError {
    fn from(e: cenn_lut::LutFaultError) -> Self {
        Self::Fault(FaultError::Lut(e))
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoLayers => write!(f, "model has no layers"),
            Self::TooManyLayers(n) => {
                write!(
                    f,
                    "model has {n} layers, the bitstream limit is {MAX_LAYERS}"
                )
            }
            Self::BadTimestep(dt) => write!(f, "integration step {dt} is not positive and finite"),
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            Self::UnknownLayer(i) => write!(f, "reference to unknown layer {i}"),
            Self::UnknownFunction(i) => write!(f, "weight references unknown function {i}"),
            Self::Lut(e) => write!(f, "LUT generation failed: {e}"),
            Self::Fault(e) => write!(f, "fault injection rejected: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lut(e) => Some(e),
            Self::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cenn_lut::LutBuildError> for ModelError {
    fn from(e: cenn_lut::LutBuildError) -> Self {
        Self::Lut(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let cases: Vec<(ModelError, &str)> = vec![
            (ModelError::NoLayers, "no layers"),
            (ModelError::TooManyLayers(9), "9 layers"),
            (ModelError::BadTimestep(-1.0), "-1"),
            (
                ModelError::ShapeMismatch {
                    expected: (8, 8),
                    got: (4, 4),
                },
                "8x8",
            ),
            (ModelError::UnknownLayer(3), "layer 3"),
            (ModelError::UnknownFunction(7), "function 7"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn lut_error_wraps_with_source() {
        use std::error::Error;
        let inner = cenn_lut::LutSpec::unit_spacing(1, 0)
            .validate()
            .unwrap_err();
        let e = ModelError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("LUT generation failed"));
    }
}
