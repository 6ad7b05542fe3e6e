//! 32-bit fixed-point arithmetic for the CeNN differential-equation solver.
//!
//! The ISCA'17 CeNN DE solver computes with 32-bit fixed-point state where
//! "the first half bits are integer and the rest are fractional" (§4.1), i.e.
//! the Q16.16 format. This crate provides that format as [`Q16_16`] plus a
//! generic [`Fx`] type parameterized by the number of fractional bits, so
//! per-equation scaling experiments (ablations) can trade range for
//! resolution.
//!
//! # Design
//!
//! * [`Fx<FRAC>`] wraps an `i32` in two's complement with `FRAC` fractional
//!   bits. All arithmetic **saturates** on overflow, matching the saturating
//!   ALU of the hardware PE (a wrapped PE state would destroy a simulation;
//!   the synthesized ALU clamps).
//! * Multiplication uses a full 64-bit intermediate product and
//!   round-to-nearest, the behaviour of the PE's MAC unit.
//! * [`MacAcc`] is a 64-bit accumulator in Q(2·FRAC) used for convolution
//!   inner products: partial products are accumulated exactly and rounded
//!   once at the end, like the hardware MAC register.
//!
//! # Examples
//!
//! ```
//! use fixedpt::Q16_16;
//!
//! let a = Q16_16::from_f64(1.5);
//! let b = Q16_16::from_f64(-0.25);
//! assert_eq!((a * b).to_f64(), -0.375);
//! assert_eq!(a.int_part(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod fx;
pub mod lanes;

pub use acc::MacAcc;
pub use fx::{Fx, ParseFxError};

/// The paper's default state format: 16 integer bits, 16 fractional bits.
pub type Q16_16 = Fx<16>;

/// Higher-resolution format for well-scaled states (8 integer bits).
pub type Q8_24 = Fx<24>;

/// Wide-range format (24 integer bits) for stiff intermediate quantities.
pub type Q24_8 = Fx<8>;
