//! Hierarchical look-up tables for real-time CeNN template update.
//!
//! The ISCA'17 DE solver evaluates arbitrary nonlinear functions during
//! template update through a memory hierarchy of look-up tables (§4.1):
//!
//! * the **off-chip LUT** ([`OffChipLut`]) stores, for every sample point
//!   `p`, the exact value `l(p)` and the Taylor coefficients of `l` around
//!   `p` (Fig. 5);
//! * a shared **L2 LUT** ([`L2Lut`], one per memory channel) caches the
//!   tags of sample points, indexed by a modulo-power-of-two hash;
//! * a per-PE **L1 LUT** ([`L1Lut`], 4 blocks by default) matches the high
//!   16 bits of the 32-bit state directly and refills via a cyclic write
//!   pointer.
//!
//! The caches hold tags only. Every table write (fault injection, a
//! repairing scrub) invalidates both cache levels, so every value is read
//! from the off-chip table and the caches decide only the hit level — the
//! latency the cycle model charges.
//!
//! The **Template Update Module** ([`Tum`]) turns an entry and the
//! current cell state into a function value (or the `(α, c₃)` template
//! decomposition of eq. (10)) using fixed-point Horner evaluation.
//!
//! [`LutHierarchy`] wires the three levels together and records the hit/miss
//! statistics that drive Fig. 12 and the cycle-level model (eqs. 11–12).
//!
//! # Example
//!
//! ```
//! use cenn_lut::{FuncLibrary, LutHierarchy, LutSpec, Level};
//! use fixedpt::Q16_16;
//!
//! let mut lib = FuncLibrary::new();
//! let tanh = lib.register(cenn_lut::funcs::tanh());
//! let spec = LutSpec::unit_spacing(-8, 8);
//! let mut hier = LutHierarchy::build(&lib, spec, 4, 32, 1).unwrap();
//! let (value, outcome) = hier.lookup(0, tanh, Q16_16::from_f64(0.5));
//! assert_eq!(outcome.filled_from, Level::Dram); // cold miss
//! assert!((value.to_f64() - 0.5f64.tanh()).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod entry;
mod func;
pub mod funcs;
mod hierarchy;
mod l1;
mod l2;
mod shard;
mod stats;
mod tum;

pub use builder::{LutBuildError, LutSpec};
pub use entry::{LutEntry, SampleIdx, LUT_ENTRY_BYTES};
pub use func::{FuncId, FuncLibrary, NonlinearFn};
pub use hierarchy::{
    AccessOutcome, Level, LutFaultError, LutHierarchy, OffChipLut, ScrubReport, PES_PER_L2,
};
pub use l1::L1Lut;
pub use l2::{L2Lut, DRAM_BURST_POINTS};
pub use shard::{LutShard, RowCtx};
pub use stats::LutStats;
pub use tum::{AlphaC3, Tum, TumEval};
