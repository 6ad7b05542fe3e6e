//! The multilayer Cellular Nonlinear Network (CeNN) computing model.
//!
//! This crate implements §2 of the ISCA'17 paper: the CeNN cell dynamics of
//! eq. (1)–(2), the multilayer extension where each layer discretizes one
//! first-order equation of a coupled system, and the mapping machinery that
//! turns PDEs into **templates** — the local connection weights that act as
//! the "program" of the DE solver.
//!
//! * [`Grid`] — a 2-D cell array with boundary handling.
//! * [`Template`] / [`WeightExpr`] — 3×3 (or larger) connection kernels
//!   whose entries are either constants (linear, space-invariant) or
//!   dynamic products of nonlinear functions of layer states (the
//!   space/time-variant nonlinear templates of §2.2, generalized as
//!   documented in DESIGN.md).
//! * [`CennModel`] / [`CennModelBuilder`] — a complete multilayer program:
//!   layers, inter-layer templates, offsets, nonlinear function library,
//!   integration step, and an optional per-cell [`PostStepRule`].
//! * [`CennSim`] — the functional fixed-point simulator: Euler or Heun
//!   evolution of eq. (1) with real-time template update through a
//!   [`cenn_lut::LutHierarchy`], or through exact function evaluation for
//!   the error-breakdown study of §6.1. It is the sweep [`Engine`] over
//!   the in-core [`Resident`] store; [`StreamSim`] is the same engine
//!   over the [`Spooled`] store for grids run under a memory budget.
//! * [`Field`] — a layer's initial state or input map as a per-cell rule.
//!   An engine that has not started holds only its [`Fields`]; starting
//!   it in-core quantizes them into slabs, and starting it streamed
//!   writes them straight into the chunk spool.
//! * [`mapping`] — finite-difference stencils (eq. 5–7) and Taylor
//!   nonlinear-template derivation (eq. 8–10).
//!
//! # Example: the heat equation (eq. 5–7)
//!
//! ```
//! use cenn_core::{mapping, Boundary, CennModelBuilder, CennSim, Grid};
//! use fixedpt::Q16_16;
//!
//! let mut b = CennModelBuilder::new(16, 16);
//! let phi = b.dynamic_layer("phi", Boundary::ZeroFlux);
//! // dphi/dt = kappa * laplacian(phi), kappa = 0.2, h = 1
//! b.state_template(phi, phi, mapping::laplacian(0.2, 1.0).into_state_template());
//! let model = b.build(0.1).unwrap();
//!
//! let mut sim = CennSim::new(model).unwrap();
//! sim.set_state(phi, Grid::from_fn(16, 16, |r, c| {
//!     Q16_16::from_f64(if r == 8 && c == 8 { 10.0 } else { 0.0 })
//! })).unwrap();
//! sim.run(50);
//! // Heat spreads: the peak decays.
//! assert!(sim.state(phi).get(8, 8).to_f64() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod error;
pub mod exec;
mod field;
mod grid;
mod layer;
pub mod mapping;
mod model;
mod sim;
mod snapshot;
pub mod stream;
mod template;

pub use boundary::Boundary;
pub use error::{FaultError, ModelError};
pub use exec::{ExecEngine, RowPattern, StepStats, TilePlan};
pub use field::Field;
pub use grid::{Grid, LayerView, SoaGrid};
pub use layer::{LayerId, LayerKind, LayerSpec};
pub use model::{CennModel, CennModelBuilder, Integrator, LutConfig, PostStepRule, TemplateKind};
pub use sim::{CennSim, Engine, Fields, FuncEval, Resident, StepReport};
pub use snapshot::{fnv1a64, fnv1a64_init, snapshot_digest, state_digest, SimSnapshot};
pub use stream::{Spooled, StreamConfig, StreamError, StreamSim};
pub use template::{Factor, Stencil, Template, WeightExpr};
