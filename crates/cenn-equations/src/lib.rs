//! The six benchmark dynamical systems of the ISCA'17 evaluation (§6.1),
//! each mapped onto the multilayer CeNN computing model.
//!
//! | System | Equations | Layers | Nonlinearity |
//! |---|---|---|---|
//! | [`Heat`] | `∂φ/∂t = κΔφ` | 1 | none (linear template, eq. 7) |
//! | [`NavierStokes`] | vorticity–streamfunction | 4 | advection `u·∇ω` (dynamic weights) |
//! | [`Fisher`] | `∂u/∂t = DΔu + ru(1−u)` | 1 | quadratic (LUT-exact) |
//! | [`ReactionDiffusion`] | FitzHugh–Nagumo | 2 | cubic `u³/3` (LUT-exact) |
//! | [`HodgkinHuxley`] | 4-variable membrane model | 4 | exp-based gating rates (LUT-approximated) |
//! | [`Izhikevich`] | 2-variable spiking model | 2 | quadratic + reset rule |
//!
//! Every system implements [`DynamicalSystem`]: it builds a validated
//! [`cenn_core::CennModel`] plus initial conditions, and the same model
//! drives the fixed-point hardware simulator, the floating-point reference
//! (`cenn-baselines`), and the cycle-level architecture model
//! (`cenn-arch`); a hybrid system's post-step rule (the Izhikevich spike
//! reset) is part of that model. [`FixedRunner`] executes a system on the
//! functional fixed-point simulator, in-core or streamed.
//!
//! # Example
//!
//! ```
//! use cenn_equations::{DynamicalSystem, FixedRunner, Heat};
//!
//! let setup = Heat::default().build(16, 16).unwrap();
//! let mut runner = FixedRunner::new(setup).unwrap();
//! runner.run(10);
//! let phi = runner.observed_states()[0].1.clone();
//! assert_eq!(phi.rows(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burgers;
mod driver;
mod fisher;
mod gray_scott;
mod heat;
mod hodgkin_huxley;
mod izhikevich;
mod navier_stokes;
mod rd;
mod system;
mod wave;

pub use burgers::Burgers;
pub use driver::FixedRunner;
pub use fisher::Fisher;
pub use gray_scott::GrayScott;
pub use heat::Heat;
pub use hodgkin_huxley::HodgkinHuxley;
pub use izhikevich::Izhikevich;
pub use navier_stokes::NavierStokes;
pub use rd::ReactionDiffusion;
pub use system::{
    all_benchmarks, extended_benchmarks, system_by_name, DynamicalSystem, Field, PostStepRule,
    SystemSetup,
};
pub use wave::Wave;
