//! 2-D scalar Burgers' equation — self-advection with shock-like fronts.
//!
//! ```text
//! ∂u/∂t = ν·Δu − u·(∂u/∂x + ∂u/∂y)
//! ```
//!
//! The advection weight is the cell's *own* state: the gradient taps of
//! the `u ← u` template carry `∓u/2h`, i.e. a dynamic weight whose driver
//! is the destination layer itself — the simplest space/time-variant
//! template beyond the Taylor-α form, and a classic CeNN PDE demo (\[37\]).

use cenn_core::{
    mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, Template, WeightExpr,
};
use cenn_lut::funcs;

use crate::system::{DynamicalSystem, SystemSetup};

/// Viscous scalar Burgers' equation on a periodic domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Burgers {
    /// Viscosity ν.
    pub nu: f64,
    /// Grid spacing.
    pub h: f64,
    /// Integration step.
    pub dt: f64,
    /// Peak initial speed (sets the CFL and the shock time).
    pub u_max: f64,
}

impl Default for Burgers {
    fn default() -> Self {
        Self {
            nu: 0.3,
            h: 1.0,
            dt: 0.2,
            u_max: 0.8,
        }
    }
}

impl DynamicalSystem for Burgers {
    fn name(&self) -> &'static str {
        "burgers"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::Periodic);
        let ident = b.register_func(funcs::identity());

        b.state_template(
            u,
            u,
            mapping::laplacian(self.nu, self.h).into_state_template(),
        );
        // −u·(∂u/∂x + ∂u/∂y): central-difference taps weighted by ∓u/2h.
        let g = 1.0 / (2.0 * self.h);
        let mut adv = Template::zero(3);
        for (dr, dc, sign) in [(0i32, 1i32, -1.0), (0, -1, 1.0), (1, 0, -1.0), (-1, 0, 1.0)] {
            adv.set(
                dr,
                dc,
                WeightExpr::product(
                    sign * g,
                    vec![Factor {
                        func: ident,
                        layer: u,
                    }],
                ),
            );
        }
        b.state_template(u, u, adv);

        let mut cfg = cenn_core::LutConfig::default();
        cfg.per_func_specs
            .push((ident, cenn_lut::LutSpec::covering(-4.0, 4.0, 6)));
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        // A smooth sine hill that steepens into a front.
        let k = 2.0 * std::f64::consts::PI / cols as f64;
        let ky = 2.0 * std::f64::consts::PI / rows as f64;
        let a = self.u_max;
        let init = Field::cells(move |r, c| {
            a * (k * c as f64).sin() * (0.5 + 0.5 * (ky * r as f64).cos())
        });
        Ok(SystemSetup {
            model,
            initial: vec![(u, init)],
            inputs: vec![],
            observed: vec![(u, "u")],
        })
    }

    fn default_steps(&self) -> u64 {
        600
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedRunner;

    #[test]
    fn burgers_is_single_layer_with_self_advection() {
        let setup = Burgers::default().build(16, 16).unwrap();
        assert_eq!(setup.model.n_layers(), 1);
        assert_eq!(setup.model.wui_template_count(), 1);
        assert_eq!(setup.model.lookups_per_cell_step(), 4);
    }

    #[test]
    fn gradients_steepen_then_dissipate() {
        let sys = Burgers::default();
        let setup = sys.build(8, 64).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let grad = |g: &cenn_core::Grid<f64>| {
            let mut m: f64 = 0.0;
            for c in 1..63 {
                m = m.max((g.get(4, c + 1) - g.get(4, c - 1)).abs() / 2.0);
            }
            m
        };
        let g0 = grad(&runner.observed_states()[0].1);
        runner.run(40);
        let g1 = grad(&runner.observed_states()[0].1);
        assert!(g1 > 1.2 * g0, "front steepened: {g0} -> {g1}");
        // Viscosity eventually wins: the solution decays.
        runner.run(600);
        let late = runner.observed_states()[0].1.max_abs();
        assert!(late < 0.5 * sys.u_max, "viscous decay: {late}");
    }

    #[test]
    fn solution_stays_bounded_by_initial_range() {
        // Burgers (scalar conservation law + viscosity) satisfies a
        // maximum principle; the solver must not overshoot materially.
        let sys = Burgers::default();
        let setup = sys.build(16, 32).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        for _ in 0..10 {
            runner.run(30);
            let m = runner.observed_states()[0].1.max_abs();
            assert!(m < sys.u_max * 1.15, "bounded: {m}");
        }
    }
}
