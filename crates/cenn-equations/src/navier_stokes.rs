//! 2-D incompressible Navier–Stokes in vorticity–streamfunction form —
//! the paper's "single PDE with nonlinear template" benchmark.

use cenn_core::{
    mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, Template, WeightExpr,
};
use cenn_lut::funcs;

use crate::system::{DynamicalSystem, SystemSetup};

/// Vorticity–streamfunction Navier–Stokes on a periodic domain:
///
/// ```text
/// ∂ω/∂t = ν·Δω − u·∂ω/∂x − v·∂ω/∂y      (dynamic layer)
/// Δψ    = −ω                             (one Jacobi sweep per step)
/// u     = ∂ψ/∂y,   v = −∂ψ/∂x           (algebraic layers)
/// ```
///
/// The advection term is the nonlinear template: the neighbour weights of
/// the `ω ← ω` template are `∓u/2h` and `∓v/2h`, i.e. **space- and
/// time-variant** weights driven by the velocity layers through the LUT
/// (identity function), exactly the "templates updated dynamically during
/// evolution" the paper motivates (§1, contribution 2).
///
/// The Poisson solve rides along as an algebraic CeNN layer performing one
/// Jacobi relaxation sweep per time step — the standard emulated-digital
/// CNN approach to elliptic constraints (\[30\] in the paper).
///
/// Default scenario: a decaying Taylor–Green vortex (analytically
/// `ω(t) = ω₀·exp(−2νk²t)`), which doubles as a convergence check.
#[derive(Debug, Clone, PartialEq)]
pub struct NavierStokes {
    /// Kinematic viscosity ν.
    pub nu: f64,
    /// Grid spacing h.
    pub h: f64,
    /// Integration step.
    pub dt: f64,
    /// Peak initial velocity (sets the advection CFL).
    pub u_max: f64,
}

impl Default for NavierStokes {
    fn default() -> Self {
        Self {
            nu: 0.5,
            h: 1.0,
            dt: 0.2,
            u_max: 0.5,
        }
    }
}

impl NavierStokes {
    /// The Taylor–Green wavenumber for an `n`-cell side.
    pub fn wavenumber(n: usize) -> f64 {
        2.0 * std::f64::consts::PI / n as f64
    }

    /// The analytic vorticity decay factor after `steps` steps.
    pub fn decay_factor(&self, side: usize, steps: u64) -> f64 {
        let k = Self::wavenumber(side);
        (-2.0 * self.nu * k * k * self.dt * steps as f64).exp()
    }
}

impl DynamicalSystem for NavierStokes {
    fn name(&self) -> &'static str {
        "navier-stokes"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        // Declaration order matters: algebraic layers update sequentially,
        // so psi sees old omega, velocities see fresh psi.
        let psi = b.algebraic_layer("psi", Boundary::Periodic);
        let uvel = b.algebraic_layer("u", Boundary::Periodic);
        let vvel = b.algebraic_layer("v", Boundary::Periodic);
        let omega = b.dynamic_layer("omega", Boundary::Periodic);
        let ident = b.register_func(funcs::identity());

        // psi: one Jacobi sweep of  Δψ = −ω  →  ψ ← avg(neigh) + h²ω/4.
        b.state_template(psi, psi, mapping::jacobi_poisson(self.h).into_template());
        b.state_template(
            psi,
            omega,
            mapping::center(self.h * self.h / 4.0).into_template(),
        );
        // u = ∂ψ/∂y, v = −∂ψ/∂x.
        b.state_template(uvel, psi, mapping::grad_y(1.0, self.h).into_template());
        b.state_template(vvel, psi, mapping::grad_x(-1.0, self.h).into_template());

        // omega: viscous diffusion...
        b.state_template(
            omega,
            omega,
            mapping::laplacian(self.nu, self.h).into_state_template(),
        );
        // ...plus advection with velocity-driven dynamic weights:
        // −u·∂ω/∂x  →  taps (0, ±1) with weight ∓u/(2h).
        let mut adv = Template::zero(3);
        let g = 1.0 / (2.0 * self.h);
        adv.set(
            0,
            1,
            WeightExpr::product(
                -g,
                vec![Factor {
                    func: ident,
                    layer: uvel,
                }],
            ),
        );
        adv.set(
            0,
            -1,
            WeightExpr::product(
                g,
                vec![Factor {
                    func: ident,
                    layer: uvel,
                }],
            ),
        );
        adv.set(
            1,
            0,
            WeightExpr::product(
                -g,
                vec![Factor {
                    func: ident,
                    layer: vvel,
                }],
            ),
        );
        adv.set(
            -1,
            0,
            WeightExpr::product(
                g,
                vec![Factor {
                    func: ident,
                    layer: vvel,
                }],
            ),
        );
        b.state_template(omega, omega, adv);

        // Velocities are O(u_max) < 1, far below unit spacing: sample the
        // identity LUT at 2^-6 so the advection weights resolve the flow
        // (and so the LUT working set behaves like the paper's NS traces
        // in Fig. 12 rather than degenerating to a single index).
        let mut cfg = cenn_core::LutConfig::default();
        cfg.per_func_specs
            .push((ident, cenn_lut::LutSpec::covering(-4.0, 4.0, 6)));
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        // Taylor–Green initial condition scaled to u_max.
        let k = Self::wavenumber(rows.max(cols));
        let a = self.u_max / k; // psi amplitude
        let psi0 = move |r: usize, c: usize| a * (k * r as f64).sin() * (k * c as f64).sin();
        let omega0 = Field::cells(move |r, c| 2.0 * k * k * psi0(r, c));
        Ok(SystemSetup {
            model,
            initial: vec![(psi, Field::cells(psi0)), (omega, omega0)],
            inputs: vec![],
            observed: vec![(omega, "omega")],
        })
    }

    fn default_steps(&self) -> u64 {
        500
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedRunner;

    #[test]
    fn ns_has_four_layers_and_advection_wui() {
        let setup = NavierStokes::default().build(16, 16).unwrap();
        let m = &setup.model;
        assert_eq!(m.n_layers(), 4);
        // One WUI template (the 4-tap advection kernel).
        assert_eq!(m.wui_template_count(), 1);
        assert_eq!(m.lookups_per_cell_step(), 4);
    }

    #[test]
    fn taylor_green_vorticity_decays() {
        let sys = NavierStokes::default();
        let setup = sys.build(32, 32).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let before = runner.observed_states()[0].1.max_abs();
        runner.run(100);
        let after = runner.observed_states()[0].1.max_abs();
        let expected = before * sys.decay_factor(32, 100);
        assert!(after < before, "vorticity decays: {before} -> {after}");
        // Within 25% of the analytic decay (Euler + one-sweep Poisson lag).
        assert!(
            (after - expected).abs() / expected < 0.25,
            "decay {after} vs analytic {expected}"
        );
    }

    #[test]
    fn velocity_field_is_divergence_light() {
        // u, v derived from a streamfunction are discretely
        // divergence-free up to the central-difference commutator.
        let sys = NavierStokes::default();
        let setup = sys.build(16, 16).unwrap();
        let uid = setup.model.layer_by_name("u").unwrap();
        let vid = setup.model.layer_by_name("v").unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(20);
        let u = runner.state_f64(uid);
        let v = runner.state_f64(vid);
        let mut max_div: f64 = 0.0;
        for r in 1..15 {
            for c in 1..15 {
                let div = (u.get(r, c + 1) - u.get(r, c - 1)) / 2.0
                    + (v.get(r + 1, c) - v.get(r - 1, c)) / 2.0;
                max_div = max_div.max(div.abs());
            }
        }
        assert!(max_div < 0.01, "max divergence {max_div}");
    }

    #[test]
    fn cfl_respected_by_defaults() {
        let s = NavierStokes::default();
        assert!(s.u_max * s.dt / s.h < 1.0, "advection CFL");
        assert!(4.0 * s.nu * s.dt / (s.h * s.h) < 1.0, "diffusion stability");
    }
}
