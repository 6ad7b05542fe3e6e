//! The 2-D wave equation — the paper's §2 order-reduction example.
//!
//! Eq. (3)–(4) of the paper demonstrate the mapping procedure on a
//! second-order system: `ω̈ = f₁(ω, φ)` is rewritten as `ω̇ = χ`,
//! `χ̇ = f₁(ω, φ)`. The wave equation is exactly that shape:
//!
//! ```text
//! ∂²w/∂t² = c²·Δw    →    ẇ = χ,   χ̇ = c²·Δw − γ·χ
//! ```
//!
//! Two layers, both with purely linear templates: the displacement layer
//! `w` couples to the velocity layer `χ` with a centre weight, and `χ`
//! carries the discretized Laplacian of `w`. A small damping `γ` keeps
//! forward Euler (which is marginally unstable on pure oscillators)
//! well-behaved over long runs — standard practice in CeNN wave
//! simulation (\[37\] in the paper).

use cenn_core::{mapping, Boundary, CennModelBuilder, Field, ModelError};

use crate::system::{DynamicalSystem, SystemSetup};

/// Damped 2-D wave equation, mapped via first-order reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    /// Wave speed `c`.
    pub speed: f64,
    /// Velocity damping `γ`.
    pub damping: f64,
    /// Artificial viscosity `ν_a` on the velocity layer. The Euler update
    /// matrix for spatial mode `k` has determinant
    /// `1 − (γ + ν_a·k²)·dt + c²k²·dt²`; keeping it ≤ 1 for every mode
    /// requires `ν_a ≥ c²·dt` (von Neumann analysis), which cancels the
    /// explicit-Euler growth uniformly in `k` while leaving the long
    /// modes physically wave-like.
    pub viscosity: f64,
    /// Grid spacing.
    pub h: f64,
    /// Integration step (CFL: `c·dt/h < 1/√2`).
    pub dt: f64,
    /// Initial ripple amplitude.
    pub amplitude: f64,
}

impl Default for Wave {
    fn default() -> Self {
        Self {
            speed: 1.0,
            damping: 0.02,
            viscosity: 0.3,
            h: 1.0,
            dt: 0.25,
            amplitude: 4.0,
        }
    }
}

impl DynamicalSystem for Wave {
    fn name(&self) -> &'static str {
        "wave"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let w = b.dynamic_layer("w", Boundary::ZeroFlux);
        let chi = b.dynamic_layer("chi", Boundary::ZeroFlux);

        // w-dot = chi: leak-cancel on w, +1 coupling from chi.
        b.state_template(w, w, mapping::center(0.0).into_state_template());
        b.state_template(w, chi, mapping::center(1.0).into_template());
        // chi-dot = c^2 lap(w) - gamma chi + nu_a lap(chi).
        b.state_template(
            chi,
            w,
            mapping::laplacian(self.speed * self.speed, self.h).into_template(),
        );
        let mut schi = mapping::laplacian(self.viscosity, self.h);
        schi.set(0, 0, schi.get(0, 0) - self.damping);
        b.state_template(chi, chi, schi.into_state_template());
        let model = b.build(self.dt)?;

        // A Gaussian ripple at the centre, zero initial velocity.
        let (cr, cc) = (rows as f64 / 2.0, cols as f64 / 2.0);
        let sigma2 = (rows.min(cols) as f64 / 12.0).powi(2).max(1.0);
        let amp = self.amplitude;
        let init_w = Field::cells(move |r, c| {
            let d2 = (r as f64 - cr).powi(2) + (c as f64 - cc).powi(2);
            amp * (-d2 / (2.0 * sigma2)).exp()
        });
        Ok(SystemSetup {
            model,
            initial: vec![(w, init_w)],
            inputs: vec![],
            observed: vec![(w, "w"), (chi, "chi")],
        })
    }

    fn default_steps(&self) -> u64 {
        800
    }
}

impl Wave {
    /// CFL number `c·dt/h` — must stay below `1/√2` in 2-D.
    pub fn cfl(&self) -> f64 {
        self.speed * self.dt / self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedRunner;

    #[test]
    fn wave_is_fully_linear_two_layer() {
        let setup = Wave::default().build(16, 16).unwrap();
        assert_eq!(setup.model.n_layers(), 2);
        assert_eq!(setup.model.wui_template_count(), 0);
        assert_eq!(setup.model.lookups_per_cell_step(), 0);
    }

    #[test]
    fn cfl_respected_by_defaults() {
        let w = Wave::default();
        assert!(w.cfl() < 1.0 / 2f64.sqrt());
        // Stability condition for the artificial viscosity trick.
        assert!(w.viscosity >= w.speed * w.speed * w.dt);
        assert!(4.0 * w.viscosity * w.dt / (w.h * w.h) < 1.0);
    }

    #[test]
    fn ripple_propagates_outward() {
        let setup = Wave::default().build(33, 33).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let w0_center = runner.observed_states()[0].1.get(16, 16);
        let w0_edge = runner.observed_states()[0].1.get(16, 28);
        assert!(w0_edge.abs() < 0.05, "edge initially quiet");
        runner.run(60);
        let w = runner.observed_states()[0].1.clone();
        // Centre rebounds (goes negative) while the ring reaches outward.
        assert!(
            w.get(16, 16) < w0_center,
            "centre dropped: {}",
            w.get(16, 16)
        );
        let ring_max = (8..15)
            .map(|d| w.get(16, 16 + d).abs())
            .fold(0.0f64, f64::max);
        assert!(ring_max > 0.15, "outgoing ring visible: {ring_max}");
    }

    #[test]
    fn damping_bounds_long_runs() {
        let setup = Wave::default().build(16, 16).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let init_max = runner.observed_states()[0].1.max_abs();
        runner.run(2000);
        let w = runner.observed_states()[0].1.clone();
        assert!(w.max_abs() < 1.5 * init_max, "bounded: {}", w.max_abs());
        assert!(
            w.max_abs() < init_max * 0.8,
            "damped by t=500: {}",
            w.max_abs()
        );
    }
}
