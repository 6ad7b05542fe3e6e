//! Coupled-oscillator computing: a Kuramoto lattice on the CeNN solver.
//!
//! The paper's §1 names "coupled oscillators based dynamical systems …
//! being explored as a platform for solving complex problems" (refs.
//! \[28, 31, 33, 41\]) among the workloads the DE solver targets. The
//! locally-coupled Kuramoto model
//!
//! ```text
//! dθᵢ/dt = ωᵢ + K · Σ_{j ∈ N(i)} sin(θⱼ − θᵢ)
//! ```
//!
//! maps onto the generalized templates through the angle-sum identity
//! `sin(θⱼ−θᵢ) = sin θⱼ·cos θᵢ − cos θⱼ·sin θᵢ`: two **algebraic layers**
//! hold `s = sin θ` and `c = cos θ` (pointwise dynamic offsets through the
//! sin/cos LUTs), and the phase layer receives two neighbour templates
//! whose *dynamic weights* are `K·cos θᵢ` and `−K·sin θᵢ` applied to the
//! `s` and `c` neighbourhoods — space/time-variant templates in their
//! purest form.
//!
//! Phases wrap into `[−π, π)` each step
//! ([`cenn_core::PostStepRule::WrapPhase`]), keeping states inside
//! the sampled LUT domain.

use cenn_core::{
    mapping, Boundary, CennModelBuilder, Factor, Grid, ModelError, PostStepRule, Template,
    WeightExpr,
};
use cenn_equations::{FixedRunner, SystemSetup};
use cenn_lut::funcs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// A locally-coupled Kuramoto oscillator lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct KuramotoLattice {
    /// Coupling strength `K` (per neighbour).
    pub coupling: f64,
    /// Half-width of the uniform natural-frequency spread.
    pub freq_spread: f64,
    /// Integration step.
    pub dt: f64,
    /// RNG seed (initial phases + natural frequencies).
    pub seed: u64,
}

impl Default for KuramotoLattice {
    fn default() -> Self {
        Self {
            coupling: 0.4,
            freq_spread: 0.1,
            dt: 0.1,
            seed: 5,
        }
    }
}

impl KuramotoLattice {
    /// Builds the three-layer CeNN program plus random initial phases.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from model validation.
    pub fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let theta = b.dynamic_layer("theta", Boundary::Periodic);
        let s = b.algebraic_layer("sin", Boundary::Periodic);
        let c = b.algebraic_layer("cos", Boundary::Periodic);
        let f_sin = b.register_func(funcs::sin());
        let f_cos = b.register_func(funcs::cos());

        // Algebraic trig layers: s = sin(theta), c = cos(theta) as pure
        // dynamic offsets (no convolution terms).
        b.offset_expr(
            s,
            WeightExpr::product(
                1.0,
                vec![Factor {
                    func: f_sin,
                    layer: theta,
                }],
            ),
        );
        b.offset_expr(
            c,
            WeightExpr::product(
                1.0,
                vec![Factor {
                    func: f_cos,
                    layer: theta,
                }],
            ),
        );

        // theta: leak cancel; natural frequency enters via the input map.
        b.state_template(theta, theta, mapping::center(0.0).into_state_template());
        b.input_template(theta, theta, mapping::center(1.0).into_template());
        // Coupling: K·cosθᵢ · Σ_N s(j)  −  K·sinθᵢ · Σ_N c(j).
        let mut ts = Template::zero(3);
        let mut tc = Template::zero(3);
        for (dr, dc) in [(0i32, 1i32), (0, -1), (1, 0), (-1, 0)] {
            ts.set(
                dr,
                dc,
                WeightExpr::product(
                    self.coupling,
                    vec![Factor {
                        func: f_cos,
                        layer: theta,
                    }],
                ),
            );
            tc.set(
                dr,
                dc,
                WeightExpr::product(
                    -self.coupling,
                    vec![Factor {
                        func: f_sin,
                        layer: theta,
                    }],
                ),
            );
        }
        b.state_template(theta, s, ts);
        b.state_template(theta, c, tc);

        // Sample sin/cos finely over one period (their curvature is what
        // the degree-3 entries must capture).
        let mut cfg = cenn_core::LutConfig::default();
        let spec = cenn_lut::LutSpec::covering(-PI - 0.1, PI + 0.1, 4);
        cfg.per_func_specs.push((f_sin, spec));
        cfg.per_func_specs.push((f_cos, spec));
        b.lut_config(cfg);
        b.post_step(PostStepRule::WrapPhase {
            layer: theta,
            lo: -PI,
            hi: PI,
        });
        let model = b.build(self.dt)?;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let phases = Grid::from_fn(rows, cols, |_, _| rng.gen_range(-PI..PI));
        let freqs = Grid::from_fn(rows, cols, |_, _| {
            rng.gen_range(-self.freq_spread..=self.freq_spread)
        });
        Ok(SystemSetup {
            model,
            initial: vec![(theta, phases.into())],
            inputs: vec![(theta, freqs.into())],
            observed: vec![(theta, "theta")],
        })
    }
}

/// The Kuramoto order parameter `r = |⟨e^{iθ}⟩| ∈ [0, 1]`: 0 for
/// incoherent phases, 1 for full synchronization.
pub fn order_parameter(phases: &Grid<f64>) -> f64 {
    let n = phases.len() as f64;
    let (re, im) = phases
        .iter()
        .fold((0.0, 0.0), |(re, im), &t| (re + t.cos(), im + t.sin()));
    ((re / n).powi(2) + (im / n).powi(2)).sqrt()
}

/// Runs a lattice for `steps` and returns the order-parameter trajectory
/// sampled every `sample_every` steps.
///
/// # Errors
///
/// Propagates [`ModelError`] from the solver.
pub fn synchronization_curve(
    lattice: &KuramotoLattice,
    side: usize,
    steps: u64,
    sample_every: u64,
) -> Result<Vec<f64>, ModelError> {
    let setup = lattice.build(side, side)?;
    let theta = setup.observed[0].0;
    let mut runner = FixedRunner::new(setup)?;
    let mut curve = vec![order_parameter(&runner.state_f64(theta))];
    let mut done = 0;
    while done < steps {
        let batch = sample_every.min(steps - done);
        runner.run(batch);
        done += batch;
        curve.push(order_parameter(&runner.state_f64(theta)));
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_structure_is_three_layers_with_trig_luts() {
        let setup = KuramotoLattice::default().build(8, 8).unwrap();
        let m = &setup.model;
        assert_eq!(m.n_layers(), 3);
        // 2 trig offsets + 2 dynamic coupling templates.
        assert_eq!(m.wui_template_count(), 4);
        // Lookups: s(1) + c(1) + 4 taps * 2 templates = 10 per cell.
        assert_eq!(m.lookups_per_cell_step(), 10);
        assert!(setup.model.post_step().is_some());
    }

    #[test]
    fn order_parameter_extremes() {
        let sync = Grid::new(4, 4, 1.0);
        assert!((order_parameter(&sync) - 1.0).abs() < 1e-12);
        // Evenly spread phases: r ~ 0.
        let spread = Grid::from_fn(1, 8, |_, c| -PI + c as f64 * (2.0 * PI / 8.0));
        assert!(order_parameter(&spread) < 1e-6);
    }

    #[test]
    fn coupled_lattice_synchronizes() {
        let lattice = KuramotoLattice {
            coupling: 0.6,
            freq_spread: 0.05,
            ..Default::default()
        };
        let curve = synchronization_curve(&lattice, 12, 500, 100).unwrap();
        let (first, last) = (curve[0], *curve.last().unwrap());
        assert!(first < 0.45, "random start incoherent: r0 = {first}");
        assert!(last > 0.9, "strong coupling synchronizes: r = {last}");
        // Order parameter rises (weakly) monotonically at the sampled scale.
        assert!(
            curve.windows(2).filter(|w| w[1] + 0.05 < w[0]).count() <= 1,
            "no sustained desynchronization: {curve:?}"
        );
    }

    #[test]
    fn uncoupled_lattice_stays_incoherent() {
        let lattice = KuramotoLattice {
            coupling: 0.0,
            freq_spread: 0.2,
            ..Default::default()
        };
        let curve = synchronization_curve(&lattice, 12, 400, 400).unwrap();
        assert!(
            curve.last().unwrap() < &0.45,
            "no coupling, no sync: {curve:?}"
        );
    }

    #[test]
    fn phases_stay_wrapped() {
        let setup = KuramotoLattice::default().build(6, 6).unwrap();
        let theta = setup.observed[0].0;
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(300);
        for &t in runner.state_f64(theta).iter() {
            assert!((-PI - 1e-3..PI + 1e-3).contains(&t), "phase escaped: {t}");
        }
    }
}
