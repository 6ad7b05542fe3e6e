//! Reaction–diffusion (FitzHugh–Nagumo) — the paper's Fig. 3 worked
//! example: a two-layer activator–inhibitor system.

use cenn_core::{mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, WeightExpr};
use cenn_lut::funcs;

use crate::system::{seeded_draw, DynamicalSystem, SystemSetup};

/// FitzHugh–Nagumo reaction–diffusion:
///
/// ```text
/// ∂u/∂t = D_u·Δu + u − u³/3 − v + I        (activator, nonlinear)
/// ∂v/∂t = D_v·Δv + ε·(u + β − γ·v)          (inhibitor, linear)
/// ```
///
/// This is exactly the paper's Fig. 3 structure: the activator layer's
/// self-template `Â_uu` carries the real-time weight update (the `−u³/3`
/// enters as a dynamic offset through the `cube` LUT), while the inhibitor
/// layer is fully linear. The RD equation "can be used as another set of
/// computing model, capable of simulating Turing machine" (§6.1).
///
/// Default scenario: random perturbations around the rest state, which
/// develop into travelling pulses / labyrinthine patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactionDiffusion {
    /// Activator diffusion `D_u`.
    pub du: f64,
    /// Inhibitor diffusion `D_v`.
    pub dv: f64,
    /// Timescale separation ε.
    pub epsilon: f64,
    /// Excitability offset β.
    pub beta: f64,
    /// Inhibitor self-decay γ.
    pub gamma: f64,
    /// Constant drive I.
    pub drive: f64,
    /// Grid spacing.
    pub h: f64,
    /// Integration step.
    pub dt: f64,
    /// RNG seed for the initial perturbation.
    pub seed: u64,
}

impl Default for ReactionDiffusion {
    fn default() -> Self {
        Self {
            du: 1.0,
            dv: 0.3,
            epsilon: 0.08,
            beta: 0.7,
            gamma: 0.8,
            drive: 0.5,
            h: 1.0,
            dt: 0.1,
            seed: 17,
        }
    }
}

impl DynamicalSystem for ReactionDiffusion {
    fn name(&self) -> &'static str {
        "reaction-diffusion"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::Periodic);
        let v = b.dynamic_layer("v", Boundary::Periodic);
        let cube = b.register_func(funcs::cube());

        // Activator: D_u·Δu + 1·u (linear part folded into the centre).
        let mut su = mapping::laplacian(self.du, self.h);
        su.set(0, 0, su.get(0, 0) + 1.0);
        b.state_template(u, u, su.into_state_template());
        // −v coupling.
        b.state_template(u, v, mapping::center(-1.0).into_template());
        // −u³/3: the nonlinear template update (cube is degree 3: the LUT's
        // Taylor form is exact up to quantization).
        b.offset_expr(
            u,
            WeightExpr::product(
                -1.0 / 3.0,
                vec![Factor {
                    func: cube,
                    layer: u,
                }],
            ),
        );
        b.offset(u, self.drive);

        // Inhibitor: fully linear (the Fig. 3 "only linear term" layer).
        let mut sv = mapping::laplacian(self.dv, self.h);
        sv.set(0, 0, sv.get(0, 0) - self.epsilon * self.gamma);
        b.state_template(v, v, sv.into_state_template());
        b.state_template(v, u, mapping::center(self.epsilon).into_template());
        b.offset(v, self.epsilon * self.beta);

        // Fine sampling (2^-4 spacing over [-4, 4], 129 entries): the
        // activator sweeps ~4 units, so the per-PE working set of ~64
        // indices swamps a 4-block L1 — reproducing the paper's Fig. 12
        // miss-rate regime (mr_L1 ~ 0.7 at 4 blocks) while keeping the
        // cubic-LUT error at quantization level.
        let mut cfg = cenn_core::LutConfig::default();
        cfg.per_func_specs
            .push((cube, cenn_lut::LutSpec::covering(-4.0, 4.0, 4)));
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        // The seeded stream draws all of u, then all of v, row-major: a
        // cell's u is draw k = r·cols + c and its v draw rows·cols + k.
        let seed = self.seed;
        let init_u = Field::cells(move |r, c| seeded_draw(seed, r * cols + c, -0.2, 0.2) - 1.0);
        let init_v =
            Field::cells(move |r, c| seeded_draw(seed, (rows + r) * cols + c, -0.1, 0.1) - 0.6);
        Ok(SystemSetup {
            model,
            initial: vec![(u, init_u), (v, init_v)],
            inputs: vec![],
            observed: vec![(u, "u"), (v, "v")],
        })
    }

    fn default_steps(&self) -> u64 {
        1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedRunner;
    use cenn_core::Grid;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rd_matches_fig3_structure() {
        let setup = ReactionDiffusion::default().build(16, 16).unwrap();
        let m = &setup.model;
        assert_eq!(m.n_layers(), 2, "two variables -> two layers");
        // Exactly one real-time-update site (the activator nonlinearity).
        assert_eq!(m.wui_template_count(), 1);
        assert_eq!(m.lookups_per_cell_step(), 1);
    }

    #[test]
    fn dynamics_stay_bounded_and_oscillate() {
        // With these parameters FHN is a relaxation oscillator: a single
        // cell's activator must sweep between the two branches over time
        // (the diffusion synchronizes the medium, so spatial spread can be
        // small — the oscillation shows in the time axis).
        let setup = ReactionDiffusion::default().build(16, 16).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for _ in 0..40 {
            runner.run(25);
            let u = runner.observed_states()[0].1.get(8, 8);
            lo = lo.min(u);
            hi = hi.max(u);
            assert!(u.abs() < 3.0, "activator bounded: {u}");
        }
        assert!(hi - lo > 1.0, "relaxation oscillation: range {lo}..{hi}");
    }

    #[test]
    fn seeded_fields_match_sequential_draws() {
        // The construction the fields replace: one stream, all of u, then
        // all of v, row-major.
        let (rows, cols) = (13, 21);
        let sys = ReactionDiffusion::default();
        let mut rng = StdRng::seed_from_u64(sys.seed);
        let u = Grid::from_fn(rows, cols, |_, _| rng.gen_range(-0.2..0.2) - 1.0);
        let v = Grid::from_fn(rows, cols, |_, _| rng.gen_range(-0.1..0.1) - 0.6);
        let setup = sys.build(rows, cols).unwrap();
        for (field, want) in setup.initial.iter().map(|(_, f)| f).zip([u, v]) {
            let got = field.to_grid(rows, cols).unwrap();
            let bits = |g: &Grid<f64>| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn seeded_initial_conditions_are_deterministic() {
        let a = ReactionDiffusion::default().build(8, 8).unwrap();
        let b = ReactionDiffusion::default().build(8, 8).unwrap();
        let grid = |s: &SystemSetup| s.initial[0].1.to_grid(8, 8).unwrap();
        assert_eq!(grid(&a).as_slice(), grid(&b).as_slice());
    }
}
