//! Gray–Scott reaction–diffusion — Turing pattern formation.
//!
//! ```text
//! ∂u/∂t = D_u·Δu − u·v² + F·(1−u)
//! ∂v/∂t = D_v·Δv + u·v² − (F+k)·v
//! ```
//!
//! The autocatalytic `u·v²` term is a three-factor dynamic weight
//! (`identity(u)·square(v)` as an offset product), exercising the
//! generalized product templates the Hodgkin–Huxley mapping introduced —
//! and, with the classic `F`/`k` choices, growing the self-replicating
//! spots the "computing with dynamical systems" literature leans on (§1).

use cenn_core::{mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, WeightExpr};
use cenn_lut::funcs;

use crate::system::{seeded_draw, DynamicalSystem, SystemSetup};

/// The Gray–Scott model with the "spots" parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayScott {
    /// Activator diffusion `D_u`.
    pub du: f64,
    /// Inhibitor diffusion `D_v`.
    pub dv: f64,
    /// Feed rate `F`.
    pub feed: f64,
    /// Kill rate `k`.
    pub kill: f64,
    /// Integration step.
    pub dt: f64,
    /// Seed for the initial perturbation.
    pub seed: u64,
}

impl Default for GrayScott {
    fn default() -> Self {
        Self {
            du: 0.16,
            dv: 0.08,
            feed: 0.035,
            kill: 0.065,
            dt: 1.0,
            seed: 11,
        }
    }
}

impl DynamicalSystem for GrayScott {
    fn name(&self) -> &'static str {
        "gray-scott"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::Periodic);
        let v = b.dynamic_layer("v", Boundary::Periodic);
        let ident = b.register_func(funcs::identity());
        let sq = b.register_func(funcs::square());

        // u: D_u lap - F u (linear parts) + F (const) - u v^2 (product).
        let mut su = mapping::laplacian(self.du, 1.0);
        su.set(0, 0, su.get(0, 0) - self.feed);
        b.state_template(u, u, su.into_state_template());
        b.offset(u, self.feed);
        let uv2 = |scale: f64| {
            WeightExpr::product(
                scale,
                vec![
                    Factor {
                        func: ident,
                        layer: u,
                    },
                    Factor { func: sq, layer: v },
                ],
            )
        };
        b.offset_expr(u, uv2(-1.0));

        // v: D_v lap - (F+k) v + u v^2.
        let mut sv = mapping::laplacian(self.dv, 1.0);
        sv.set(0, 0, sv.get(0, 0) - (self.feed + self.kill));
        b.state_template(v, v, sv.into_state_template());
        b.offset_expr(v, uv2(1.0));

        // Concentrations live in [0, 1]: sample both LUTs finely there.
        let mut cfg = cenn_core::LutConfig::default();
        let spec = cenn_lut::LutSpec::covering(-0.5, 1.5, 6);
        cfg.per_func_specs.push((ident, spec));
        cfg.per_func_specs.push((sq, spec));
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        // Uniform u=1, v=0 state seeded with a noisy square: the seeded
        // stream draws u then v for each cell of the square in row-major
        // order, so a cell's pair is draws 2k and 2k + 1.
        let seed = self.seed;
        let (r0, r1) = (rows / 2 - rows / 8, rows / 2 + rows / 8);
        let (c0, c1) = (cols / 2 - cols / 8, cols / 2 + cols / 8);
        let noisy = move |base: f64, draw: usize, outside: f64| {
            Field::cells(move |r, c| {
                if !(r0..r1).contains(&r) || !(c0..c1).contains(&c) {
                    return outside;
                }
                let k = (r - r0) * (c1 - c0) + (c - c0);
                base + seeded_draw(seed, 2 * k + draw, -0.05, 0.05)
            })
        };
        let init_u = noisy(0.5, 0, 1.0);
        let init_v = noisy(0.25, 1, 0.0);
        Ok(SystemSetup {
            model,
            initial: vec![(u, init_u), (v, init_v)],
            inputs: vec![],
            observed: vec![(u, "u"), (v, "v")],
        })
    }

    fn default_steps(&self) -> u64 {
        3000
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
    fn gray_scott_uses_two_product_sites() {
        let setup = GrayScott::default().build(16, 16).unwrap();
        assert_eq!(setup.model.n_layers(), 2);
        assert_eq!(setup.model.wui_template_count(), 2);
        // Each u·v² product costs two look-ups.
        assert_eq!(setup.model.lookups_per_cell_step(), 4);
    }

    #[test]
    fn concentrations_stay_physical() {
        let setup = GrayScott::default().build(24, 24).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(400);
        for (name, g) in runner.observed_states() {
            for &x in g.iter() {
                assert!((-0.1..=1.3).contains(&x), "{name} escaped: {x}");
            }
        }
    }

    #[test]
    fn seeded_patch_grows_structure() {
        let setup = GrayScott::default().build(32, 32).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(800);
        let v = runner.observed_states()[1].1.clone();
        // Pattern growth: v spread beyond the seeded quarter and the field
        // is non-trivially structured.
        let active = v.iter().filter(|&&x| x > 0.1).count();
        assert!(active > 8 * 8, "v spread to {active} cells");
        let mean = v.mean();
        let var: f64 = v.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(var > 1e-3, "spatial structure, var = {var}");
    }

    #[test]
    fn seeded_square_matches_sequential_draws() {
        // The construction the fields replace: one stream, u then v for
        // each cell of the square in row-major order.
        let (rows, cols) = (37, 29);
        let sys = GrayScott::default();
        let mut rng = StdRng::seed_from_u64(sys.seed);
        let (r0, r1) = (rows / 2 - rows / 8, rows / 2 + rows / 8);
        let (c0, c1) = (cols / 2 - cols / 8, cols / 2 + cols / 8);
        let mut u = Grid::new(rows, cols, 1.0);
        let mut v = Grid::new(rows, cols, 0.0);
        for r in r0..r1 {
            for c in c0..c1 {
                u.set(r, c, 0.5 + rng.gen_range(-0.05..0.05));
                v.set(r, c, 0.25 + rng.gen_range(-0.05..0.05));
            }
        }
        let setup = sys.build(rows, cols).unwrap();
        for (field, want) in setup.initial.iter().map(|(_, f)| f).zip([u, v]) {
            let got = field.to_grid(rows, cols).unwrap();
            let bits = |g: &Grid<f64>| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn trivial_state_is_a_fixed_point() {
        // u=1, v=0 with no seed: nothing happens.
        let mut setup = GrayScott::default().build(8, 8).unwrap();
        setup.initial[0].1 = cenn_core::Grid::new(8, 8, 1.0).into();
        setup.initial[1].1 = cenn_core::Grid::new(8, 8, 0.0).into();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(100);
        let u = runner.observed_states()[0].1.clone();
        let v = runner.observed_states()[1].1.clone();
        assert!((u.get(4, 4) - 1.0).abs() < 1e-3);
        assert!(v.get(4, 4).abs() < 1e-3);
    }
}
