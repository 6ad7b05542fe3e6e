//! Izhikevich spiking neurons — the paper's hybrid (reset-rule) benchmark.

use cenn_core::{
    mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, PostStepRule, WeightExpr,
};
use cenn_lut::funcs;

use crate::system::{seeded_draw, DynamicalSystem, SystemSetup};

/// The Izhikevich simple spiking model (paper ref. \[18\]):
///
/// ```text
/// dv/dt = 0.04·v² + 5·v + 140 − u + I
/// du/dt = a·(b·v − u)
/// if v ≥ 30 mV:  v ← c,  u ← u + d
/// ```
///
/// The quadratic `0.04·v²` is a dynamic offset through the `square` LUT
/// (degree-2 → exactly representable); the reset is a [`PostStepRule`]
/// applied identically in the fixed-point and floating-point simulators
/// (a comparator in the PE datapath). A grid of neurons receives
/// heterogeneous injected currents (seeded), giving the de-synchronized
/// firing the paper's Fig. 11 raster shows.
#[derive(Debug, Clone, PartialEq)]
pub struct Izhikevich {
    /// Recovery time scale `a` (0.02 for regular spiking).
    pub a: f64,
    /// Recovery sensitivity `b`.
    pub b: f64,
    /// Post-spike reset `c` (mV).
    pub c: f64,
    /// Post-spike recovery increment `d`.
    pub d: f64,
    /// Mean injected current.
    pub i_mean: f64,
    /// Half-width of the uniform current jitter.
    pub i_jitter: f64,
    /// Integration step (ms).
    pub dt: f64,
    /// RNG seed for the current map.
    pub seed: u64,
}

impl Default for Izhikevich {
    fn default() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -65.0,
            d: 8.0,
            i_mean: 10.0,
            i_jitter: 2.0,
            dt: 0.25,
            seed: 42,
        }
    }
}

impl DynamicalSystem for Izhikevich {
    fn name(&self) -> &'static str {
        "izhikevich"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let v = b.dynamic_layer("v", Boundary::Zero);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let sq = b.register_func(funcs::square());

        // dv/dt: 5·v linear centre; −u cross-layer; 140 + I offsets;
        // 0.04·v² dynamic.
        b.state_template(v, v, mapping::center(5.0).into_state_template());
        b.state_template(v, u, mapping::center(-1.0).into_template());
        b.offset(v, 140.0);
        b.input_template(v, v, mapping::center(1.0).into_template());
        b.offset_expr(
            v,
            WeightExpr::product(0.04, vec![Factor { func: sq, layer: v }]),
        );

        // du/dt = a·b·v − a·u.
        b.state_template(u, v, mapping::center(self.a * self.b).into_template());
        b.state_template(u, u, mapping::center(-self.a).into_state_template());

        // v transiently overshoots past +30 before the reset clips it.
        let mut cfg = cenn_core::LutConfig::default();
        cfg.per_func_specs
            .push((sq, cenn_lut::LutSpec::unit_spacing(-120, 160)));
        b.lut_config(cfg);
        b.post_step(PostStepRule::SpikeReset {
            v_layer: v,
            u_layer: u,
            threshold: 30.0,
            reset_v: self.c,
            bump_u: self.d,
        });
        let model = b.build(self.dt)?;

        // One seeded draw per cell, row-major: cell (r, c) is draw
        // r·cols + c.
        let seed = self.seed;
        let (lo, hi) = (self.i_mean - self.i_jitter, self.i_mean + self.i_jitter);
        let input = if self.i_jitter > 0.0 {
            Field::cells(move |r, c| seeded_draw(seed, r * cols + c, lo, hi))
        } else {
            Field::Const(self.i_mean)
        };
        let init_v = Field::Const(self.c);
        let init_u = Field::Const(self.b * self.c);
        Ok(SystemSetup {
            model,
            initial: vec![(v, init_v), (u, init_u)],
            inputs: vec![(v, input)],
            observed: vec![(v, "v"), (u, "u")],
        })
    }

    fn default_steps(&self) -> u64 {
        4000
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
    fn model_structure() {
        let setup = Izhikevich::default().build(8, 8).unwrap();
        assert_eq!(setup.model.n_layers(), 2);
        assert_eq!(setup.model.wui_template_count(), 1);
        assert_eq!(setup.model.lookups_per_cell_step(), 1);
        assert!(setup.model.post_step().is_some());
    }

    #[test]
    fn regular_spiking_neuron_fires_repeatedly() {
        let sys = Izhikevich {
            i_jitter: 0.0,
            ..Default::default()
        };
        let setup = sys.build(1, 1).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let mut spikes = 0;
        for _ in 0..1600 {
            spikes += runner.step();
        }
        // RS neuron at I=10 fires a few Hz-scale train over 400 ms.
        assert!(spikes >= 3, "spike count {spikes}");
    }

    #[test]
    fn membrane_never_exceeds_threshold_after_reset() {
        let setup = Izhikevich::default().build(4, 4).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        for _ in 0..400 {
            runner.step();
            let v = runner.observed_states()[0].1.clone();
            assert!(v.max_abs() < 200.0, "v bounded");
            for &x in v.iter() {
                assert!(x < 30.0, "post-reset v = {x} above threshold");
            }
        }
    }

    #[test]
    fn seeded_currents_match_sequential_draws() {
        // The construction the field replaces: one draw per cell,
        // row-major.
        let (rows, cols) = (11, 17);
        let sys = Izhikevich::default();
        let mut rng = StdRng::seed_from_u64(sys.seed);
        let (lo, hi) = (sys.i_mean - sys.i_jitter, sys.i_mean + sys.i_jitter);
        let want = Grid::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi));
        let setup = sys.build(rows, cols).unwrap();
        let got = setup.inputs[0].1.to_grid(rows, cols).unwrap();
        let bits = |g: &Grid<f64>| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn heterogeneous_currents_desynchronize() {
        let setup = Izhikevich::default().build(4, 4).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        // After a while, not all neurons are in the same phase: the v map
        // has non-trivial spread.
        runner.run(800);
        let v = runner.observed_states()[0].1.clone();
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        assert!(hi - lo > 1.0, "neurons desynchronized: spread {}", hi - lo);
    }
}
