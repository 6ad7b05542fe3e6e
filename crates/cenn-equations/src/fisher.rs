//! Fisher's equation — coupled diffusion + logistic growth.

use cenn_core::{mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, WeightExpr};
use cenn_lut::funcs;

use crate::system::{DynamicalSystem, SystemSetup};

/// Fisher–KPP: `∂u/∂t = D·Δu + r·u·(1−u)`.
///
/// Mapping: the diffusion is a linear state template; the logistic term is
/// split as `r·u` (a constant centre weight, since it is linear in the
/// state) plus `−r·u²` (a dynamic offset through the `square` LUT).
/// `square` is degree-2, so the degree-3 Taylor LUT represents it exactly —
/// Fisher exercises the real-time weight-update *machinery* (misses,
/// stalls) with negligible LUT *error*, exactly the behaviour the paper
/// reports for low-order polynomial interactions (§6.1).
///
/// Default scenario: a travelling invasion front from the left wall.
#[derive(Debug, Clone, PartialEq)]
pub struct Fisher {
    /// Diffusion coefficient D.
    pub diffusion: f64,
    /// Growth rate r.
    pub rate: f64,
    /// Grid spacing.
    pub h: f64,
    /// Integration step.
    pub dt: f64,
}

impl Default for Fisher {
    fn default() -> Self {
        Self {
            diffusion: 1.0,
            rate: 1.0,
            h: 1.0,
            dt: 0.1,
        }
    }
}

impl DynamicalSystem for Fisher {
    fn name(&self) -> &'static str {
        "fisher"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        let sq = b.register_func(funcs::square());
        // D·Δu + r·u  (the r·u is linear: fold into the centre weight).
        let mut stencil = mapping::laplacian(self.diffusion, self.h);
        stencil.set(0, 0, stencil.get(0, 0) + self.rate);
        b.state_template(u, u, stencil.into_state_template());
        // −r·u² through the LUT (square is represented exactly).
        b.offset_expr(
            u,
            WeightExpr::product(-self.rate, vec![Factor { func: sq, layer: u }]),
        );
        // u stays in [0, 1]: sample at 2^-5 so the logistic weight update
        // actually exercises the LUT hierarchy across the front profile.
        let mut cfg = cenn_core::LutConfig::default();
        cfg.per_func_specs
            .push((sq, cenn_lut::LutSpec::covering(-1.0, 2.0, 5)));
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        let front = Field::cells(move |_, c| if c < cols / 8 + 1 { 1.0 } else { 0.0 });
        Ok(SystemSetup {
            model,
            initial: vec![(u, front)],
            inputs: vec![],
            observed: vec![(u, "u")],
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

    #[test]
    fn fisher_has_one_wui_site() {
        let setup = Fisher::default().build(16, 16).unwrap();
        assert_eq!(setup.model.wui_template_count(), 1);
        assert_eq!(setup.model.lookups_per_cell_step(), 1);
    }

    #[test]
    fn front_propagates_rightward() {
        let setup = Fisher::default().build(8, 32).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let occupied_before = count_occupied(&runner);
        runner.run(150);
        let occupied_after = count_occupied(&runner);
        assert!(
            occupied_after > occupied_before + 8,
            "front advanced: {occupied_before} -> {occupied_after}"
        );
        // The wake saturates at the carrying capacity u = 1.
        let u = runner.observed_states()[0].1.clone();
        assert!((u.get(4, 1) - 1.0).abs() < 0.05, "wake = {}", u.get(4, 1));
    }

    fn count_occupied(runner: &FixedRunner) -> usize {
        runner.observed_states()[0]
            .1
            .iter()
            .filter(|&&v| v > 0.5)
            .count()
    }

    #[test]
    fn states_remain_bounded_in_unit_interval() {
        let setup = Fisher::default().build(8, 16).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(100);
        for &v in runner.observed_states()[0].1.iter() {
            assert!((-0.05..=1.05).contains(&v), "u escaped: {v}");
        }
    }
}
