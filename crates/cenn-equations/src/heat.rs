//! Heat diffusion — the paper's simplest benchmark (single linear PDE).

use cenn_core::{mapping, Boundary, CennModelBuilder, Field, ModelError};

use crate::system::{DynamicalSystem, SystemSetup};

/// `∂φ/∂t = κ·Δφ` (eq. 5), mapped to the single linear state template of
/// eq. (7). No LUT traffic at all — the linear-template baseline case.
///
/// The default scenario is a hot Gaussian blob on a cold plate with
/// zero-flux walls.
#[derive(Debug, Clone, PartialEq)]
pub struct Heat {
    /// Thermal diffusivity κ.
    pub kappa: f64,
    /// Grid spacing h.
    pub h: f64,
    /// Integration step Δt (stability requires `4κΔt/h² < 1`).
    pub dt: f64,
    /// Peak temperature of the initial blob.
    pub peak: f64,
}

impl Default for Heat {
    fn default() -> Self {
        Self {
            kappa: 1.0,
            h: 1.0,
            dt: 0.1,
            peak: 8.0,
        }
    }
}

impl DynamicalSystem for Heat {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let phi = b.dynamic_layer("phi", Boundary::ZeroFlux);
        b.state_template(
            phi,
            phi,
            mapping::laplacian(self.kappa, self.h).into_state_template(),
        );
        let model = b.build(self.dt)?;

        let (cr, cc) = (rows as f64 / 2.0, cols as f64 / 2.0);
        let sigma2 = (rows.min(cols) as f64 / 8.0).powi(2).max(1.0);
        let peak = self.peak;
        let init = Field::cells(move |r, c| {
            let d2 = (r as f64 - cr).powi(2) + (c as f64 - cc).powi(2);
            peak * (-d2 / (2.0 * sigma2)).exp()
        });
        Ok(SystemSetup {
            model,
            initial: vec![(phi, init)],
            inputs: vec![],
            observed: vec![(phi, "phi")],
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
    fn heat_model_is_fully_linear() {
        let setup = Heat::default().build(16, 16).unwrap();
        assert_eq!(setup.model.n_layers(), 1);
        assert_eq!(setup.model.wui_template_count(), 0);
        assert_eq!(setup.model.lookups_per_cell_step(), 0);
    }

    #[test]
    fn blob_diffuses_outward() {
        let setup = Heat::default().build(17, 17).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let before = runner.observed_states()[0].1.get(8, 8);
        runner.run(50);
        let after = runner.observed_states()[0].1.clone();
        assert!(after.get(8, 8) < before, "peak decays");
        assert!(after.get(8, 12) > 0.01, "heat reaches mid-distance");
        // Maximum principle: nothing exceeds the initial peak.
        assert!(after.max_abs() <= before + 1e-6);
    }

    #[test]
    fn stability_bound_respected_by_defaults() {
        let h = Heat::default();
        assert!(4.0 * h.kappa * h.dt / (h.h * h.h) < 1.0);
    }
}
