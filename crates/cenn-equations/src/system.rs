//! The benchmark-system interface.

use cenn_core::{CennModel, LayerId, ModelError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use cenn_core::{Field, PostStepRule};

/// Everything needed to execute a benchmark: the CeNN program (including
/// any post-step rule), initial conditions, external inputs, and which
/// layers the accuracy study observes. Initial conditions and inputs are
/// per-cell [`Field`]s, not grids: a memory-budgeted [`FixedRunner`]
/// writes them straight into its chunk spool, so no whole-grid copy of
/// the setup is ever held.
///
/// [`FixedRunner`]: crate::FixedRunner
#[derive(Debug, Clone)]
pub struct SystemSetup {
    /// The validated CeNN program.
    pub model: CennModel,
    /// Initial state per layer (layers not listed start at zero).
    pub initial: Vec<(LayerId, Field)>,
    /// External input maps (the `u` of eq. 1) per layer, if any.
    pub inputs: Vec<(LayerId, Field)>,
    /// Layers whose trajectories are compared against the reference
    /// (Fig. 11), with display names.
    pub observed: Vec<(LayerId, &'static str)>,
}

/// What `gen_range(lo..hi)` returns after `k` earlier draws from
/// `StdRng::seed_from_u64(seed)` (each draw takes one output). Seeded
/// initial conditions call it per cell, so a field yields any cell
/// without drawing the cells before it.
pub(crate) fn seeded_draw(seed: u64, k: usize, lo: f64, hi: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.jump(k as u64);
    rng.gen_range(lo..hi)
}

/// A benchmark dynamical system that can be compiled to a CeNN program.
pub trait DynamicalSystem {
    /// Display name (matches the paper's benchmark list).
    fn name(&self) -> &'static str;

    /// Builds the CeNN program and initial data for a `rows × cols` grid.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from model validation (e.g. grids too
    /// small for the system's stencils make no sense but are not rejected;
    /// layer-count and timestep violations are).
    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError>;

    /// Steps the paper-scale experiment runs (used by the benchmark
    /// harness; accuracy tests may use fewer).
    fn default_steps(&self) -> u64;

    /// Default grid side for the performance comparison.
    fn default_side(&self) -> usize {
        64
    }
}

/// All six benchmarks of §6.1 with their default parameters, in the
/// paper's order.
pub fn all_benchmarks() -> Vec<Box<dyn DynamicalSystem>> {
    vec![
        Box::new(crate::Heat::default()),
        Box::new(crate::NavierStokes::default()),
        Box::new(crate::Fisher::default()),
        Box::new(crate::ReactionDiffusion::default()),
        Box::new(crate::HodgkinHuxley::default()),
        Box::new(crate::Izhikevich::default()),
    ]
}

/// Additional systems beyond the paper's six: the §2 order-reduction
/// example (wave equation), self-advection (Burgers), and Gray–Scott
/// pattern formation — demonstrating that the solver generalizes past the
/// evaluated set.
pub fn extended_benchmarks() -> Vec<Box<dyn DynamicalSystem>> {
    vec![
        Box::new(crate::Wave::default()),
        Box::new(crate::Burgers::default()),
        Box::new(crate::GrayScott::default()),
    ]
}

/// Looks up any benchmark (paper or extended) by its stable name, e.g.
/// `"fisher"` or `"gray-scott"`. Returns `None` for unknown names; the
/// full menu is [`all_benchmarks`] + [`extended_benchmarks`].
pub fn system_by_name(name: &str) -> Option<Box<dyn DynamicalSystem>> {
    all_benchmarks()
        .into_iter()
        .chain(extended_benchmarks())
        .find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_by_name_finds_paper_and_extended_systems() {
        assert_eq!(system_by_name("heat").unwrap().name(), "heat");
        assert_eq!(system_by_name("gray-scott").unwrap().name(), "gray-scott");
        assert!(system_by_name("warp-drive").is_none());
    }

    #[test]
    fn spike_reset_fires_and_resets() {
        let rule = PostStepRule::SpikeReset {
            v_layer: LayerId::from_index(0),
            u_layer: LayerId::from_index(1),
            threshold: 30.0,
            reset_v: -65.0,
            bump_u: 8.0,
        };
        let mut spiking = [35.0, 1.0];
        assert!(rule.apply_cell(&mut spiking));
        assert_eq!(spiking, [-65.0, 9.0]);
        // A cell below threshold is untouched.
        let mut resting = [0.0, 1.0];
        assert!(!rule.apply_cell(&mut resting));
        assert_eq!(resting, [0.0, 1.0]);
    }

    #[test]
    fn all_benchmarks_has_the_papers_six() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            [
                "heat",
                "navier-stokes",
                "fisher",
                "reaction-diffusion",
                "hodgkin-huxley",
                "izhikevich"
            ]
        );
    }

    #[test]
    fn every_benchmark_builds_on_a_small_grid() {
        for b in all_benchmarks() {
            let setup = b.build(16, 16).unwrap_or_else(|_| panic!("{}", b.name()));
            assert_eq!(setup.model.rows(), 16, "{}", b.name());
            assert!(!setup.observed.is_empty(), "{}", b.name());
            assert!(b.default_steps() > 0);
            assert!(b.default_side() >= 16);
        }
    }
}
