//! Property-based tests over the benchmark systems: boundedness,
//! determinism, and build robustness across grid sizes and seeds.

use cenn_equations::{
    all_benchmarks, extended_benchmarks, DynamicalSystem, FixedRunner, Izhikevich,
    ReactionDiffusion,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_system_builds_on_odd_and_even_grids(rows in 8usize..40, cols in 8usize..40) {
        for sys in all_benchmarks().iter().chain(extended_benchmarks().iter()) {
            let setup = sys.build(rows, cols).unwrap();
            prop_assert_eq!(setup.model.rows(), rows, "{}", sys.name());
            prop_assert_eq!(setup.model.cols(), cols, "{}", sys.name());
            // Initial grids match the model shape.
            for (_, f) in &setup.initial {
                let g = f.to_grid(rows, cols).unwrap();
                prop_assert_eq!((g.rows(), g.cols()), (rows, cols));
            }
            for (_, f) in &setup.inputs {
                let g = f.to_grid(rows, cols).unwrap();
                prop_assert_eq!((g.rows(), g.cols()), (rows, cols));
            }
        }
    }

    #[test]
    fn rd_stays_bounded_for_any_seed(seed in 0u64..10_000) {
        let sys = ReactionDiffusion { seed, ..ReactionDiffusion::default() };
        let mut runner = FixedRunner::new(sys.build(12, 12).unwrap()).unwrap();
        runner.run(150);
        for (name, g) in runner.observed_states() {
            prop_assert!(g.max_abs() < 5.0, "{name} blew up: {}", g.max_abs());
        }
    }

    #[test]
    fn izhikevich_spikes_for_any_seed_and_reasonable_current(
        seed in 0u64..10_000,
        i_mean in 8.0f64..14.0,
    ) {
        let sys = Izhikevich { seed, i_mean, ..Izhikevich::default() };
        let mut runner = FixedRunner::new(sys.build(3, 3).unwrap()).unwrap();
        let fired = runner.run(1600);
        prop_assert!(fired > 0, "no spikes at I={i_mean}, seed {seed}");
        // Reset keeps v under threshold after every step batch.
        let v = runner.observed_states()[0].1.clone();
        for &x in v.iter() {
            prop_assert!(x < 30.0);
        }
    }

    #[test]
    fn same_seed_same_trajectory(seed in 0u64..1000) {
        let run = || {
            let sys = ReactionDiffusion { seed, ..ReactionDiffusion::default() };
            let mut r = FixedRunner::new(sys.build(8, 8).unwrap()).unwrap();
            r.run(40);
            r.observed_states()[0].1.clone()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}
