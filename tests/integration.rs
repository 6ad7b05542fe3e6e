//! End-to-end integration: every benchmark system flows through the whole
//! stack — model → bitstream program → functional fixed-point simulation →
//! measured miss rates → cycle-level estimate.

use cenn::arch::MemorySpec;
use cenn::equations::{all_benchmarks, DynamicalSystem};
use cenn::program::{Program, SolverSession};

#[test]
fn every_benchmark_runs_end_to_end_on_ddr3() {
    for sys in all_benchmarks() {
        let setup = sys
            .build(32, 32)
            .unwrap_or_else(|_| panic!("{}", sys.name()));
        let mut session = SolverSession::new(setup.model.clone(), MemorySpec::ddr3())
            .unwrap_or_else(|_| panic!("{}", sys.name()));
        for (layer, field) in &setup.initial {
            let grid = field.to_grid(32, 32).unwrap();
            session.sim_mut().set_state_f64(*layer, &grid).unwrap();
        }
        for (layer, field) in &setup.inputs {
            let grid = field.to_grid(32, 32).unwrap();
            session.sim_mut().set_input_f64(*layer, &grid).unwrap();
        }
        session.run(10);
        let est = session.estimate();
        assert!(
            est.time_per_step_s() > 0.0,
            "{}: positive step time",
            sys.name()
        );
        assert!(
            est.system_power_w() > 0.5,
            "{}: at least on-chip power",
            sys.name()
        );
        // States stayed finite (saturating arithmetic can clamp but the
        // solver must not produce wild garbage on its own benchmarks).
        for (name, grid) in FixedObserved::of(&session, &setup) {
            assert!(
                grid.max_abs() < 30_000.0,
                "{}: layer {name} exploded to {}",
                sys.name(),
                grid.max_abs()
            );
        }
    }
}

/// Helper to read observed states out of a session.
struct FixedObserved;
impl FixedObserved {
    fn of(
        session: &SolverSession,
        setup: &cenn::equations::SystemSetup,
    ) -> Vec<(&'static str, cenn::core::Grid<f64>)> {
        setup
            .observed
            .iter()
            .map(|(id, name)| (*name, session.sim().state_f64(*id)))
            .collect()
    }
}

#[test]
fn program_bitstreams_are_deterministic_and_distinct() {
    let mut images = Vec::new();
    for sys in all_benchmarks() {
        let setup = sys.build(32, 32).unwrap();
        let a = Program::from_model(&setup.model).unwrap().encode();
        let b = Program::from_model(&setup.model).unwrap().encode();
        assert_eq!(a, b, "{}: deterministic compilation", sys.name());
        images.push((sys.name(), a));
    }
    for i in 0..images.len() {
        for j in i + 1..images.len() {
            assert_ne!(
                images[i].1, images[j].1,
                "{} and {} must compile to different programs",
                images[i].0, images[j].0
            );
        }
    }
}

#[test]
fn measured_miss_rates_feed_plausible_estimates() {
    // Reaction-diffusion: the Fig. 3 example. Warm up, measure, estimate.
    let sys = cenn::equations::ReactionDiffusion::default();
    let setup = sys.build(64, 64).unwrap();
    let mut session = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
    for (layer, field) in &setup.initial {
        let grid = field.to_grid(64, 64).unwrap();
        session.sim_mut().set_state_f64(*layer, &grid).unwrap();
    }
    session.run(20);
    let (mr1, mr2) = session.miss_rates();
    assert!((0.0..=1.0).contains(&mr1));
    assert!((0.0..=1.0).contains(&mr2));
    // The solver touches the LUT every cell/step: rates must be measured,
    // not the degenerate 0/0.
    assert!(session.sim().lut_stats().accesses > 0);

    let ddr = session.estimate().time_per_step_s();
    session.set_memory(MemorySpec::hmc_ext());
    let ext = session.estimate().time_per_step_s();
    session.set_memory(MemorySpec::hmc_int());
    let int = session.estimate().time_per_step_s();
    assert!(ext < ddr, "HMC-EXT faster than DDR3");
    assert!(int < ddr, "HMC-INT faster than DDR3");
    assert!(ext < int, "EXT's 10 GHz I/O beats INT's 2.5 GHz (§6.4)");
}

#[test]
fn five_by_five_kernels_flow_through_the_whole_stack() {
    // The Size_kernel program field is not hard-wired to 3: build heat on
    // the 4th-order 5x5 Laplacian, run it, compile it, round-trip it.
    use cenn::core::{mapping, Boundary, CennModelBuilder, CennSim, Grid};
    let mut b = CennModelBuilder::new(32, 32);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    b.state_template(
        u,
        u,
        mapping::laplacian_4th_order(0.5, 1.0).into_state_template(),
    );
    let model = b.build(0.1).unwrap();
    assert_eq!(model.kernel_size(), 5);

    let mut sim = CennSim::new(model.clone()).unwrap();
    let blob = Grid::from_fn(32, 32, |r, c| {
        let d2 = (r as f64 - 16.0).powi(2) + (c as f64 - 16.0).powi(2);
        8.0 * (-d2 / 18.0).exp()
    });
    sim.set_state_f64(u, &blob).unwrap();
    sim.run(50);
    let s = sim.state_f64(u);
    assert!(
        s.get(16, 16) < 8.0 && s.get(16, 16) > 0.5,
        "diffused sanely"
    );
    let total: f64 = s.as_slice().iter().sum();
    let before: f64 = blob.as_slice().iter().sum();
    assert!((total - before).abs() / before < 0.01, "mass conserved");

    let p = Program::from_model(&model).unwrap();
    assert_eq!(p.kernel, 5);
    assert_eq!(Program::decode(&p.encode()).unwrap(), p);
    // The cycle model charges 25 cycles per sub-block for the 5x5 pass.
    let est = cenn::arch::CycleModel::new(MemorySpec::hmc_int(), Default::default())
        .estimate(&model, (0.0, 0.0));
    assert_eq!(est.timing().conv_cycles, 16.0 * 25.0);
}

#[test]
fn facade_modules_are_wired() {
    // Spot-check each facade module exports something real.
    let x = cenn::fx::Q16_16::from_f64(1.5);
    assert_eq!(x.int_part(), 1);
    let _ = cenn::lut::LutSpec::unit_spacing(-4, 4);
    let _ = cenn::arch::MemorySpec::hmc_int();
    let _ = cenn::baselines::gtx850_gpu();
    assert_eq!(cenn::equations::all_benchmarks().len(), 6);
}
