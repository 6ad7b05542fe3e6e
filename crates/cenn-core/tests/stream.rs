//! Property tests for the streamed out-of-core engine: bit-identity with
//! the in-core simulator across window sizes and thread counts (including
//! many windows of one height per pass), canonical per-step
//! observability equality, and mid-sweep kill/restart recovery from
//! spilled chunks, torn ones included.

use std::path::PathBuf;

use cenn_core::{
    mapping, Boundary, CennModelBuilder, CennSim, Factor, Grid, Integrator, LayerId, StreamConfig,
    StreamError, StreamSim, Template, WeightExpr,
};
use cenn_obs::MetricsHub;
use proptest::prelude::*;

fn spool_dir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cenn_stream_prop_{tag}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Fisher-style Euler model: one dynamic layer, zero-flux boundary, a
/// logistic LUT offset — the canonical single-LUT-layer case where the
/// streamed engine must match the in-core one on every counter.
fn fisher_sim(rows: usize, cols: usize, init: &Grid<f64>) -> CennSim {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let sq = b.register_func(cenn_lut::funcs::square());
    let mut stencil = mapping::laplacian(0.25, 1.0);
    stencil.set(0, 0, stencil.get(0, 0) + 1.0);
    b.state_template(u, u, stencil.into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(-1.0, vec![Factor { func: sq, layer: u }]),
    );
    let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
    sim.set_state_f64(u, init).unwrap();
    sim
}

/// Two-layer Heun model with mixed boundaries: `u` (zero-flux) carries
/// the only dynamic LUT sites; `v` (periodic) is pure linear coupling
/// plus an external input drive. Periodic `v` makes halo resolution wrap
/// across the window set; the input template exercises the `in` chunk
/// stream.
fn heun_sim(rows: usize, cols: usize, init: &Grid<f64>) -> CennSim {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let v = b.dynamic_layer("v", Boundary::Periodic);
    let sq = b.register_func(cenn_lut::funcs::square());
    let mut stencil = mapping::laplacian(0.2, 1.0);
    stencil.set(0, 0, stencil.get(0, 0) + 0.5);
    b.state_template(u, u, stencil.into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(-0.5, vec![Factor { func: sq, layer: u }]),
    );
    b.state_template(v, v, mapping::laplacian(0.15, 1.0).into_state_template());
    b.state_template(v, u, Template::from_constants(&[0.1]));
    b.input_template(v, v, Template::from_constants(&[0.3]));
    b.integrator(Integrator::Heun);
    let mut sim = CennSim::new(b.build(0.04).unwrap()).unwrap();
    sim.set_state_f64(u, init).unwrap();
    sim.set_state_f64(v, &init.map(|x| 0.5 - 0.25 * x)).unwrap();
    sim.set_input_f64(
        v,
        &Grid::from_fn(rows, cols, |r, c| 0.1 * ((r + 2 * c) % 5) as f64),
    )
    .unwrap();
    sim
}

fn grid_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Grid<f64>> {
    prop::collection::vec(0.02f64..0.9, rows * cols)
        .prop_map(move |v| Grid::from_fn(rows, cols, |r, c| v[r * cols + c]))
}

/// Canonical per-step observability: sweeps labels, cell counts,
/// residual, and per-shard LUT deltas. Wall-clock fields excluded.
fn step_fingerprint(s: &cenn_core::StepStats) -> (Vec<String>, u64, u64, Vec<cenn_lut::LutStats>) {
    (
        s.sweeps.iter().map(|(l, _)| l.to_string()).collect(),
        s.cells,
        (s.residual * 65536.0).round() as u64,
        s.shard_lut.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn euler_streamed_is_bit_identical_across_windows_and_threads(
        init in grid_strategy(13, 9),
        chunk in 1usize..16,
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut in_core = fisher_sim(13, 9, &init);
        in_core.set_threads(threads);
        let dir = spool_dir("euler", case);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(&dir).with_chunk_rows(chunk),
        ).unwrap();
        streamed.set_threads(threads);
        streamed.set_residual_tracking(true);
        in_core.set_residual_tracking(true);
        for _ in 0..6 {
            in_core.step();
            streamed.step().unwrap();
            prop_assert_eq!(
                step_fingerprint(in_core.step_stats()),
                step_fingerprint(streamed.step_stats())
            );
        }
        let snap = streamed.snapshot().unwrap();
        prop_assert_eq!(&snap.states, &in_core.snapshot().states);
        prop_assert_eq!(snap.steps, 6);
        prop_assert_eq!(snap.time.to_bits(), in_core.snapshot().time.to_bits());
        // Single LUT-bearing layer: cache counters match exactly too.
        prop_assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heun_streamed_is_bit_identical_with_mixed_boundaries_and_inputs(
        init in grid_strategy(11, 7),
        chunk in 1usize..14,
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut in_core = heun_sim(11, 7, &init);
        in_core.set_threads(threads);
        let dir = spool_dir("heun", case);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(&dir).with_chunk_rows(chunk),
        ).unwrap();
        streamed.set_threads(threads);
        streamed.set_residual_tracking(true);
        in_core.set_residual_tracking(true);
        for _ in 0..5 {
            in_core.step();
            streamed.step().unwrap();
            prop_assert_eq!(
                step_fingerprint(in_core.step_stats()),
                step_fingerprint(streamed.step_stats())
            );
        }
        prop_assert_eq!(&streamed.snapshot().unwrap().states, &in_core.snapshot().states);
        prop_assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        for layer in [LayerId::from_index(0), LayerId::from_index(1)] {
            let a = streamed.state_f64(layer).unwrap();
            let b = in_core.state_f64(layer);
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_sweep_kill_and_recover_is_bit_identical(
        init in grid_strategy(12, 6),
        chunk in 1usize..8,
        kill_windows in 1usize..12,
        heun in any::<bool>(),
        threads_sel in 0usize..2,
        case in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 4][threads_sel];
        let mut reference = if heun {
            heun_sim(12, 6, &init)
        } else {
            fisher_sim(12, 6, &init)
        };
        let dir = spool_dir("kill", case);
        let cfg = StreamConfig::new(&dir).with_chunk_rows(chunk);
        let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
        streamed.set_threads(threads);
        reference.run(5);
        streamed.run(2).unwrap();
        // "Kill" the process mid-step after an arbitrary number of window
        // executions (possibly crossing pass or step boundaries), then
        // recover from the journal + spilled chunks alone.
        let windows_per_step =
            streamed.n_windows() * if heun { 2 } else { 1 };
        streamed.step_windows(kill_windows % windows_per_step.max(1)).unwrap();
        let model = reference.model().clone();
        drop(streamed);
        let mut recovered = StreamSim::recover(model, cfg).unwrap();
        recovered.set_threads(threads);
        let done = recovered.steps();
        prop_assert!(done >= 2);
        recovered.run(5 - done).unwrap();
        let snap = recovered.snapshot().unwrap();
        let want = reference.snapshot();
        prop_assert_eq!(&snap.states, &want.states);
        prop_assert_eq!(snap.steps, want.steps);
        prop_assert_eq!(snap.time.to_bits(), want.time.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn reused_window_lanes_are_bit_identical_and_counted(
        values in prop::collection::vec(0.02f64..0.9, 80 * 20),
        case in 0u64..u64::MAX,
    ) {
        // Grids tall enough for several windows per pass, in heights
        // that are and are not a multiple of the 8 PE rows.
        for (heun, rows, cols) in [(false, 64, 20), (true, 80, 13)] {
            let init = Grid::from_fn(rows, cols, |r, c| values[r * cols + c]);
            for chunk in [8usize, 16, 24, 12] {
                for threads in [1usize, 4] {
                    let mut in_core = if heun {
                        heun_sim(rows, cols, &init)
                    } else {
                        fisher_sim(rows, cols, &init)
                    };
                    in_core.set_threads(threads);
                    in_core.set_residual_tracking(true);
                    let dir = spool_dir("reuse", case);
                    let mut streamed = StreamSim::from_sim(
                        &in_core,
                        StreamConfig::new(&dir).with_chunk_rows(chunk),
                    ).unwrap();
                    let hub = MetricsHub::new();
                    streamed.set_metrics(hub.clone());
                    streamed.set_threads(threads);
                    streamed.set_residual_tracking(true);
                    let steps = 4u64;
                    for _ in 0..steps {
                        in_core.step();
                        streamed.step().unwrap();
                        prop_assert_eq!(
                            step_fingerprint(in_core.step_stats()),
                            step_fingerprint(streamed.step_stats())
                        );
                    }
                    prop_assert_eq!(&streamed.snapshot().unwrap().states, &in_core.snapshot().states);
                    prop_assert_eq!(streamed.lut_stats(), in_core.lut_stats());
                    let windows = streamed.n_windows() as u64;
                    let passes = if heun { 2 } else { 1 };
                    let counters = hub.snapshot();
                    prop_assert_eq!(
                        counters.counter("stream.windows_swept_total"),
                        Some(windows * passes * steps)
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }

    #[test]
    fn torn_chunk_of_the_killed_window_is_rewritten_on_recover(
        init in grid_strategy(12, 6),
        chunk in 1usize..8,
        kill_windows in 0usize..12,
        heun in any::<bool>(),
        truncate in any::<bool>(),
        cut in 1usize..256,
        case in 0u64..u64::MAX,
    ) {
        let mut reference = if heun {
            heun_sim(12, 6, &init)
        } else {
            fisher_sim(12, 6, &init)
        };
        let dir = spool_dir("torn", case);
        let cfg = StreamConfig::new(&dir).with_chunk_rows(chunk);
        let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
        reference.run(5);
        streamed.run(2).unwrap();
        let n = streamed.n_windows();
        let done = kill_windows % (n * if heun { 2 } else { 1 });
        streamed.step_windows(done).unwrap();
        // The window a kill interrupts mid-write: Euler and Heun's
        // corrector write the next-parity state chunk, Heun's predictor
        // writes `pred` and `k1`. Chunks are overwritten in place, so the
        // kill leaves a truncated file or a new prefix over old bytes.
        let (pass, w) = (done / n, done % n);
        let next = if streamed.steps().is_multiple_of(2) { "x1" } else { "x0" };
        let torn = if heun && pass == 0 { vec!["pred", "k1"] } else { vec![next] };
        drop(streamed);
        for stream in torn {
            let path = dir.join(format!("{stream}_{w:05}.ckpt"));
            let mut bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len() - 1);
            if truncate {
                bytes.truncate(cut);
            } else {
                bytes[..cut].fill(0xA5);
            }
            std::fs::write(&path, bytes).unwrap();
        }
        let mut recovered = StreamSim::recover(reference.model().clone(), cfg).unwrap();
        prop_assert_eq!(recovered.steps(), 2);
        recovered.run(3).unwrap();
        let snap = recovered.snapshot().unwrap();
        let want = reference.snapshot();
        prop_assert_eq!(&snap.states, &want.states);
        prop_assert_eq!(snap.steps, want.steps);
        prop_assert_eq!(snap.time.to_bits(), want.time.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn window_spanning_the_whole_grid_still_streams() {
    let init = Grid::from_fn(9, 5, |r, c| 0.1 + 0.05 * ((r * 5 + c) % 7) as f64);
    let mut in_core = fisher_sim(9, 5, &init);
    let dir = spool_dir("whole", 0);
    // chunk_rows beyond the grid clamps to one full-grid window.
    let mut streamed =
        StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_chunk_rows(64)).unwrap();
    assert_eq!(streamed.n_windows(), 1);
    assert_eq!(streamed.chunk_rows(), 9);
    in_core.run(8);
    streamed.run(8).unwrap();
    assert_eq!(
        streamed.snapshot().unwrap().states,
        in_core.snapshot().states
    );
    assert!(streamed.spill_bytes() > 0, "single window still spools");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_bounds_the_resident_window() {
    let init = Grid::from_fn(64, 32, |r, c| 0.1 + 0.01 * ((r + c) % 11) as f64);
    let in_core = fisher_sim(64, 32, &init);
    let dir = spool_dir("budget", 0);
    let budget = 24 * 1024;
    let mut streamed =
        StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_memory_budget(budget)).unwrap();
    assert!(streamed.n_windows() > 1, "budget must force windowing");
    streamed.run(3).unwrap();
    assert!(
        streamed.peak_resident_bytes() <= budget,
        "peak resident {} exceeds budget {budget}",
        streamed.peak_resident_bytes()
    );
    let mut reference = fisher_sim(64, 32, &init);
    reference.run(3);
    assert_eq!(
        streamed.snapshot().unwrap().states,
        reference.snapshot().states
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn budgets_of_at_least_one_row_are_never_exceeded(
        rows in 8usize..72,
        cols in 1usize..40,
        budget in 4096u64..300_000,
        heun in any::<bool>(),
        case in 0u64..u64::MAX,
    ) {
        // The solver charges exactly what the window holds, and the sweep
        // scratch does not grow with the window, so every budget that buys
        // one row — at least what a run in one-row chunks peaks at — bounds
        // the peak, for the single-LUT-layer Euler model and the two-layer
        // Heun model with inputs. A smaller budget is refused, naming that
        // one-row peak as its cost.
        let init = Grid::from_fn(rows, cols, |r, c| 0.1 + 0.01 * ((r + c) % 7) as f64);
        let in_core = if heun {
            heun_sim(rows, cols, &init)
        } else {
            fisher_sim(rows, cols, &init)
        };
        let peak_of = |cfg: StreamConfig| {
            let mut streamed = StreamSim::from_sim(&in_core, cfg).unwrap();
            streamed.run(2).unwrap();
            (streamed.chunk_rows(), streamed.peak_resident_bytes())
        };
        let dir = spool_dir("budget", case);
        let (_, one_row) = peak_of(StreamConfig::new(&dir).with_chunk_rows(1));
        let cfg = StreamConfig::new(&dir).with_memory_budget(budget);
        if budget >= one_row {
            let (chunk, peak) = peak_of(cfg);
            prop_assert!(peak <= budget, "{rows}x{cols} in {chunk}-row chunks: {peak} > {budget}");
        } else {
            match StreamSim::from_sim(&in_core, cfg).err() {
                Some(StreamError::BudgetBelowRow { budget: b, row_cost }) => {
                    prop_assert_eq!(b, budget);
                    prop_assert_eq!(row_cost, one_row, "the refusal names one row's peak");
                }
                other => prop_assert!(false, "{rows}x{cols} under {budget}: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fisher_256_squared_holds_a_256_kib_budget() {
    // It peaked at 269,404 bytes in 11-row chunks when the solver
    // undercounted what a window holds.
    let init = Grid::from_fn(256, 256, |r, c| 0.05 + 0.001 * ((r * 3 + c) % 17) as f64);
    let in_core = fisher_sim(256, 256, &init);
    let dir = spool_dir("fisher256", 0);
    let budget = 256 << 10;
    let mut streamed =
        StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_memory_budget(budget)).unwrap();
    streamed.run(1).unwrap();
    assert!(streamed.peak_resident_bytes() <= budget);
    let _ = std::fs::remove_dir_all(&dir);
}
