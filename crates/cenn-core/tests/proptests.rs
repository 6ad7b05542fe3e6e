//! Property-based tests for the CeNN model and functional simulator.

use cenn_core::{
    mapping, Boundary, CennModel, CennModelBuilder, CennSim, Factor, Grid, Integrator, LayerId,
    LutConfig, StreamConfig, StreamSim, Template, TemplateKind, TilePlan, WeightExpr,
};
use cenn_lut::{FuncId, LutHierarchy, SampleIdx, Tum};
use fixedpt::{MacAcc, Q16_16};
use proptest::prelude::*;

fn small_grid(rows: usize, cols: usize, lo: f64, hi: f64) -> impl Strategy<Value = Grid<f64>> {
    prop::collection::vec(lo..hi, rows * cols)
        .prop_map(move |v| Grid::from_fn(rows, cols, |r, c| v[r * cols + c]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn heat_obeys_the_discrete_maximum_principle(init in small_grid(8, 8, -4.0, 4.0)) {
        // With a stable step (4*kappa*dt/h^2 < 1) the explicit heat update
        // is a convex combination: values never leave the initial range.
        let mut b = CennModelBuilder::new(8, 8);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::heat_template(0.5, 1.0));
        let mut sim = CennSim::new(b.build(0.2).unwrap()).unwrap();
        sim.set_state_f64(u, &init).unwrap();
        let (lo, hi) = init.as_slice().iter().fold((f64::MAX, f64::MIN),
            |(l, h), &v| (l.min(v), h.max(v)));
        sim.run(30);
        for &v in sim.state_f64(u).as_slice() {
            prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} left [{lo}, {hi}]");
        }
    }

    #[test]
    fn heat_conserves_mass_with_zero_flux(init in small_grid(8, 8, -2.0, 2.0)) {
        let mut b = CennModelBuilder::new(8, 8);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::heat_template(0.5, 1.0));
        let mut sim = CennSim::new(b.build(0.2).unwrap()).unwrap();
        sim.set_state_f64(u, &init).unwrap();
        let before: f64 = sim.state_f64(u).as_slice().iter().sum();
        sim.run(25);
        let after: f64 = sim.state_f64(u).as_slice().iter().sum();
        prop_assert!((before - after).abs() < 0.05, "{before} -> {after}");
    }

    #[test]
    fn periodic_heat_is_translation_equivariant(init in small_grid(8, 8, -2.0, 2.0)) {
        // Shifting the initial condition on a torus and evolving equals
        // evolving and then shifting — the CeNN array is space-invariant
        // for constant templates.
        let build = || {
            let mut b = CennModelBuilder::new(8, 8);
            let u = b.dynamic_layer("u", Boundary::Periodic);
            b.state_template(u, u, mapping::heat_template(0.25, 1.0));
            (b.build(0.2).unwrap(), u)
        };
        let shifted = Grid::from_fn(8, 8, |r, c| init.get((r + 3) % 8, (c + 5) % 8));

        let (m1, u1) = build();
        let mut a = CennSim::new(m1).unwrap();
        a.set_state_f64(u1, &init).unwrap();
        a.run(10);
        let evolved = a.state_f64(u1);
        let evolved_then_shifted = Grid::from_fn(8, 8, |r, c| evolved.get((r + 3) % 8, (c + 5) % 8));

        let (m2, u2) = build();
        let mut b2 = CennSim::new(m2).unwrap();
        b2.set_state_f64(u2, &shifted).unwrap();
        b2.run(10);
        let shifted_then_evolved = b2.state_f64(u2);

        for r in 0..8 {
            for c in 0..8 {
                prop_assert!(
                    (evolved_then_shifted.get(r, c) - shifted_then_evolved.get(r, c)).abs() < 1e-9,
                    "equivariance broke at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn simulation_is_deterministic(init in small_grid(6, 6, -2.0, 2.0), steps in 1u64..20) {
        let build = || {
            let mut b = CennModelBuilder::new(6, 6);
            let u = b.dynamic_layer("u", Boundary::Periodic);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.state_template(u, u, mapping::heat_template(0.3, 1.0));
            b.offset_expr(u, cenn_core::WeightExpr::dynamic(-0.1, sq, u));
            (b.build(0.1).unwrap(), u)
        };
        let (m1, u1) = build();
        let (m2, u2) = build();
        let mut a = CennSim::new(m1).unwrap();
        let mut b2 = CennSim::new(m2).unwrap();
        a.set_state_f64(u1, &init).unwrap();
        b2.set_state_f64(u2, &init).unwrap();
        a.run(steps);
        b2.run(steps);
        prop_assert_eq!(a.state(u1).as_slice(), b2.state(u2).as_slice());
        prop_assert_eq!(a.lut_stats(), b2.lut_stats());
    }

    #[test]
    fn tile_plan_covers_every_cell_exactly_once(
        rows in 1usize..40, cols in 1usize..40,
        pe_rows in 1usize..12, pe_cols in 1usize..12,
    ) {
        // The row pattern is a partition: walking every shard's rows
        // visits every cell exactly once, always in the shard of its own
        // PE, and the pattern holds `pe_rows × cols` entries.
        let plan = TilePlan::new(rows, cols, pe_rows, pe_cols);
        let pattern = plan.row_pattern();
        prop_assert_eq!(pattern.n_shards(), plan.n_shards());
        let mut seen = vec![0u32; rows * cols];
        for s in 0..pattern.n_shards() {
            for (r, run, pes) in pattern.shard_rows(s, 0..rows) {
                prop_assert_eq!(run.len(), pes.len());
                for (&c, &pe) in run.iter().zip(pes) {
                    prop_assert_eq!(pe as usize, plan.pe_of(r, c as usize));
                    prop_assert_eq!(pe as usize / cenn_lut::PES_PER_L2, s);
                    seen[r * cols + c as usize] += 1;
                }
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "partition broken");
        prop_assert!(pattern.bytes() >= 8 * pe_rows * cols, "4 B column and PE id per entry");
    }

    #[test]
    fn threaded_simulation_matches_serial(
        init in small_grid(6, 6, -2.0, 2.0),
        threads in 2usize..6,
        steps in 1u64..10,
    ) {
        // The determinism contract: any worker count yields bit-identical
        // states AND LUT statistics, even with dynamic (LUT-driven) weights.
        let build = || {
            let mut b = CennModelBuilder::new(6, 6);
            let u = b.dynamic_layer("u", Boundary::Periodic);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.state_template(u, u, mapping::heat_template(0.3, 1.0));
            b.offset_expr(u, cenn_core::WeightExpr::dynamic(-0.1, sq, u));
            (b.build(0.1).unwrap(), u)
        };
        let (m1, u1) = build();
        let (m2, u2) = build();
        let mut serial = CennSim::new(m1).unwrap();
        let mut par = CennSim::new(m2).unwrap();
        par.set_threads(threads);
        serial.set_state_f64(u1, &init).unwrap();
        par.set_state_f64(u2, &init).unwrap();
        serial.run(steps);
        par.run(steps);
        prop_assert_eq!(serial.state(u1).as_slice(), par.state(u2).as_slice());
        prop_assert_eq!(serial.lut_stats(), par.lut_stats());
    }

    #[test]
    fn linear_superposition_holds_for_linear_models(
        f in small_grid(6, 6, -1.0, 1.0),
        g in small_grid(6, 6, -1.0, 1.0),
    ) {
        // For a purely linear template, evolve(f) + evolve(g) =
        // evolve(f + g) up to fixed-point rounding accumulation.
        let build = || {
            let mut b = CennModelBuilder::new(6, 6);
            let u = b.dynamic_layer("u", Boundary::Periodic);
            b.state_template(u, u, mapping::heat_template(0.4, 1.0));
            (b.build(0.2).unwrap(), u)
        };
        let run = |init: &Grid<f64>| {
            let (m, u) = build();
            let mut s = CennSim::new(m).unwrap();
            s.set_state_f64(u, init).unwrap();
            s.run(10);
            s.state_f64(u)
        };
        let sum_init = Grid::from_fn(6, 6, |r, c| f.get(r, c) + g.get(r, c));
        let a = run(&f);
        let b2 = run(&g);
        let ab = run(&sum_init);
        for r in 0..6 {
            for c in 0..6 {
                let lin = a.get(r, c) + b2.get(r, c);
                prop_assert!((lin - ab.get(r, c)).abs() < 1e-3,
                    "superposition at ({r},{c}): {lin} vs {}", ab.get(r, c));
            }
        }
    }

    #[test]
    fn boundary_resolution_is_always_in_bounds(
        rows in 1usize..16, cols in 1usize..16,
        r0 in 0usize..16, c0 in 0usize..16,
        dr in -3i32..=3, dc in -3i32..=3,
    ) {
        prop_assume!(r0 < rows && c0 < cols);
        for b in [Boundary::ZeroFlux, Boundary::Periodic, Boundary::Dirichlet(1.0), Boundary::Zero] {
            if let Some((r, c)) = b.resolve(rows, cols, r0, c0, dr, dc) {
                prop_assert!(r < rows && c < cols);
            }
        }
    }

    #[test]
    fn quantization_round_trip_error_is_bounded(init in small_grid(5, 5, -100.0, 100.0)) {
        let mut b = CennModelBuilder::new(5, 5);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.set_state_f64(u, &init).unwrap();
        let back = sim.state_f64(u);
        for (a, b2) in init.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b2).abs() <= 0.5 / 65536.0 + 1e-12);
        }
    }

    #[test]
    fn stencils_quantize_losslessly_for_dyadic_weights(k in -8i32..8, shift in 0u32..8) {
        // Weights that are dyadic rationals (the common case: 1/h^2 with
        // h a power of two) survive template quantization exactly.
        let w = k as f64 / (1u64 << shift) as f64;
        let t = mapping::center(w).into_template();
        match t.get(0, 0) {
            cenn_core::WeightExpr::Const(q) => prop_assert_eq!(q.to_f64(), w),
            _ => prop_assert!(false, "constant expected"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_from_fn_and_enumerate_agree(rows in 1usize..12, cols in 1usize..12) {
        let g = Grid::from_fn(rows, cols, |r, c| (r * 31 + c) as i64);
        for ((r, c), v) in g.enumerate() {
            prop_assert_eq!(v, (r * 31 + c) as i64);
        }
        prop_assert_eq!(g.len(), rows * cols);
    }

    #[test]
    fn grid_q16_map_round_trip(vals in prop::collection::vec(-100.0f64..100.0, 9)) {
        let g = Grid::from_fn(3, 3, |r, c| vals[r * 3 + c]);
        let q = g.map(Q16_16::from_f64);
        let back = q.map(|v| v.to_f64());
        let (mean, _) = g.abs_error_stats(&back);
        prop_assert!(mean <= 0.5 / 65536.0);
    }
}

/// A deterministic draw stream for the random-model test (xorshift64).
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A raw Q16.16 word of at most `bits` magnitude bits (31: any word).
    fn word(&mut self, bits: u32) -> Q16_16 {
        Q16_16::from_bits((self.next() as i32) >> (31 - bits))
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// How wide a random model's weights and states are.
#[derive(Clone, Copy)]
enum Magnitude {
    /// Words of at most `(weight, state)` magnitude bits.
    Bits(u32, u32),
    /// Words within 2^20 of the rail of one sign for the weights and one
    /// for the states, so products share a sign and sums saturate.
    Rails(bool, bool),
    /// Words within 2^12 of either rail, signs drawn per word: sums
    /// saturate and come back, and `MAX − 2p` style results land on the
    /// grid's range, so where a term falls in the `MacAcc` order shows.
    Seesaw,
}

impl Magnitude {
    fn word(self, d: &mut Draw, weight: bool) -> Q16_16 {
        match self {
            Self::Bits(w, x) => d.word(if weight { w } else { x }),
            Self::Rails(w, x) => {
                let off = (d.next() >> 44) as i32;
                let negative = if weight { w } else { x };
                Q16_16::from_bits(if negative {
                    i32::MIN + off
                } else {
                    i32::MAX - off
                })
            }
            Self::Seesaw => {
                let off = (d.next() >> 52) as i32;
                Q16_16::from_bits(if d.below(2) == 0 {
                    i32::MIN + off
                } else {
                    i32::MAX - off
                })
            }
        }
    }
}

/// A random model: 1–3 dynamic layers of random boundary kinds, each
/// with random 3×3 state, output and input templates and offsets, on a
/// 1×1 to 20×20 grid. A model draws how many of its taps and offsets are
/// dynamic weights (none, some or most): a scale times one to three
/// factors, each a registered LUT function of a random layer's state.
/// One magnitude draw per model sets how wide its weights and states
/// are: a few bits (every constant-weight accumulator bound far below
/// 2⁶³), full 32-bit words, or words at the rails whose sums saturate
/// (and, with mixed signs, come back into range).
fn random_model(d: &mut Draw, heun: bool) -> (CennModel, Vec<Vec<Q16_16>>, Vec<Vec<Q16_16>>) {
    let (rows, cols) = (1 + d.below(20), 1 + d.below(20));
    let n = 1 + d.below(3);
    let magnitude = match d.below(6) {
        0 => Magnitude::Bits(6, 12),
        1 => Magnitude::Bits(14, 20),
        2 => Magnitude::Bits(22, 31),
        3 => Magnitude::Bits(31, 31),
        4 => Magnitude::Seesaw,
        _ => Magnitude::Rails(d.below(2) == 0, d.below(2) == 0),
    };
    let mut b = CennModelBuilder::new(rows, cols);
    let layers: Vec<LayerId> = (0..n)
        .map(|i| {
            let boundary = match d.below(4) {
                0 => Boundary::ZeroFlux,
                1 => Boundary::Periodic,
                2 => Boundary::Dirichlet(d.word(20).to_f64()),
                _ => Boundary::Zero,
            };
            b.dynamic_layer(&format!("l{i}"), boundary)
        })
        .collect();
    let funcs: Vec<FuncId> = [
        cenn_lut::funcs::identity(),
        cenn_lut::funcs::square(),
        cenn_lut::funcs::tanh(),
        cenn_lut::funcs::sin(),
    ]
    .into_iter()
    .take(1 + d.below(4))
    .map(|f| b.register_func(f))
    .collect();
    // `dyn_share` weights in four are dynamic.
    let dyn_share = d.pick(&[0, 1, 3]);
    let weight = |d: &mut Draw| {
        let scale = magnitude.word(d, true);
        if d.below(4) >= dyn_share {
            return WeightExpr::Const(scale);
        }
        let factors = (0..1 + d.below(3))
            .map(|_| Factor {
                func: d.pick(&funcs),
                layer: d.pick(&layers),
            })
            .collect();
        WeightExpr::Dyn { scale, factors }
    };
    for &dest in &layers {
        for kind in 0..3 {
            if d.below(3) == 0 {
                continue;
            }
            let src = d.pick(&layers);
            let mut t = Template::zero(3);
            for dr in -1..=1 {
                for dc in -1..=1 {
                    if d.below(2) == 0 {
                        t.set(dr, dc, weight(d));
                    }
                }
            }
            match kind {
                0 => b.state_template(dest, src, t),
                1 => b.output_template(dest, src, t),
                _ => b.input_template(dest, src, t),
            };
        }
        for _ in 0..d.below(3) {
            b.offset_expr(dest, weight(d));
        }
    }
    b.integrator(if heun {
        Integrator::Heun
    } else {
        Integrator::Euler
    });
    let model = b.build(d.pick(&[0.5, 0.25, 0.125, 0.1])).unwrap();
    let mut field = || (0..rows * cols).map(|_| magnitude.word(d, false)).collect();
    let states = (0..n).map(|_| field()).collect();
    let inputs = (0..n).map(|_| field()).collect();
    (model, states, inputs)
}

/// Eq. (1)'s right-hand side of every layer, cell by cell, as the PE
/// computes it: one `MacAcc` per cell — the leak, then every tap of every
/// state, output and input template in declaration order, each operand
/// resolved through its source's boundary, then the offsets — rounded
/// once. A dynamic weight is its scale times each factor's `l(x)` in
/// order, at the cell's own state: the off-chip entry at the clamped
/// sample index through the TUM (cache state changes no value), with
/// saturating adds throughout, so the engine's plain adds on tables
/// whose bound proves them exact are checked against it.
fn reference_rhs(
    m: &CennModel,
    states: &[Vec<Q16_16>],
    inputs: &[Vec<Q16_16>],
) -> Vec<Vec<Q16_16>> {
    let (rows, cols) = (m.rows(), m.cols());
    let cfg = m.lut_config();
    let specs: Vec<_> = m.library().iter().map(|(f, _)| cfg.spec_for(f)).collect();
    let luts = LutHierarchy::build_with_specs(m.library(), &specs, 1, 1, 1).unwrap();
    let weight = |w: &WeightExpr, cell: usize| match w {
        WeightExpr::Const(v) => *v,
        WeightExpr::Dyn { scale, factors } => factors.iter().fold(*scale, |acc, f| {
            let table = luts.table(f.func);
            let x = states[f.layer.index()][cell];
            let spacing = table.spec().log2_inv_spacing;
            let entry = table.read(table.clamp_idx(SampleIdx::of(x, spacing)));
            acc * Tum::eval(entry, x, spacing, false).value
        }),
    };
    m.layer_ids()
        .map(|dest| {
            (0..rows * cols)
                .map(|cell| {
                    let (r, c) = (cell / cols, cell % cols);
                    let mut acc = MacAcc::<16>::new();
                    acc.mac(Q16_16::NEG_ONE, states[dest.index()][cell]);
                    for kind in [
                        TemplateKind::State,
                        TemplateKind::Output,
                        TemplateKind::Input,
                    ] {
                        for (src, t) in m.templates(kind, dest) {
                            let boundary = m.layer(src).boundary();
                            let grid = match kind {
                                TemplateKind::Input => &inputs[src.index()],
                                _ => &states[src.index()],
                            };
                            for (dr, dc, w) in t.iter() {
                                let v = match boundary.resolve(rows, cols, r, c, dr, dc) {
                                    Some((nr, nc)) => grid[nr * cols + nc],
                                    None => Q16_16::from_f64(boundary.constant()),
                                };
                                let v = match kind {
                                    TemplateKind::Output => v.cenn_output(),
                                    _ => v,
                                };
                                acc.mac(weight(w, cell), v);
                            }
                        }
                    }
                    for w in m.offsets(dest) {
                        acc.add(weight(w, cell));
                    }
                    acc.resolve()
                })
                .collect()
        })
        .collect()
}

/// One reference step: forward Euler, or Heun's predictor and corrector,
/// each a single wide-MAC rounding per cell.
fn reference_step(
    m: &CennModel,
    states: &[Vec<Q16_16>],
    inputs: &[Vec<Q16_16>],
) -> Vec<Vec<Q16_16>> {
    let euler = |x: &[Vec<Q16_16>], k: &[Vec<Q16_16>]| -> Vec<Vec<Q16_16>> {
        x.iter()
            .zip(k)
            .map(|(x, k)| {
                x.iter()
                    .zip(k)
                    .map(|(&x, &k)| {
                        let mut acc = MacAcc::<16>::with_init(x);
                        acc.mac(m.dt_fx(), k);
                        acc.resolve()
                    })
                    .collect()
            })
            .collect()
    };
    let k1 = reference_rhs(m, states, inputs);
    if m.integrator() == Integrator::Euler {
        return euler(states, &k1);
    }
    let k2 = reference_rhs(m, &euler(states, &k1), inputs);
    let half = Q16_16::from_f64(m.dt() / 2.0);
    states
        .iter()
        .zip(k1.iter().zip(&k2))
        .map(|(x0, (k1, k2))| {
            x0.iter()
                .zip(k1.iter().zip(k2))
                .map(|(&x0, (&k1, &k2))| {
                    let mut acc = MacAcc::<16>::with_init(x0);
                    acc.mac(half, k1);
                    acc.mac(half, k2);
                    acc.resolve()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_direct_sweep_matches_a_scalar_mac_acc_reference(case in any::<u64>()) {
        // Both accumulate modes (unsaturated where the weights bound every
        // accumulator below 2^63, saturating elsewhere), constant and
        // dynamic weights (lane-weight groups, site lanes as operands),
        // every boundary kind, grids on and off the 8x8 PE array: two
        // steps in-core at 1 and 3 threads, and streamed at a random chunk
        // height, equal the scalar reference bit for bit.
        let mut d = Draw(case | 1);
        for heun in [false, true] {
            let (model, states, inputs) = random_model(&mut d, heun);
            let (rows, cols) = (model.rows(), model.cols());
            let mut want = states.clone();
            for _ in 0..2 {
                want = reference_step(&model, &want, &inputs);
            }
            let want: Vec<Vec<i32>> = want
                .iter()
                .map(|l| l.iter().map(|v| v.to_bits()).collect())
                .collect();
            let chunk = 1 + d.below(rows);
            for threads in [1, 3] {
                let mut sim = CennSim::new(model.clone()).unwrap();
                sim.set_threads(threads);
                for (id, (x, u)) in model.layer_ids().zip(states.iter().zip(&inputs)) {
                    sim.set_state(id, Grid::from_fn(rows, cols, |r, c| x[r * cols + c])).unwrap();
                    sim.set_input(id, Grid::from_fn(rows, cols, |r, c| u[r * cols + c])).unwrap();
                }
                let dir = std::env::temp_dir().join(format!(
                    "cenn_row_direct_{}_{case}_{heun}_{threads}",
                    std::process::id()
                ));
                let mut streamed =
                    StreamSim::from_sim(&sim, StreamConfig::new(&dir).with_chunk_rows(chunk)).unwrap();
                streamed.set_threads(threads);
                sim.run(2);
                streamed.run(2).unwrap();
                let what = format!("{rows}x{cols} heun={heun} threads={threads} chunk={chunk}");
                prop_assert_eq!(&sim.snapshot().states, &want, "in-core {}", what);
                prop_assert_eq!(&streamed.snapshot().unwrap().states, &want, "streamed {}", what);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A single-LUT-layer model on a `pe_rows × pe_cols` PE array with small
/// LUT caches (2-block L1s, 8-entry L2s), so hits, refills and DRAM
/// bursts all occur.
fn one_lut_layer_model(rows: usize, cols: usize, pe: (usize, usize)) -> (CennModel, LayerId) {
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let f = b.register_func(cenn_lut::funcs::tanh());
    b.state_template(u, u, mapping::heat_template(0.05, 1.0));
    b.offset_expr(u, WeightExpr::dynamic(0.5, f, u));
    b.lut_config(LutConfig {
        l1_blocks: 2,
        l2_capacity: 8,
        pe_rows: pe.0,
        pe_cols: pe.1,
        ..LutConfig::default()
    });
    (b.build(0.1).unwrap(), u)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lut_counters_replay_the_serial_walk_for_any_pe_shape(
        rows in 1usize..24, cols in 1usize..24,
        pe_rows in 1usize..12, pe_cols in 1usize..12,
        values in prop::collection::vec(-100.0f64..100.0, 23 * 23),
        chunk in 1usize..24,
        case in 0u64..u64::MAX,
    ) {
        // When `pe_cols` is not a multiple of 4 a shard spans two PE rows;
        // whatever the PE shape, every counter must equal a scalar replay
        // that looks up cell by cell in row-major order, on each step's
        // pre-step states (unit spacing: about 200 sample indices).
        let (model, u) = one_lut_layer_model(rows, cols, (pe_rows, pe_cols));
        let init = Grid::from_fn(rows, cols, |r, c| values[r * 23 + c]);
        let fresh = || {
            let mut sim = CennSim::new(model.clone()).unwrap();
            sim.set_state_f64(u, &init).unwrap();
            sim
        };
        let func = cenn_lut::FuncId(0);
        let mut replay = LutHierarchy::build(
            model.library(),
            model.lut_config().default_spec,
            2,
            8,
            pe_rows * pe_cols,
        )
        .unwrap();
        let plan = TilePlan::new(rows, cols, pe_rows, pe_cols);
        let mut serial = fresh();
        for _ in 0..3 {
            let states = serial.state(u);
            for r in 0..rows {
                for c in 0..cols {
                    replay.lookup(plan.pe_of(r, c), func, states.get(r, c));
                }
            }
            serial.step();
        }
        let n_pes = pe_rows * pe_cols;
        for threads in 1..=3 {
            let mut sim = fresh();
            sim.set_threads(threads);
            sim.run(3);
            prop_assert_eq!(sim.lut_stats(), replay.stats(), "{} threads", threads);
            for pe in 0..n_pes {
                prop_assert_eq!(sim.pe_lut_stats(pe), replay.pe_stats(pe), "PE {}", pe);
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "cenn_prop_pe_shape_{}_{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut streamed =
            StreamSim::from_sim(&fresh(), StreamConfig::new(&dir).with_chunk_rows(chunk)).unwrap();
        streamed.run(3).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(streamed.lut_stats(), replay.stats(), "{}-row chunks", chunk);
        for pe in 0..n_pes {
            prop_assert_eq!(streamed.pe_lut_stats(pe), replay.pe_stats(pe), "PE {}", pe);
        }
    }
}
