//! Property-based tests for the LUT hierarchy invariants.

use cenn_lut::{
    funcs, FuncId, FuncLibrary, Level, LutEntry, LutHierarchy, LutSpec, RowCtx, SampleIdx, Tum,
};
use fixedpt::Q16_16;
use proptest::prelude::*;
use proptest::prop::sample::Index;

/// One batched-lane cell: its PE within the shard under test, and six
/// states, each an index into the case's state pool plus a sub-sample
/// jitter selector. A `k`-function lane reads the first `k` states.
type Cell = (u32, Vec<(Index, usize)>);

fn lane() -> impl Strategy<Value = Vec<Cell>> {
    prop::collection::vec(
        (
            0u32..4,
            prop::collection::vec((any::<Index>(), 0usize..3), 6),
        ),
        1..201,
    )
}

/// `k` functions, each sampled over its own range and spacing.
fn library(k: usize) -> (FuncLibrary, Vec<LutSpec>) {
    let all = [
        funcs::tanh(),
        funcs::exp(),
        funcs::sin(),
        funcs::square(),
        funcs::cube(),
        funcs::sigmoid(2.0),
    ];
    let mut lib = FuncLibrary::new();
    let mut specs = Vec::new();
    for (i, f) in all.into_iter().take(k).enumerate() {
        lib.register(f);
        specs.push(LutSpec::covering(
            -3.0 - i as f64,
            2.0 + i as f64,
            i as u32 % 4,
        ));
    }
    (lib, specs)
}

/// A raw Q16.16 word from a few bits up to the rails: a random word
/// shifted right by 0–31 bits, or one of the two rails.
fn word() -> impl Strategy<Value = i32> {
    (any::<i32>(), 0u32..34).prop_map(|(w, s)| match s {
        32 => i32::MAX,
        33 => i32::MIN,
        s => w >> s,
    })
}

/// The TUM's Horner evaluation as it was before any add was proven
/// exact: `Q16_16`'s saturating multiply and add at every step.
fn saturating_horner(e: LutEntry, x: Q16_16, log2_inv_spacing: u32) -> Q16_16 {
    let delta = Tum::delta(x, log2_inv_spacing);
    if delta.is_zero() {
        return e.l_p;
    }
    let mut acc = e.a3;
    acc = acc * delta + e.a2;
    acc = acc * delta + e.a1;
    acc * delta + e.l_p
}

/// The Horner sum of `e` at raw offset `delta` (unit spacing) with
/// `Tum::product`'s rounding and every add in `i64`: what plain `i32`
/// adds would give if they could not overflow.
fn wide_horner(e: LutEntry, delta: i32) -> i64 {
    let product = |acc: i64| (acc * i64::from(delta) + (1 << 15)) >> 16;
    let [l_p, a1, a2, a3] = [e.l_p, e.a1, e.a2, e.a3].map(|w| i64::from(w.to_bits()));
    product(product(product(a3) + a2) + a1) + l_p
}

/// Drives `word` of `func`'s entry at `idx` to `target` through
/// single-bit faults, one per bit that differs.
fn fault_word_to(h: &mut LutHierarchy, func: FuncId, idx: SampleIdx, word: usize, target: i32) {
    let e = h.table(func).read(idx);
    let diff = [e.l_p, e.a1, e.a2, e.a3][word].to_bits() ^ target;
    for bit in (0..32).filter(|b| diff >> b & 1 == 1) {
        h.inject_fault(func, idx, word, bit).unwrap();
    }
}

/// The scalar reference for a batched lane: one `lookup` per cell and
/// function, cells outer and functions inner.
fn scalar_lane(h: &mut LutHierarchy, funcs: &[FuncId], pes: &[u32], xs: &[i32]) -> Vec<i32> {
    let k = funcs.len();
    let mut out = Vec::with_capacity(xs.len());
    for (&pe, cell) in pes.iter().zip(xs.chunks_exact(k)) {
        for (&f, &x) in funcs.iter().zip(cell) {
            out.push(h.lookup(pe as usize, f, Q16_16::from_bits(x)).0.to_bits());
        }
    }
    out
}

proptest! {
    #[test]
    fn polynomial_lookups_match_exact_within_quantization(
        k0 in -4.0f64..4.0,
        k1 in -2.0f64..2.0,
        k2 in -1.0f64..1.0,
        k3 in -0.5f64..0.5,
        xs in prop::collection::vec(-7.5f64..7.5, 1..30),
    ) {
        // Degree-3 polynomials are represented exactly by the degree-3
        // Taylor entries: the only residual is Q16.16 quantization of the
        // coefficients and the Horner arithmetic.
        let mut lib = FuncLibrary::new();
        let f = lib.register(funcs::poly3([k0, k1, k2, k3]));
        let mut h = LutHierarchy::build(&lib, LutSpec::unit_spacing(-8, 8), 4, 32, 4).unwrap();
        for x in xs {
            let q = Q16_16::from_f64(x);
            let (got, _) = h.lookup(0, f, q);
            let exact = k0 + q.to_f64() * (k1 + q.to_f64() * (k2 + q.to_f64() * k3));
            // Error bound: coefficient quantization (4 coefficients, each
            // up to half ULP) amplified by |delta| < 1 powers, plus Horner
            // rounding: comfortably under 1e-3 for these ranges.
            prop_assert!((got.to_f64() - exact).abs() < 1e-3,
                "poly({x}) = {} vs {exact}", got.to_f64());
        }
    }

    #[test]
    fn stats_counters_are_consistent(
        xs in prop::collection::vec(-15.9f64..15.9, 1..100),
        l1 in 1usize..8,
        pes in 1usize..8,
    ) {
        let mut lib = FuncLibrary::new();
        let f = lib.register(funcs::tanh());
        let mut h = LutHierarchy::build(&lib, LutSpec::unit_spacing(-16, 16), l1, 32, pes).unwrap();
        for (i, x) in xs.iter().enumerate() {
            h.lookup(i % pes, f, Q16_16::from_f64(*x));
        }
        let s = h.stats();
        prop_assert_eq!(s.accesses as usize, xs.len());
        prop_assert_eq!(s.l1_hits + s.l2_hits + s.dram_fetches, s.accesses);
        prop_assert_eq!(s.dram_points, s.dram_fetches * 8);
        let (mr1, mr2) = h.miss_rates();
        prop_assert!((0.0..=1.0).contains(&mr1));
        prop_assert!((0.0..=1.0).contains(&mr2));
    }

    #[test]
    fn repeated_lookup_always_hits_l1(x in -15.9f64..15.9) {
        let mut lib = FuncLibrary::new();
        let f = lib.register(funcs::sin());
        let mut h = LutHierarchy::build(&lib, LutSpec::unit_spacing(-16, 16), 4, 32, 1).unwrap();
        let q = Q16_16::from_f64(x);
        let (v1, _) = h.lookup(0, f, q);
        let (v2, o2) = h.lookup(0, f, q);
        prop_assert_eq!(v1, v2, "lookups are deterministic");
        prop_assert_eq!(o2.filled_from, Level::L1);
    }

    #[test]
    fn lookup_value_independent_of_cache_state(
        warm in prop::collection::vec(-15.9f64..15.9, 0..50),
        x in -15.9f64..15.9,
    ) {
        // The hierarchy is a cache: contents never change values, only
        // latency. A cold and a warmed hierarchy agree on every value.
        // (Every word of e^10 fits Q16.16; states past 10 clamp to it.)
        let mut lib = FuncLibrary::new();
        let f = lib.register(funcs::exp());
        let spec = LutSpec::unit_spacing(-16, 10);
        let mut cold = LutHierarchy::build(&lib, spec, 4, 32, 1).unwrap();
        let mut warmed = LutHierarchy::build(&lib, spec, 4, 32, 1).unwrap();
        for w in warm {
            warmed.lookup(0, f, Q16_16::from_f64(w));
        }
        let q = Q16_16::from_f64(x);
        prop_assert_eq!(cold.lookup(0, f, q).0, warmed.lookup(0, f, q).0);
    }

    #[test]
    fn out_of_range_states_clamp_to_boundary_sample(x in 20.0f64..1000.0) {
        let mut lib = FuncLibrary::new();
        let f = lib.register(funcs::tanh());
        let mut h = LutHierarchy::build(&lib, LutSpec::unit_spacing(-8, 8), 4, 32, 1).unwrap();
        let (hi, _) = h.lookup(0, f, Q16_16::from_f64(x));
        // tanh saturates: any clamped out-of-range read lands near 1.
        prop_assert!((hi.to_f64() - 1.0).abs() < 0.1, "{}", hi.to_f64());
    }

    #[test]
    fn checksum_detects_every_single_bit_flip(
        l_p in -30000.0f64..30000.0,
        a1 in -30000.0f64..30000.0,
        a2 in -30000.0f64..30000.0,
        a3 in -30000.0f64..30000.0,
        word in 0usize..4,
        bit in 0u32..32,
    ) {
        // Any single-bit upset in any of the four stored words must change
        // the checksum — the detection guarantee the guard's scrub pass
        // rests on.
        let base = LutEntry::quantize(l_p, a1, a2, a3);
        let mut hit = base;
        let target = match word {
            0 => &mut hit.l_p,
            1 => &mut hit.a1,
            2 => &mut hit.a2,
            _ => &mut hit.a3,
        };
        *target = fixedpt::Q16_16::from_bits(target.to_bits() ^ (1 << bit));
        prop_assert_ne!(hit.checksum(), base.checksum());
    }

    #[test]
    fn scrub_restores_corrupted_table_bit_exactly(
        idx in -8i32..=8,
        word in 0usize..4,
        bit in 0u32..32,
    ) {
        let func = funcs::tanh();
        let spec = LutSpec::unit_spacing(-8, 8);
        let mut table = cenn_lut::OffChipLut::generate(&func, spec).unwrap();
        let clean = table.clone();
        prop_assert!(clean.exact_adds());
        table.flip_bit(SampleIdx(idx), word, bit).unwrap();
        prop_assert_eq!(table.corrupt_entries(), 1);
        let proven = (-8..=8).all(|i| table.read(SampleIdx(i)).adds_exact());
        prop_assert_eq!(table.exact_adds(), proven, "the add proof follows the flip");
        let report = table.scrub(&func);
        prop_assert_eq!(report.repaired, 1);
        prop_assert_eq!(table.corrupt_entries(), 0);
        prop_assert!(table.exact_adds(), "the scrub restores the add proof");
        for i in -8..=8 {
            prop_assert_eq!(table.read(SampleIdx(i)), clean.read(SampleIdx(i)));
        }
    }

    #[test]
    fn horner_products_lie_between_zero_and_the_accumulator(
        acc in word(),
        delta in 0i32..1 << 16,
    ) {
        // 0 <= delta < 2^16 scales by less than one, so the rounded
        // product never reaches the rails Q16_16's multiply clamps to.
        let p = Tum::product(acc, delta);
        prop_assert!((acc.min(0)..=acc.max(0)).contains(&p), "{acc} * {delta} -> {p}");
        prop_assert_eq!(p, (Q16_16::from_bits(acc) * Q16_16::from_bits(delta)).to_bits());
    }

    #[test]
    fn tum_eval_under_the_entry_proof_equals_the_saturating_horner(
        (l_p, a1, a2, a3) in (word(), word(), word(), word()),
        x in word(),
        spacing in 0u32..=16,
    ) {
        // Plain adds where the entry's bound proves them exact (a debug
        // build panics on any overflow), saturating ones elsewhere: the
        // same bits as saturating every step, for any words and states.
        let [l_p, a1, a2, a3] = [l_p, a1, a2, a3].map(Q16_16::from_bits);
        let e = LutEntry { l_p, a1, a2, a3 };
        let x = Q16_16::from_bits(x);
        let want = saturating_horner(e, x, spacing);
        let got = Tum::eval(e, x, spacing, e.adds_exact());
        prop_assert_eq!(got.value, want, "{:?} at {:?}, spacing 2^-{}", e, x, spacing);
        prop_assert_eq!(got.exact, Tum::delta(x, spacing).is_zero());
        prop_assert_eq!(Tum::eval(e, x, spacing, false).value, want);
    }

    #[test]
    fn a_fault_past_the_add_bound_takes_the_saturating_adds(
        k in 1usize..5,
        at in any::<Index>(),
        high in any::<bool>(),
        lane in prop::collection::vec((0u32..4, -2i32..3, any::<u16>()), 1..100),
    ) {
        // Single-bit faults drive a3 and l(p) of one entry of function 0
        // (unit spacing) to the same rail: the entry is past the add
        // bound, so the table loses its proof until a scrub. Off its
        // sample point the Horner sum's last add then leaves i32, and
        // every value, from the value function or a scalar lookup, must
        // pin it at the rail as the saturating Horner does; the replay
        // keeps the scalar counters. The lane's first state sits just
        // below the next sample point, where the sum is furthest out; the
        // others sit on and around the faulted entry, off their sample
        // points by a random offset. Every function reads the same state.
        let (lib, specs) = library(k);
        let funcs: Vec<FuncId> = lib.iter().map(|(id, _)| id).collect();
        let ctxs: Vec<RowCtx> = funcs
            .iter()
            .zip(&specs)
            .map(|(&f, &spec)| RowCtx::from_spec(f, spec))
            .collect();
        let spec = specs[0];
        let idx = SampleIdx(spec.min_idx + at.index(spec.len()) as i32);
        let rail = if high { i32::MAX } else { i32::MIN };
        let build = || LutHierarchy::build_with_specs(&lib, &specs, 4, 32, 8).unwrap();
        let mut hs = [build(), build()];
        for h in &mut hs {
            prop_assert!(h.table(funcs[0]).exact_adds());
            for word in [3, 0] {
                fault_word_to(h, funcs[0], idx, word, rail);
            }
            prop_assert!(!h.table(funcs[0]).exact_adds(), "the proof must be gone");
        }
        let [scalar, replayed] = &mut hs;

        let lane = std::iter::once((0, 0, u16::MAX)).chain(lane);
        let (pes, xs): (Vec<u32>, Vec<i32>) = lane
            .map(|(pe, off, sub)| (4 + pe, ((idx.0 + off) << 16) | i32::from(sub)))
            .unzip();
        let e = scalar.table(funcs[0]).read(idx);
        prop_assert!(
            i32::try_from(wide_horner(e, xs[0] & 0xffff)).is_err(),
            "plain adds would leave i32 at {:?}",
            e
        );

        let xs_cells: Vec<i32> = xs.iter().flat_map(|&x| vec![x; k]).collect();
        let want = scalar_lane(scalar, &funcs, &pes, &xs_cells);
        let states: Vec<Q16_16> = xs.iter().map(|&x| Q16_16::from_bits(x)).collect();
        let cols: Vec<u32> = (0..xs.len() as u32).collect();
        let (tables, shards) = replayed.split();
        shards[1].replay(tables, &ctxs, &pes, &cols, |_| &states);
        let got: Vec<i32> = xs
            .iter()
            .flat_map(|&x| funcs.iter().map(move |&f| (f, Q16_16::from_bits(x))))
            .map(|(f, x)| replayed.table(f).value(x).to_bits())
            .collect();
        prop_assert_eq!(&got, &want, "values");
        prop_assert_eq!(got[0], rail);
        let table = scalar.table(funcs[0]);
        for (&x, &v) in xs.iter().zip(got.iter().step_by(k)) {
            let x = Q16_16::from_bits(x);
            let e = table.read(table.clamp_idx(SampleIdx::of(x, 0)));
            prop_assert_eq!(v, saturating_horner(e, x, 0).to_bits(), "at x = {:?}", x);
        }

        prop_assert_eq!(replayed.stats(), scalar.stats());
        for pe in 4..8 {
            prop_assert_eq!(replayed.pe_stats(pe), scalar.pe_stats(pe), "PE {}", pe);
        }
        prop_assert_eq!(scalar.scrub(&lib).repaired, 1);
        prop_assert!(scalar.table(funcs[0]).exact_adds(), "the scrub restores the proof");
    }

    #[test]
    fn sample_idx_shift_matches_division(x in -1000.0f64..1000.0, s in 0u32..8) {
        let q = Q16_16::from_f64(x);
        let idx = SampleIdx::of(q, s);
        let spacing = 1.0 / (1u64 << s) as f64;
        let expect = (q.to_f64() / spacing).floor() as i32;
        prop_assert_eq!(idx.0, expect);
    }

    #[test]
    fn batched_lookups_match_scalar_ones(
        k in 1usize..7,
        l1 in 1usize..9,
        l2_log2 in 3u32..7,
        pool in prop::collection::vec(-64i32..64, 1..9),
        lanes in (lane(), lane()),
        cut in any::<usize>(),
        cold in any::<bool>(),
    ) {
        // States cluster on a small pool of eighth-steps so lanes revisit
        // indices (L1 hits and memo replays); the jitter moves some off
        // their sample point, and every spec clamps part of the pool.
        // The shard under test is the second of an 8-PE hierarchy, so
        // its PEs are 4..8. Lanes past four functions take the walk
        // without the memo. Each lane is replayed in two calls, cut at a
        // random cell, the second with the functions in reverse order,
        // and the second lane runs warm or after an invalidation: a
        // sweep that replays once per row must keep every counter, and
        // the value function must give every scalar lookup's value.
        let (lib, specs) = library(k);
        let funcs: Vec<FuncId> = lib.iter().map(|(id, _)| id).collect();
        let ctxs: Vec<RowCtx> = funcs
            .iter()
            .zip(&specs)
            .map(|(&f, &spec)| RowCtx::from_spec(f, spec))
            .collect();
        let (funcs_rev, ctxs_rev): (Vec<FuncId>, Vec<RowCtx>) =
            funcs.iter().rev().zip(ctxs.iter().rev()).unzip();
        let build = || LutHierarchy::build_with_specs(&lib, &specs, l1, 1 << l2_log2, 8).unwrap();
        let (mut scalar, mut replayed) = (build(), build());
        for (i, lane) in [&lanes.0, &lanes.1].into_iter().enumerate() {
            if i == 1 && cold {
                for h in [&mut scalar, &mut replayed] {
                    h.invalidate();
                }
            }
            let pes: Vec<u32> = lane.iter().map(|(pe, _)| 4 + pe).collect();
            let xs: Vec<i32> = lane
                .iter()
                .flat_map(|(_, states)| &states[..k])
                .map(|(at, jitter)| (pool[at.index(pool.len())] << 13) + [0, 1, 0x0555][*jitter])
                .collect();
            let c = cut % (pes.len() + 1);
            let xs: Vec<i32> = (xs.chunks_exact(k).enumerate())
                .flat_map(|(j, cell)| {
                    let mut cell = cell.to_vec();
                    if j >= c {
                        cell.reverse();
                    }
                    cell
                })
                .collect();
            let mut want = scalar_lane(&mut scalar, &funcs, &pes[..c], &xs[..c * k]);
            want.extend(scalar_lane(&mut scalar, &funcs_rev, &pes[c..], &xs[c * k..]));

            // Function `f`'s states as a row, one column per cell.
            let rows: Vec<Vec<Q16_16>> = (0..k)
                .map(|f| xs.chunks_exact(k).map(|cell| Q16_16::from_bits(cell[f])).collect())
                .collect();
            let cols: Vec<u32> = (0..pes.len() as u32).collect();
            let (tables, shards) = replayed.split();
            shards[1].replay(tables, &ctxs, &pes[..c], &cols[..c], |f| &rows[f]);
            shards[1].replay(tables, &ctxs_rev, &pes[c..], &cols[c..], |f| &rows[f]);
            let got: Vec<i32> = (xs.chunks_exact(k).enumerate())
                .flat_map(|(j, cell)| {
                    let order = if j < c { &funcs } else { &funcs_rev };
                    cell.iter().zip(order)
                })
                .map(|(&x, &f)| replayed.table(f).value(Q16_16::from_bits(x)).to_bits())
                .collect();
            prop_assert_eq!(&got, &want, "values, lane {}", i);

            prop_assert_eq!(replayed.stats(), scalar.stats(), "LutStats, lane {}", i);
            for pe in 4..8 {
                let (got, want) = (replayed.pe_stats(pe), scalar.pe_stats(pe));
                prop_assert_eq!(got, want, "PE {}, lane {}", pe, i);
            }
        }
    }
}
