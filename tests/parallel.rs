//! Golden determinism tests for the tile-sharded execution engine.
//!
//! The contract (DESIGN.md): running the functional simulator on any
//! number of worker threads yields **bit-identical** fixed-point states
//! and LUT statistics to the serial sweep. These tests pin that contract
//! on two real benchmark systems — reaction–diffusion (algebraic +
//! dynamic layers, heavy LUT traffic) and Hodgkin–Huxley (four coupled
//! layers, dynamic template weights).

use cenn::equations::{
    DynamicalSystem, FixedRunner, HodgkinHuxley, ReactionDiffusion, SystemSetup,
};
use cenn::obs::{LatencyHistogram, MetricsHub, RecorderHandle};
use proptest::prelude::*;

fn assert_bit_identical(setup: SystemSetup, steps: u64) {
    let n_layers = setup.model.n_layers();
    let mut serial = FixedRunner::new(setup.clone()).unwrap();
    let serial_fired = serial.run(steps);
    for threads in [2usize, 4, 8] {
        let mut par = FixedRunner::new(setup.clone()).unwrap();
        par.set_threads(threads);
        let par_fired = par.run(steps);
        assert_eq!(serial_fired, par_fired, "threads={threads}");
        for i in 0..setup.model.n_layers() {
            let layer = cenn::core::LayerId::from_index(i);
            assert_eq!(
                serial.sim().state(layer).as_slice(),
                par.sim().state(layer).as_slice(),
                "threads={threads} layer={i}/{n_layers}"
            );
        }
        assert_eq!(
            serial.lut_stats(),
            par.lut_stats(),
            "LUT statistics must match bit-for-bit at threads={threads}"
        );
        // Per-PE accounting survives sharding too.
        let n_pes = {
            let (pr, pc) = serial.sim().tile_plan().pe_shape();
            pr * pc
        };
        for pe in 0..n_pes {
            assert_eq!(
                serial.sim().pe_lut_stats(pe),
                par.sim().pe_lut_stats(pe),
                "threads={threads} pe={pe}"
            );
        }
    }
}

#[test]
fn reaction_diffusion_threaded_is_bit_identical_to_serial() {
    let setup = ReactionDiffusion::default().build(24, 24).unwrap();
    assert_bit_identical(setup, 30);
}

#[test]
fn hodgkin_huxley_threaded_is_bit_identical_to_serial() {
    let setup = HodgkinHuxley::default().build(12, 12).unwrap();
    assert_bit_identical(setup, 40);
}

#[test]
fn all_six_benchmark_systems_threaded_bit_identical() {
    for sys in cenn::equations::all_benchmarks() {
        let setup = sys.build(16, 16).unwrap();
        let mut serial = FixedRunner::new(setup.clone()).unwrap();
        let serial_fired = serial.run(12);
        for threads in [2usize, 4, 8] {
            let mut par = FixedRunner::new(setup.clone()).unwrap();
            par.set_threads(threads);
            assert_eq!(
                serial_fired,
                par.run(12),
                "{} threads={threads}",
                sys.name()
            );
            for i in 0..setup.model.n_layers() {
                let layer = cenn::core::LayerId::from_index(i);
                assert_eq!(
                    serial.sim().state(layer).as_slice(),
                    par.sim().state(layer).as_slice(),
                    "{} threads={threads} layer={i}",
                    sys.name()
                );
            }
            assert_eq!(serial.lut_stats(), par.lut_stats(), "{}", sys.name());
        }
    }
}

/// Runs `setup` on `threads` workers with a canonical in-memory recorder
/// attached and returns the serialized event stream (steps + summary).
fn recorded_stream(setup: &SystemSetup, threads: usize, steps: u64) -> Vec<String> {
    let mut runner = FixedRunner::new(setup.clone()).unwrap();
    runner.set_threads(threads);
    let (handle, reader) = RecorderHandle::in_memory(true);
    runner.set_recorder(handle);
    runner.run(steps);
    runner.record_summary();
    let rec = reader.lock().unwrap();
    rec.events().iter().map(|e| e.to_jsonl()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The observability stream inherits the engine's determinism
    /// contract: canonical metrics (counters, residuals, shard splits)
    /// are byte-identical between the serial sweep and any thread count,
    /// for any seed and run length.
    #[test]
    fn recorded_metrics_bit_identical_across_threads(
        seed in 0u64..1000,
        steps in 3u64..10,
        threads in 2usize..8,
    ) {
        let sys = ReactionDiffusion { seed, ..ReactionDiffusion::default() };
        let setup = sys.build(16, 16).unwrap();
        let serial = recorded_stream(&setup, 1, steps);
        let par = recorded_stream(&setup, threads, steps);
        prop_assert_eq!(serial.len() as u64, steps + 1, "steps + run_summary");
        prop_assert_eq!(serial, par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Latency histograms are mergeable without information loss: merging
    /// per-shard histograms is exactly equivalent to recording every
    /// duration into one histogram (counts, totals, max, and every
    /// bucket), which is what lets the collector drain rings shard by
    /// shard and still report global quantiles.
    #[test]
    fn histogram_merge_equals_recording_everything(
        a in prop::collection::vec(0u64..(1u64 << 50), 0..48),
        b in prop::collection::vec(0u64..(1u64 << 50), 0..48),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hall = LatencyHistogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.count(), hall.count());
        prop_assert_eq!(merged.sum_nanos(), hall.sum_nanos());
        prop_assert_eq!(merged.max_nanos(), hall.max_nanos());
        prop_assert_eq!(merged.counts(), hall.counts());
    }

    /// A mixture's quantile can never escape the envelope of its
    /// components: for every q, the merged histogram's quantile lies
    /// between the smaller and larger of the two component quantiles.
    /// (Quantiles are log-bucket upper bounds, so this holds exactly.)
    #[test]
    fn histogram_merge_preserves_quantile_bounds(
        a in prop::collection::vec(0u64..(1u64 << 50), 1..48),
        b in prop::collection::vec(0u64..(1u64 << 50), 1..48),
        q in 0.0f64..=1.0,
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let (qa, qb, qm) = (ha.quantile(q), hb.quantile(q), merged.quantile(q));
        prop_assert!(qm >= qa.min(qb), "q={q}: {qm} < min({qa}, {qb})");
        prop_assert!(qm <= qa.max(qb), "q={q}: {qm} > max({qa}, {qb})");
    }

    /// Reported quantiles never exceed the observed max: for arbitrary
    /// durations, a metrics snapshot reports p50 ≤ p90 ≤ p99 ≤ max, and
    /// each is still an upper bound on the true quantile.
    #[test]
    fn reported_quantiles_never_exceed_the_max(
        durations in prop::collection::vec((any::<u64>(), 0u32..64), 1..64),
    ) {
        let mut sorted: Vec<u64> = durations.iter().map(|&(v, s)| v >> s).collect();
        let hub = MetricsHub::new();
        let id = hub.histogram("d");
        let mut h = LatencyHistogram::new();
        for &d in &sorted {
            hub.observe(id, d);
            h.record(d);
        }
        sorted.sort_unstable();
        let snap = hub.snapshot();
        let s = snap.hist("d").unwrap();
        let reported = [s.p50_nanos, s.p90_nanos, s.p99_nanos];
        prop_assert_eq!(reported, h.reported_quantiles());
        prop_assert_eq!(s.max_nanos, sorted[sorted.len() - 1]);
        prop_assert!(
            s.p50_nanos <= s.p90_nanos && s.p90_nanos <= s.p99_nanos && s.p99_nanos <= s.max_nanos,
            "{:?}", s
        );
        for (q, r) in [0.50, 0.90, 0.99].into_iter().zip(reported) {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            prop_assert!(r >= sorted[rank - 1], "q={q}: {r} below the true {}", sorted[rank - 1]);
        }
    }
}

#[test]
fn step_stats_expose_threaded_sweeps() {
    let setup = ReactionDiffusion::default().build(16, 16).unwrap();
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_threads(4);
    runner.run(3);
    let stats = runner.sim().step_stats();
    assert_eq!(stats.threads, 4);
    assert!(stats.cells > 0);
    assert!(stats.sweeps.iter().any(|(label, _)| label == "dynamic"));
    assert!(stats.sweeps.iter().any(|(label, _)| label == "update"));
    assert!(stats.cells_per_sec() > 0.0);
    assert_eq!(
        stats.lut_total().accesses,
        stats.shard_lut.iter().map(|s| s.accesses).sum::<u64>()
    );
}
