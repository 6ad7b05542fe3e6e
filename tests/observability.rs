//! Golden tests locking down the observability layer (`cenn-obs`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Schema stability** — the committed `run_summary` fixture still
//!    parses, and any unknown or renamed field is rejected. Changing the
//!    event layout requires bumping `SCHEMA_VERSION` and re-blessing.
//! 2. **Stream stability** — the instrumented quickstart run (heat,
//!    64x64, 150 steps) reproduces its committed canonical JSONL trace
//!    byte for byte.
//! 3. **Counter stability** — fixed Gray–Scott and Hodgkin–Huxley runs
//!    produce exactly the committed LUT counters, and per-PE shard
//!    counters aggregate to the serial totals.
//! 4. **Span-summary stability** — a traced Gray–Scott run reproduces
//!    its committed canonical `span_summary` stream byte for byte (span
//!    counts are exact; wall-clock fields zero out), and the validator
//!    rejects unknown fields and non-monotone quantiles.
//!
//! Regenerate the fixtures after an *intentional* change with:
//!
//! ```sh
//! CENN_BLESS=1 cargo test --test observability
//! cargo run --example quickstart -- \
//!     --metrics-out tests/fixtures/quickstart_metrics.jsonl --metrics-canonical
//! ```

use cenn::arch::MemorySpec;
use cenn::equations::{DynamicalSystem, FixedRunner, GrayScott, Heat, HodgkinHuxley};
use cenn::lut::LutStats;
use cenn::obs::{
    validate_jsonl_line, JsonlSink, RecorderHandle, SchemaError, TraceHandle, SCHEMA_VERSION,
};
use cenn::program::SolverSession;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Compares `got` against the committed fixture, or rewrites the fixture
/// when `CENN_BLESS=1` is set.
fn assert_matches_fixture(got: &str, name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CENN_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; run with CENN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name} deviates from the golden fixture; if the change is intentional, \
         re-bless (see tests/observability.rs header) and bump SCHEMA_VERSION \
         when the field layout changed"
    );
}

/// Runs the default Gray–Scott system for 20 steps with a canonical
/// recorder attached and returns the runner for counter inspection plus
/// the serialized summary line.
fn gray_scott_run() -> (FixedRunner, String) {
    let setup = GrayScott::default().build(16, 16).unwrap();
    let mut runner = FixedRunner::new(setup).unwrap();
    let (handle, reader) = RecorderHandle::in_memory(true);
    runner.set_recorder(handle);
    runner.run(20);
    runner.record_summary();
    let summary = {
        let rec = reader.lock().unwrap();
        let events = rec.events();
        assert_eq!(events.len(), 21, "20 step events + run_summary");
        events.last().unwrap().to_jsonl()
    };
    (runner, summary)
}

#[test]
fn run_summary_fixture_stays_schema_compatible() {
    let (_, summary) = gray_scott_run();
    validate_jsonl_line(&summary).unwrap();
    assert_matches_fixture(&format!("{summary}\n"), "run_summary.jsonl");

    // The committed fixture itself must validate against the current
    // schema version...
    let fixture = std::fs::read_to_string(fixture_path("run_summary.jsonl")).unwrap();
    let line = fixture.trim_end();
    validate_jsonl_line(line).unwrap();
    assert!(line.contains(&format!("\"schema\":{SCHEMA_VERSION}")));

    // ...and the validator must reject unknown or renamed fields, so a
    // silent schema drift cannot pass this suite.
    let unknown = line.replacen("\"steps\":", "\"bogus\":1,\"steps\":", 1);
    assert!(
        matches!(
            validate_jsonl_line(&unknown),
            Err(SchemaError::KeyMismatch { .. })
        ),
        "unknown field must be rejected"
    );
    let renamed = line.replacen("\"accesses\"", "\"access_count\"", 1);
    assert!(
        matches!(
            validate_jsonl_line(&renamed),
            Err(SchemaError::KeyMismatch { .. })
        ),
        "renamed field must be rejected"
    );
}

#[test]
fn span_summary_fixture_stays_schema_compatible() {
    // Trace the same deterministic Gray–Scott run the counter goldens
    // pin, then snapshot the canonical span_summary stream: one line per
    // phase, exact span counts, wall-clock fields zeroed.
    let setup = GrayScott::default().build(16, 16).unwrap();
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_tracer(TraceHandle::histograms_only());
    runner.run(20);
    let (handle, reader) = RecorderHandle::in_memory(true);
    runner.set_recorder(handle);
    runner.record_span_summaries();
    let got = {
        let rec = reader.lock().unwrap();
        rec.events()
            .iter()
            .map(|ev| format!("{}\n", ev.to_jsonl()))
            .collect::<String>()
    };
    for line in got.lines() {
        validate_jsonl_line(line).unwrap();
    }
    assert_matches_fixture(&got, "span_summary.jsonl");

    // The committed fixture validates, and every guarded failure mode is
    // actually rejected: unknown fields, renamed fields, non-monotone
    // quantiles, and a bucket total that disagrees with the span count.
    let fixture = std::fs::read_to_string(fixture_path("span_summary.jsonl")).unwrap();
    let line = fixture.lines().next().expect("at least one phase line");
    validate_jsonl_line(line).unwrap();
    assert!(line.contains("\"event\":\"span_summary\""));

    let unknown = line.replacen("\"count\":", "\"bogus\":1,\"count\":", 1);
    assert!(
        matches!(
            validate_jsonl_line(&unknown),
            Err(SchemaError::KeyMismatch { .. })
        ),
        "unknown field must be rejected"
    );
    let non_monotone = line.replacen("\"p50_nanos\":0", "\"p50_nanos\":7", 1);
    assert!(
        matches!(
            validate_jsonl_line(&non_monotone),
            Err(SchemaError::Constraint { .. })
        ),
        "p50 > p90 must be rejected"
    );
    let bad_phase = line.replacen("lut_lookup", "warp_drive", 1);
    assert!(
        validate_jsonl_line(&bad_phase).is_err(),
        "unknown phase name must be rejected"
    );
}

#[test]
fn quickstart_metrics_match_committed_fixture() {
    // Mirror examples/quickstart.rs exactly: heat, 64x64, dt 0.1,
    // 150 steps, one mem_traffic estimate per memory system, summary.
    let system = Heat {
        kappa: 1.0,
        dt: 0.1,
        ..Heat::default()
    };
    let setup = system.build(64, 64).unwrap();
    let mut session = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
    for (layer, field) in &setup.initial {
        let grid = field.to_grid(64, 64).unwrap();
        session.sim_mut().set_state_f64(*layer, &grid).unwrap();
    }
    let path = std::env::temp_dir().join("cenn_obs_quickstart_golden.jsonl");
    let handle = RecorderHandle::new(JsonlSink::create(&path, true).unwrap());
    session.set_recorder(handle.clone());
    session.run(150);
    for mem in [
        MemorySpec::ddr3(),
        MemorySpec::hmc_ext(),
        MemorySpec::hmc_int(),
    ] {
        let name = mem.name;
        session.set_memory(mem);
        session.record_estimate(&format!("heat/{name}"));
    }
    session.record_summary();
    handle.flush().unwrap();
    let got = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(
        got.lines().count(),
        154,
        "150 steps + 3 estimates + summary"
    );
    for line in got.lines() {
        validate_jsonl_line(line).unwrap();
    }
    assert_matches_fixture(&got, "quickstart_metrics.jsonl");
}

#[test]
fn gray_scott_lut_counters_are_golden() {
    let (runner, _) = gray_scott_run();
    let stats = runner.lut_stats();

    // Exact counters for the default-seed 16x16, 20-step run. These are
    // integer event counts on the deterministic fixed-point trace — any
    // change here means the LUT hierarchy or the solver changed.
    assert_eq!(
        lut_counters(&stats),
        (20480, 14169, 3183, 3128, 25024, 5150),
        "LUT counters drifted"
    );

    // The derived per-level metrics must stay consistent with the raw
    // counters at every level.
    let levels = stats.level_metrics();
    assert_eq!(levels[0].hits + levels[0].misses, stats.accesses);
    assert_eq!(
        levels[1].hits + levels[1].misses,
        stats.accesses - stats.l1_hits
    );
    assert_eq!(levels[2].hits, stats.dram_fetches);

    assert_pe_stats_sum_to_totals(&runner);

    // Per-shard counters from the last step sum to that step's totals.
    let step = runner.sim().step_stats();
    assert_eq!(
        step.lut_total().accesses,
        step.shard_lut.iter().map(|s| s.accesses).sum::<u64>()
    );
}

#[test]
fn hodgkin_huxley_lut_counters_are_golden() {
    // Hodgkin–Huxley is the one system whose membrane layer multiplies
    // six LUT factors per site, past the batched walk's memo bound, so
    // this pins the unmemoized walk as well as the memoized one.
    let setup = HodgkinHuxley::default().build(16, 16).unwrap();
    for threads in [1, 4] {
        let mut runner = FixedRunner::new(setup.clone()).unwrap();
        runner.set_threads(threads);
        runner.run(20);
        assert_eq!(
            lut_counters(&runner.lut_stats()),
            (61440, 24758, 32074, 4608, 36864, 2048),
            "LUT counters drifted at threads={threads}"
        );
        assert_pe_stats_sum_to_totals(&runner);
    }
}

/// `(accesses, l1_hits, l2_hits, dram_fetches, dram_points, exact_hits)`.
fn lut_counters(s: &LutStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        s.accesses,
        s.l1_hits,
        s.l2_hits,
        s.dram_fetches,
        s.dram_points,
        s.exact_hits,
    )
}

/// Per-PE L1 counters aggregate exactly to the run's totals.
fn assert_pe_stats_sum_to_totals(runner: &FixedRunner) {
    let stats = runner.lut_stats();
    let (pr, pc) = runner.sim().tile_plan().pe_shape();
    let (mut hits, mut misses) = (0u64, 0u64);
    for pe in 0..pr * pc {
        let (h, m) = runner.sim().pe_lut_stats(pe);
        hits += h;
        misses += m;
    }
    assert_eq!(hits, stats.l1_hits, "per-PE L1 hits must sum to the total");
    assert_eq!(
        hits + misses,
        stats.accesses,
        "per-PE accesses must sum to the total"
    );
}
