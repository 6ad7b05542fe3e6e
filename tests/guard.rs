//! Integration tests for the fault-tolerant runtime (`cenn-guard`).
//!
//! The acceptance contract pinned here: a single-bit fault injected into
//! an off-chip LUT entry under `--on-divergence=rollback` is detected,
//! repaired by the integrity scrub, and the run converges to final
//! Q16.16 grids **bit-identical** to an uninjected run — with the guard's
//! activity visible as canonical JSONL events. Also locked: rollback-
//! then-replay bit-exactness, guard-event-stream identity across thread
//! counts, and the `CENNCKPT` checkpoint file format via a committed
//! fixture.
//!
//! Regenerate the checkpoint fixture after an *intentional* format or
//! solver change with:
//!
//! ```sh
//! CENN_BLESS=1 cargo test --test guard
//! ```

use cenn::equations::{DynamicalSystem, Fisher, FixedRunner};
use cenn::guard::{Checkpoint, FaultPlan, Guard, GuardConfig, RecoveryPolicy};
use cenn::lut::{FuncId, SampleIdx};
use cenn::obs::{validate_jsonl_line, Event, RecorderHandle};
use cenn::serve::state_digest;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Compares `got` against the committed binary fixture, or rewrites the
/// fixture when `CENN_BLESS=1` is set.
fn assert_matches_fixture_bytes(got: &[u8], name: &str) {
    let path = fixture_path(name);
    if std::env::var_os("CENN_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; run with CENN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        &want[..],
        "{name} deviates from the golden fixture; if the change is \
         intentional, re-bless with CENN_BLESS=1 and bump the checkpoint \
         format version if the layout changed"
    );
}

fn fisher_runner() -> FixedRunner {
    let setup = Fisher::default().build(16, 16).unwrap();
    FixedRunner::new(setup).unwrap()
}

/// Raw Q16.16 bits of every layer grid — the bit-identity yardstick.
fn state_bits(runner: &FixedRunner) -> Vec<Vec<i32>> {
    runner
        .sim()
        .states()
        .iter()
        .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// A plan with one single-bit flip in the l_p word of the Fisher square
/// LUT's entry 0 — an entry the u ∈ [0, 1] trajectory actually reads, so
/// the corruption visibly bends the dynamics until it is repaired.
fn one_lut_fault(step: u64) -> FaultPlan {
    FaultPlan::parse(&format!("lut@{step}:func=0,idx=0,word=0,bit=20")).unwrap()
}

#[test]
fn lut_fault_under_rollback_converges_bit_identically() {
    const STEPS: u64 = 30;
    let mut clean = fisher_runner();
    clean.run(STEPS);
    let clean_bits = state_bits(&clean);

    // The same fault left unrepaired must bend the trajectory — otherwise
    // this test would pass vacuously.
    let mut unguarded = fisher_runner();
    unguarded
        .sim_mut()
        .inject_lut_fault(FuncId(0), SampleIdx(0), 0, 20)
        .unwrap();
    unguarded.run(STEPS);
    assert_ne!(
        state_bits(&unguarded),
        clean_bits,
        "the injected fault must perturb the unguarded trajectory"
    );

    // Guarded: the boundary scrub detects the flip, repairs the entry
    // bit-exactly, and rolls back to the last clean checkpoint.
    let mut runner = fisher_runner();
    let (handle, reader) = RecorderHandle::in_memory(true);
    let mut guard = Guard::new(GuardConfig {
        checkpoint_every: Some(8),
        on_divergence: RecoveryPolicy::Rollback,
        ..GuardConfig::default()
    })
    .with_plan(one_lut_fault(12))
    .with_recorder(handle);
    let report = runner.run_guarded(&mut guard, STEPS).unwrap();
    assert_eq!(report.faults_injected, 1);
    assert_eq!(report.scrub_repairs, 1, "one corrupt entry repaired");
    assert!(report.rollbacks >= 1, "repair escalates to rollback");
    assert_eq!(runner.steps(), STEPS);
    assert_eq!(
        state_bits(&runner),
        clean_bits,
        "recovered run must be bit-identical to the uninjected run"
    );

    // Guard activity is visible in the canonical event stream.
    let rec = reader.lock().unwrap();
    let kinds: Vec<String> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Guard(g) => Some(g.kind.clone()),
            _ => None,
        })
        .collect();
    assert!(kinds.iter().any(|k| k == "fault_injected"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "scrub_repair"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "rollback"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "checkpoint"), "{kinds:?}");
    for e in rec.events() {
        validate_jsonl_line(&e.to_jsonl()).unwrap();
    }
}

/// Fisher 32², 40 steps, with bit 31 flipped in two words of the square
/// table's entry 8 (`p = 0.25`, which the front sweeps through): `a₃`
/// (0 → `i32::MIN`) and `l(p)` (1/16 → `i32::MIN` + 1/16). The table is
/// then past the TUM's plain-add bound, and off the sample point the last
/// add of the Horner sum falls below `i32::MIN`, so the saturating adds
/// pin it at the rail (plain adds would wrap, or panic in a debug build).
/// The digest was recorded with a TUM that saturated every add of every
/// table.
#[test]
fn lut_fault_past_the_tum_add_bound_keeps_the_saturating_digest() {
    let digest = |fault: bool| {
        let setup = Fisher::default().build(32, 32).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        assert!(runner.sim().lut_exact_adds()[0]);
        if fault {
            for word in [3, 0] {
                runner
                    .sim_mut()
                    .inject_lut_fault(FuncId(0), SampleIdx(8), word, 31)
                    .unwrap();
            }
            assert!(!runner.sim().lut_exact_adds()[0], "the proof must be gone");
        }
        runner.run(40);
        format!("{:016x}", state_digest(runner.sim()))
    };
    let faulted = digest(true);
    assert_ne!(faulted, digest(false), "the fault must bend the run");
    assert_eq!(faulted, "23ea8d207bec912a");
}

#[test]
fn rollback_then_replay_is_bit_identical() {
    let mut runner = fisher_runner();
    runner.run(10);
    let ckpt = Checkpoint::capture(runner.sim());
    runner.run(10);
    let first = state_bits(&runner);
    runner.sim_mut().restore(&ckpt.snapshot).unwrap();
    assert_eq!(runner.steps(), 10);
    runner.run(10);
    assert_eq!(
        state_bits(&runner),
        first,
        "replay from a checkpoint must retrace the trajectory bit-exactly"
    );
}

#[test]
fn guard_event_stream_is_identical_across_thread_counts() {
    let run = |threads: usize| -> String {
        let mut runner = fisher_runner();
        runner.set_threads(threads);
        let (handle, reader) = RecorderHandle::in_memory(true);
        runner.set_recorder(handle.clone());
        let mut guard = Guard::new(GuardConfig {
            checkpoint_every: Some(8),
            on_divergence: RecoveryPolicy::Rollback,
            ..GuardConfig::default()
        })
        .with_plan(one_lut_fault(12))
        .with_recorder(handle);
        runner.run_guarded(&mut guard, 24).unwrap();
        let rec = reader.lock().unwrap();
        rec.events()
            .iter()
            .map(|e| e.to_jsonl())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run(1);
    assert!(serial.contains("\"scrub_repair\""));
    assert_eq!(
        serial,
        run(4),
        "detection and recovery must be bit-identical for any thread count"
    );
}

#[test]
fn checkpoint_file_round_trip_continues_identically() {
    const SPLIT: u64 = 10;
    const TOTAL: u64 = 30;

    // Uninterrupted reference run.
    let mut reference = fisher_runner();
    reference.run(TOTAL);
    let reference_bits = state_bits(&reference);

    // Run to the split point, write the checkpoint file, and pin its
    // exact bytes (the CENNCKPT format and the step-10 solver state).
    let mut first = fisher_runner();
    first.run(SPLIT);
    let ckpt = Checkpoint::capture(first.sim());
    let mut bytes = Vec::new();
    ckpt.write_to(&mut bytes).unwrap();
    assert_matches_fixture_bytes(&bytes, "fisher_step10.ckpt");

    // A fresh process loads the committed fixture and continues.
    let loaded = Checkpoint::load(fixture_path("fisher_step10.ckpt")).unwrap();
    assert_eq!(loaded.step(), SPLIT);
    let mut resumed = fisher_runner();
    resumed.sim_mut().restore(&loaded.snapshot).unwrap();
    resumed.run(TOTAL - SPLIT);
    assert_eq!(
        state_bits(&resumed),
        reference_bits,
        "save -> load -> continue must equal the uninterrupted run"
    );
}
