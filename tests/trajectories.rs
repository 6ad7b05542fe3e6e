//! Bit-exact trajectory goldens for every registry system.
//!
//! Each of the nine systems (`all_benchmarks()` + `extended_benchmarks()`)
//! runs 20 steps at 16×16 through [`FixedRunner`], once under forward
//! Euler and once under Heun. Its final `state_digest` must equal the
//! committed golden at 1 and at 4 worker threads. Systems the streamed
//! engine supports (only dynamic layers: every system but navier-stokes,
//! spike resets included) also run under a memory budget that forces
//! several windows, and must land on the same digest.
//!
//! Regenerate the golden after an *intentional* solver change with:
//!
//! ```sh
//! CENN_BLESS=1 cargo test --test trajectories
//! ```

use std::path::PathBuf;

use cenn::apps::oscillators::KuramotoLattice;
use cenn::core::{FuncEval, Integrator, LayerKind};
use cenn::equations::{
    all_benchmarks, extended_benchmarks, system_by_name, DynamicalSystem, FixedRunner,
};
use cenn::serve::{snapshot_digest, state_digest};

const SIDE: usize = 16;
const STEPS: u64 = 20;
/// Small enough to split a 16×16 grid into at least two windows for
/// every streamable system (heat, with no tiles or site weights, fits
/// 16 rows in 8 KiB).
const BUDGET: u64 = 6 * 1024;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/system_digests.txt")
}

fn runner(system: &dyn DynamicalSystem, integrator: Integrator, threads: usize) -> FixedRunner {
    let mut setup = system.build(SIDE, SIDE).unwrap();
    setup.model = setup.model.clone_with_integrator(integrator);
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_threads(threads);
    runner
}

/// Only dynamic layers: the streamed engine's scope.
fn streamable(runner: &FixedRunner) -> bool {
    let model = &runner.setup().model;
    model
        .layer_ids()
        .all(|id| model.layer(id).kind() == LayerKind::Dynamic)
}

fn in_core_digest(system: &dyn DynamicalSystem, integrator: Integrator, threads: usize) -> u64 {
    let mut runner = runner(system, integrator, threads);
    runner.run(STEPS);
    state_digest(runner.sim())
}

/// The digest of a windowed run, or `None` for systems the streamed
/// engine rejects (which must be exactly those outside its scope).
fn streamed_digest(
    system: &dyn DynamicalSystem,
    integrator: Integrator,
    threads: usize,
) -> Option<u64> {
    let mut runner = runner(system, integrator, threads);
    let spool = std::env::temp_dir().join(format!(
        "cenn_trajectories_{}_{}_{integrator:?}_{threads}",
        std::process::id(),
        system.name()
    ));
    let _ = std::fs::remove_dir_all(&spool);
    if let Err(e) = runner.set_memory_budget(BUDGET, &spool) {
        assert!(!streamable(&runner), "{}: {e}", system.name());
        return None;
    }
    let stream = runner.stream().unwrap();
    assert!(
        stream.n_windows() >= 2,
        "{}: budget must force windowing",
        system.name()
    );
    runner.run(STEPS);
    let digest = snapshot_digest(&runner.snapshot().unwrap());
    let _ = std::fs::remove_dir_all(&spool);
    Some(digest)
}

/// The golden lines of one system: its digest under each integrator,
/// after checking that every thread count and window schedule agrees;
/// and whether the system streamed.
fn golden_lines(system: &dyn DynamicalSystem) -> (String, bool) {
    let name = system.name();
    let mut lines = String::new();
    let mut streamed = false;
    for integrator in [Integrator::Euler, Integrator::Heun] {
        let want = in_core_digest(system, integrator, 1);
        assert_eq!(
            in_core_digest(system, integrator, 4),
            want,
            "{name} {integrator:?}: 4 threads diverged from 1"
        );
        for threads in [1, 4] {
            if let Some(got) = streamed_digest(system, integrator, threads) {
                assert_eq!(
                    got, want,
                    "{name} {integrator:?}: streamed at {threads} threads diverged"
                );
                streamed = true;
            }
        }
        lines.push_str(&format!("{name} {integrator:?} {want:016x}\n"));
    }
    (lines, streamed)
}

/// The Kuramoto lattice: the registry covers only the `SpikeReset` rule,
/// so this pins the `WrapPhase` rule. The lattice has algebraic layers,
/// so it runs in-core only.
const KURAMOTO_STEPS: u64 = 200;
const KURAMOTO_WRAPPED: usize = 93;
const KURAMOTO_DIGEST: u64 = 0x4af2_ac81_7610_d5d2;

#[test]
fn kuramoto_wrapped_phases_match_their_golden_digest() {
    for threads in [1, 4] {
        let setup = KuramotoLattice::default().build(SIDE, SIDE).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.set_threads(threads);
        let wrapped = runner.run(KURAMOTO_STEPS);
        assert!(wrapped > 0, "phases must wrap");
        let digest = state_digest(runner.sim());
        assert_eq!(
            (wrapped, digest),
            (KURAMOTO_WRAPPED, KURAMOTO_DIGEST),
            "kuramoto at {threads} threads: got {wrapped} wraps, digest {digest:016x}"
        );
    }
}

/// The exact-evaluation path ([`FuncEval::Exact`]: every dynamic weight
/// factor from the `f64` library, quantized) under forward Euler. Between
/// them these systems cover single-factor sites (fisher), multi-factor
/// sites and several sites per layer (gray-scott, hodgkin-huxley), and a
/// saturating layer (navier-stokes' vorticity). The square and product
/// tables of the first three reproduce the quantized exact values, so
/// their digests equal the LUT path's; hodgkin-huxley's do not.
const EXACT_DIGESTS: [(&str, u64); 4] = [
    ("fisher", 0xe482_05bf_2f36_6e32),
    ("gray-scott", 0x0871_22ff_94ff_26f4),
    ("hodgkin-huxley", 0x21e5_8253_2067_05cb),
    ("navier-stokes", 0x7051_09cb_2b19_8d98),
];

#[test]
fn exact_evaluation_matches_its_golden_digests() {
    for (name, want) in EXACT_DIGESTS {
        let system = system_by_name(name).unwrap();
        let exact_runner = |threads: usize| {
            let mut setup = system.build(SIDE, SIDE).unwrap();
            setup.model = setup.model.clone_with_integrator(Integrator::Euler);
            let mut runner = FixedRunner::with_eval(setup, FuncEval::Exact).unwrap();
            runner.set_threads(threads);
            runner
        };
        for threads in [1, 4] {
            let mut runner = exact_runner(threads);
            runner.run(STEPS);
            let got = state_digest(runner.sim());
            assert_eq!(got, want, "{name} in-core at {threads} threads: {got:016x}");
            let mut runner = exact_runner(threads);
            let spool = std::env::temp_dir().join(format!(
                "cenn_exact_{}_{name}_{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&spool);
            if runner.set_memory_budget(BUDGET, &spool).is_err() {
                // Algebraic layers do not stream yet.
                assert_eq!(name, "navier-stokes");
                continue;
            }
            assert!(runner.stream().unwrap().n_windows() >= 2, "{name}");
            runner.run(STEPS);
            let got = snapshot_digest(&runner.snapshot().unwrap());
            let _ = std::fs::remove_dir_all(&spool);
            assert_eq!(
                got, want,
                "{name} streamed at {threads} threads: {got:016x}"
            );
        }
    }
}

#[test]
fn every_system_matches_its_golden_digest() {
    let names: Vec<&str> = all_benchmarks()
        .iter()
        .chain(&extended_benchmarks())
        .map(|s| s.name())
        .collect();
    // One thread per system keeps the spool I/O of the windowed runs
    // from serializing the whole suite.
    let results: Vec<(String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = names
            .iter()
            .map(|&name| scope.spawn(move || golden_lines(system_by_name(name).unwrap().as_ref())))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let in_core_only: Vec<&str> = names
        .iter()
        .zip(&results)
        .filter(|(_, (_, streamed))| !streamed)
        .map(|(&name, _)| name)
        .collect();
    assert_eq!(
        in_core_only,
        ["navier-stokes"],
        "systems the stream rejects"
    );
    let golden: String = results.into_iter().map(|(lines, _)| lines).collect();
    let path = fixture_path();
    if std::env::var_os("CENN_BLESS").is_some() {
        std::fs::write(&path, &golden).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; run with CENN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        golden, want,
        "system digests deviate from the golden fixture; if the change is \
         intentional, re-bless with CENN_BLESS=1"
    );
}
