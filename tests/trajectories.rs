//! Bit-exact trajectory goldens for every registry system.
//!
//! Each of the nine systems (`all_benchmarks()` + `extended_benchmarks()`)
//! runs 20 steps at 16×16 through [`FixedRunner`], once under forward
//! Euler and once under Heun. Its final `state_digest` must equal the
//! committed golden at 1 and at 4 worker threads. Systems the streamed
//! engine supports (only dynamic layers, no post-step rule) also run
//! under a memory budget that forces several windows, and must land on
//! the same digest.
//!
//! Regenerate the golden after an *intentional* solver change with:
//!
//! ```sh
//! CENN_BLESS=1 cargo test --test trajectories
//! ```

use std::path::PathBuf;

use cenn::core::{Integrator, LayerKind};
use cenn::equations::{
    all_benchmarks, extended_benchmarks, system_by_name, DynamicalSystem, FixedRunner,
};
use cenn::serve::{snapshot_digest, state_digest};

const SIDE: usize = 16;
const STEPS: u64 = 20;
/// Small enough to split a 16×16 grid into at least two windows for
/// every streamable system.
const BUDGET: u64 = 8 * 1024;

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

/// Only dynamic layers and no post-step rule: the streamed engine's scope.
fn streamable(runner: &FixedRunner) -> bool {
    let model = &runner.setup().model;
    runner.setup().post_step.is_none()
        && model
            .layer_ids()
            .all(|id| model.layer(id).kind() == LayerKind::Dynamic)
}

fn in_core_digest(system: &dyn DynamicalSystem, integrator: Integrator, threads: usize) -> u64 {
    let mut runner = runner(system, integrator, threads);
    runner.run(STEPS);
    state_digest(runner.sim())
}

/// The digest of a windowed run, or `None` for systems the streamed
/// engine rejects.
fn streamed_digest(
    system: &dyn DynamicalSystem,
    integrator: Integrator,
    threads: usize,
) -> Option<u64> {
    let mut runner = runner(system, integrator, threads);
    if !streamable(&runner) {
        return None;
    }
    let spool = std::env::temp_dir().join(format!(
        "cenn_trajectories_{}_{}_{integrator:?}_{threads}",
        std::process::id(),
        system.name()
    ));
    let _ = std::fs::remove_dir_all(&spool);
    runner.set_memory_budget(BUDGET, &spool).unwrap();
    let stream = runner.stream().unwrap();
    assert!(
        stream.n_windows() >= 2,
        "{}: budget must force windowing",
        system.name()
    );
    runner.run(STEPS);
    let digest = snapshot_digest(&runner.stream().unwrap().snapshot().unwrap());
    let _ = std::fs::remove_dir_all(&spool);
    Some(digest)
}

/// The golden lines of one system: its digest under each integrator,
/// after checking that every thread count and window schedule agrees.
fn golden_lines(system: &dyn DynamicalSystem) -> String {
    let name = system.name();
    let mut lines = String::new();
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
            }
        }
        lines.push_str(&format!("{name} {integrator:?} {want:016x}\n"));
    }
    lines
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
    let golden: String = std::thread::scope(|scope| {
        let handles: Vec<_> = names
            .iter()
            .map(|&name| scope.spawn(move || golden_lines(system_by_name(name).unwrap().as_ref())))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
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
