//! Admission control before allocation: a submit the manager refuses
//! (the `max_sessions` shed limit, or a server shutting down) answers its
//! typed error before the system's grids or the runner are built.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread.
//! `submit` runs on the caller's thread, so every allocation it makes
//! lands on the test's thread.

mod largest_alloc;

use cenn_obs::{Event, RecorderHandle};
use cenn_serve::{ErrorCode, ManagerConfig, SessionManager};
use largest_alloc::largest_alloc;

/// A refused submit may format its error, not build a grid.
const MAX_REFUSAL_ALLOC: usize = 1 << 20;

/// A heat grid whose initial `f64` map alone is 32 MiB.
const BIG: u32 = 2048;

#[test]
fn refused_submits_answer_before_building_the_grid() {
    let spool = std::env::temp_dir().join(format!("cenn_admission_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let (recorder, events) = RecorderHandle::in_memory(true);
    let mut cfg = ManagerConfig::new(&spool);
    cfg.max_sessions = 1;
    cfg.recorder = Some(recorder);
    let hub = cfg.metrics.clone();
    let mgr = SessionManager::new(cfg).unwrap();
    mgr.submit("heat", 8, 8, 0).unwrap();

    // At the session limit: each refusal is shed once, and the manager
    // records the shed transition once.
    for refused in 1..=2 {
        let (res, largest) = largest_alloc(|| mgr.submit("heat", BIG, BIG, 0));
        assert_eq!(res.unwrap_err().code, ErrorCode::Overloaded);
        assert!(
            largest <= MAX_REFUSAL_ALLOC,
            "a shed submit allocated {largest} bytes at once"
        );
        assert_eq!(
            hub.snapshot().counter("serve.requests_shed_total"),
            Some(refused)
        );
    }
    let sheds = events
        .lock()
        .unwrap()
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Session(s) if s.kind == "shed"))
        .count();
    assert_eq!(sheds, 1, "one shed transition");

    mgr.shutdown();
    let (res, largest) = largest_alloc(|| mgr.submit("heat", BIG, BIG, 0));
    assert_eq!(res.unwrap_err().code, ErrorCode::ShuttingDown);
    assert!(
        largest <= MAX_REFUSAL_ALLOC,
        "a submit after shutdown allocated {largest} bytes at once"
    );
    assert_eq!(
        hub.snapshot().counter("serve.requests_shed_total"),
        Some(2),
        "shutdown refusals are not sheds"
    );
    let _ = std::fs::remove_dir_all(&spool);
}
