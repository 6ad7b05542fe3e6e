//! Admission control before allocation: a submit the manager refuses
//! (the `max_sessions` shed limit, or a server shutting down) answers its
//! typed error before the system's grids or the runner are built.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread (a
//! const-initialized thread-local `Cell` with no destructor, so the
//! bookkeeping never allocates or recurses). `submit` runs on the caller's
//! thread, so every allocation it makes lands on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cenn_obs::{Event, RecorderHandle};
use cenn_serve::{ErrorCode, ManagerConfig, SessionManager};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestAlloc;

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: defers all allocation to `System`; the bookkeeping is a
// const-initialized thread-local `Cell<usize>` with no destructor, so the
// accounting itself never allocates or recurses.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

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
