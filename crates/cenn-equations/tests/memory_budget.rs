//! The heap a memory-budgeted runner takes. `FixedRunner::new` followed by
//! `set_memory_budget` is how every budgeted run starts, and in that order
//! the run holds only its budget: the setup's initial conditions are
//! per-cell fields written straight into the chunk spool, so no `f64` grid
//! and no whole-grid slab, tile, lane or scratch buffer is ever built.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that counts the live heap bytes of each thread and their
//! high-water mark (const-initialized thread-local `Cell`s with no
//! destructor, so the bookkeeping never allocates or recurses). The runner
//! sweeps on one thread, so everything it allocates and frees lands on the
//! test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cenn_equations::{DynamicalSystem, Fisher, FixedRunner};

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static HIGH: Cell<isize> = const { Cell::new(0) };
}

struct LiveBytes;

fn grow(by: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + by;
        live.set(now);
        let _ = HIGH.try_with(|high| high.set(high.get().max(now)));
    });
}

// SAFETY: defers all allocation to `System`; the bookkeeping is two
// const-initialized thread-local `Cell<isize>`s with no destructor, so the
// accounting itself never allocates or recurses.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const MIB: f64 = (1 << 20) as f64;

/// Heap a budgeted run may take besides 2 x budget: the compiled program,
/// LUT hierarchy and journal, and a row map of 4 B per grid row (4 KiB
/// at 1024²), so it holds at any grid size the test runs.
const ALLOWANCE: usize = 256 << 10;

/// Builds, budgets and steps fisher on a `side²` grid; returns the heap
/// high-water and the heap still held after 3 steps, both in bytes.
fn budgeted_run(side: usize, budget: u64) -> (usize, usize) {
    let dir =
        std::env::temp_dir().join(format!("cenn_memory_budget_{side}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = LIVE.with(Cell::get);
    HIGH.with(|high| high.set(base));
    let setup = Fisher::default().build(side, side).unwrap();
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_threads(1);
    runner.set_memory_budget(budget, &dir).unwrap();
    runner.run(3);
    let high = (HIGH.with(Cell::get) - base) as usize;
    let held = (LIVE.with(Cell::get) - base) as usize;
    let windows = runner.stream().unwrap().n_windows();
    drop(runner);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(windows > 1, "the budget must window the {side}² grid");
    (high, held)
}

#[test]
fn budgeted_set_up_never_builds_whole_grid_tiles_or_lanes() {
    let budget = 256 << 10;
    let bound = 2 * budget as usize + ALLOWANCE;
    for side in [512, 1024] {
        let (high, held) = budgeted_run(side, budget);
        eprintln!("{side}²: high-water {high} bytes, held {held} bytes");
        assert!(
            high <= bound,
            "{side}²: heap high-water {:.2} MiB exceeds 2 x budget + {:.2} MiB = {:.2} MiB",
            high as f64 / MIB,
            ALLOWANCE as f64 / MIB,
            bound as f64 / MIB
        );
        assert!(
            held <= bound,
            "{side}²: after 3 steps the runner holds {:.2} MiB, over {:.2} MiB",
            held as f64 / MIB,
            bound as f64 / MIB
        );
    }
}
