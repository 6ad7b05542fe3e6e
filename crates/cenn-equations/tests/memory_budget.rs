//! The heap a memory-budgeted runner takes. `FixedRunner::new` followed by
//! `set_memory_budget` is how every budgeted run starts, and in that order
//! set-up may hold only the system's `f64` grids and the engine's state and
//! input slabs for the whole grid: no whole-grid tiles, lanes, scratch or
//! RHS slabs, in the in-core engine it replaces or in the spooled store.
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

#[test]
fn budgeted_set_up_never_builds_whole_grid_tiles_or_lanes() {
    let (side, budget) = (512, 256 << 10);
    let dir = std::env::temp_dir().join(format!("cenn_memory_budget_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = LIVE.with(Cell::get);
    HIGH.with(|high| high.set(base));
    let setup = Fisher::default().build(side, side).unwrap();
    let grids: usize = setup
        .initial
        .iter()
        .chain(&setup.inputs)
        .map(|(_, g)| g.len() * std::mem::size_of::<f64>())
        .sum();
    let slabs = 2 * setup.model.n_layers() * side * side * 4;
    let mut runner = FixedRunner::new(setup).unwrap();
    runner.set_threads(1);
    runner.set_memory_budget(budget, &dir).unwrap();
    runner.run(3);
    let high = (HIGH.with(Cell::get) - base) as usize;
    let held = (LIVE.with(Cell::get) - base) as usize;
    let windows = runner.stream().unwrap().n_windows();
    drop(runner);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(windows > 1, "the budget must window the grid");
    let bound = grids + slabs + 2 * budget as usize;
    assert!(
        high <= bound,
        "heap high-water {:.2} MiB exceeds the f64 grids ({:.2} MiB) + state and input \
         slabs ({:.2} MiB) + 2 x budget = {:.2} MiB",
        high as f64 / MIB,
        grids as f64 / MIB,
        slabs as f64 / MIB,
        bound as f64 / MIB
    );
    let stepping = held.saturating_sub(grids);
    assert!(
        stepping <= 2 * budget as usize,
        "after 3 steps the runner holds {:.2} MiB besides the f64 grids, over 2 x budget",
        stepping as f64 / MIB
    );
}
