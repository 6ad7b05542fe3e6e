//! A global allocator that records the largest single allocation per
//! thread, for test binaries that bound what a call may allocate.
//!
//! The bookkeeping is a const-initialized thread-local `Cell` with no
//! destructor, so it never allocates or recurses. Only allocations made
//! on the calling thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
pub fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}
