//! Tracing must be zero-cost when disabled: pushing into a disabled
//! [`SpanRing`] performs no heap allocations, attaching a tracer never
//! perturbs the fixed-point numerics, and clearing a tracer returns the
//! solver to its untraced steady-state allocation profile.
//!
//! The whole suite lives in its own test binary because it swaps in a
//! counting global allocator. The counter is thread-local (const-init
//! `Cell`, no destructor, so incrementing it inside `alloc` cannot
//! recurse), which keeps the other test in this binary — and any worker
//! threads the solver spawns — from polluting a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cenn::equations::{DynamicalSystem, Fisher, FixedRunner, GrayScott, HodgkinHuxley};
use cenn::obs::{Phase, Span, SpanRing, TraceHandle};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers all allocation to `System`; the bookkeeping is a
// const-initialized thread-local `Cell<u64>` with no destructor, so the
// accounting itself never allocates or recurses.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[test]
fn disabled_span_ring_push_is_alloc_free() {
    let mut ring = SpanRing::disabled();
    assert!(!ring.is_enabled());
    let before = thread_allocs();
    for i in 0..10_000u64 {
        ring.push(Span {
            phase: Phase::TemplateApply,
            track: (i % 7) as u32,
            start_nanos: i,
            dur_nanos: i * 3,
        });
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "pushing into a disabled ring must not touch the heap"
    );
    assert!(ring.is_empty(), "disabled ring retains nothing");
    assert_eq!(ring.drain().count(), 0);
}

#[test]
fn tracing_never_perturbs_fixed_point_state() {
    let setup = Fisher::default().build(16, 16).expect("setup");
    let mut traced = FixedRunner::new(setup.clone()).expect("runner");
    let mut plain = FixedRunner::new(setup).expect("runner");
    traced.set_tracer(TraceHandle::full());
    traced.run(8);
    plain.run(8);
    assert!(
        traced.sim().states() == plain.sim().states(),
        "attaching a tracer must leave every state grid bit-identical"
    );
    assert!(
        !traced
            .sim()
            .tracer()
            .expect("tracer")
            .summaries()
            .is_empty(),
        "traced run actually recorded spans"
    );
}

#[test]
fn cleared_tracer_restores_untraced_allocation_profile() {
    let setup = Fisher::default().build(12, 12).expect("setup");
    let mut runner = FixedRunner::new(setup).expect("runner");

    // Warm up: first steps allocate scratch buffers that later steps reuse.
    runner.run(4);
    let per_step_untraced = steady_state_allocs(&mut runner);

    // A live tracer is allowed to allocate (rings, histogram sink)...
    runner.set_tracer(TraceHandle::histograms_only());
    runner.run(2);

    // ...but detaching it must return the step loop to exactly the
    // untraced per-step allocation count: the span path compiles down to
    // `SpanRing::disabled()` and counted no-op pushes.
    runner.sim_mut().clear_tracer();
    let per_step_cleared = steady_state_allocs(&mut runner);
    assert_eq!(
        per_step_untraced, per_step_cleared,
        "clearing the tracer must restore the zero-cost span path"
    );
}

#[test]
fn multi_layer_systems_allocate_no_more_per_step_than_fisher() {
    // Each layer is compiled into its sweep form once, when the engine is
    // built, so a step's allocations do not grow with the layer count.
    let per_step = |system: &dyn DynamicalSystem| {
        let mut runner = FixedRunner::new(system.build(12, 12).expect("setup")).expect("runner");
        runner.run(4);
        steady_state_allocs(&mut runner)
    };
    let fisher = per_step(&Fisher::default());
    for (name, allocs) in [
        ("hodgkin-huxley", per_step(&HodgkinHuxley::default())),
        ("gray-scott", per_step(&GrayScott::default())),
    ] {
        assert!(
            allocs <= fisher,
            "{name} allocates {allocs} times per step, fisher {fisher}"
        );
    }
}

#[test]
fn a_steady_state_step_allocates_at_most_four_times() {
    // Fisher 12^2 (one fused dynamic sweep with a LUT site, Euler): the
    // sweep's band rows and its work items (one per LUT shard: the
    // shard's tag replay, then its row band), the step's sweep list and
    // its per-shard LUT deltas. Sweep labels are static, and the band
    // scratch is built once.
    let setup = Fisher::default().build(12, 12).expect("setup");
    let mut runner = FixedRunner::new(setup).expect("runner");
    runner.run(4);
    let allocs = steady_state_allocs(&mut runner);
    assert!(allocs <= 4, "fisher 12^2 allocates {allocs} times per step");
}

#[test]
fn replay_is_alloc_free_and_counter_identical_to_scalar() {
    use cenn::fx::Q16_16;
    use cenn::lut::{funcs, FuncLibrary, LutHierarchy, LutSpec, RowCtx};

    let mut lib = FuncLibrary::new();
    let tanh = lib.register(funcs::tanh());
    let spec = LutSpec::unit_spacing(-8, 8);
    let ctx = RowCtx::from_spec(tanh, spec);

    // A row of states spread over several sample intervals, issued from
    // all four PEs, exercising L1 hits, L2 hits and DRAM fills.
    let n = 64usize;
    let pes: Vec<u32> = (0..n as u32).map(|i| i % 4).collect();
    let cols: Vec<u32> = (0..n as u32).collect();
    let xs: Vec<Q16_16> = (0..n)
        .map(|i| Q16_16::from_f64((i as f64 - 32.0) / 9.0))
        .collect();

    // Scalar reference: the same row walked one lookup at a time, twice.
    let mut scalar = LutHierarchy::build(&lib, spec, 4, 32, 4).expect("hierarchy");
    for _ in 0..2 {
        for (&pe, &x) in pes.iter().zip(&xs) {
            scalar.lookup(pe as usize, tanh, x);
        }
    }

    let mut replayed = LutHierarchy::build(&lib, spec, 4, 32, 4).expect("hierarchy");
    let (tables, shards) = replayed.split();
    let shard = &mut shards[0];
    // The first replay services cold misses (DRAM bursts may grow the
    // L2)...
    shard.replay(tables, &[ctx], &pes, &cols, |_| &xs);
    // ...after which a warm replay must not touch the heap at all.
    let before = thread_allocs();
    shard.replay(tables, &[ctx], &pes, &cols, |_| &xs);
    assert_eq!(
        thread_allocs() - before,
        0,
        "a warm replay must not allocate"
    );
    assert_eq!(
        shard.stats(),
        scalar.shards()[0].stats(),
        "replays must leave every LUT counter exactly as scalar lookups"
    );
    for pe in 0..4 {
        assert_eq!(shard.pe_stats(pe), scalar.pe_stats(pe), "PE {pe}");
    }
}

/// Driver-thread allocations for one steady-state step (minimum of a few
/// samples, so a one-off reallocation elsewhere cannot fail the test).
fn steady_state_allocs(runner: &mut FixedRunner) -> u64 {
    (0..3)
        .map(|_| {
            let before = thread_allocs();
            runner.step();
            thread_allocs() - before
        })
        .min()
        .expect("samples")
}
