//! Property tests for the bytes the streamed engine reads back from disk:
//! the recovery journal ([`StreamSim::recover`]) and `CENNCKPT` chunks
//! ([`SimSnapshot::decode_ckpt`]). Arbitrary byte strings, and valid files
//! with an arbitrary byte range overwritten or truncated, must give a
//! typed error or a consistent result. They must never panic, and never
//! make an allocation larger than the input length allows.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread (a
//! const-initialized thread-local `Cell` with no destructor, so the
//! bookkeeping never allocates or recurses). The engines here run on one
//! thread, so every allocation a call makes lands on the test's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

use cenn_core::{
    mapping, Boundary, CennModel, CennModelBuilder, CennSim, Factor, Grid, SimSnapshot,
    StreamConfig, StreamSim, WeightExpr,
};
use cenn_lut::LutStats;
use proptest::prelude::*;

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

/// Allocation slack per input byte: a decoded layer costs its words
/// (4 bytes per 4 input bytes) and a per-layer bookkeeping entry of at
/// most 24 bytes per 4-byte length word; journal records grow a vector
/// of 16-byte cursor entries, at least 7 input bytes each, by doubling.
const PER_BYTE: usize = 8;

/// Fisher-style Euler model on a 10×6 grid: one dynamic layer with a LUT
/// offset, 3-row chunks, so 4 windows per step.
fn fisher_sim() -> CennSim {
    let (rows, cols) = (10, 6);
    let mut b = CennModelBuilder::new(rows, cols);
    let u = b.dynamic_layer("u", Boundary::ZeroFlux);
    let sq = b.register_func(cenn_lut::funcs::square());
    b.state_template(u, u, mapping::laplacian(0.25, 1.0).into_state_template());
    b.offset_expr(
        u,
        WeightExpr::product(-1.0, vec![Factor { func: sq, layer: u }]),
    );
    let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
    let init = Grid::from_fn(rows, cols, |r, c| 0.05 + 0.1 * ((r * cols + c) % 7) as f64);
    sim.set_state_f64(u, &init).unwrap();
    sim
}

fn spool_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cenn_untrusted_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A spool killed two windows into step 3, its model, and the largest
/// allocation recovering it takes (recovery leaves the spool as it was).
fn killed_spool(dir: &Path) -> (CennModel, StreamConfig, usize) {
    let sim = fisher_sim();
    let cfg = StreamConfig::new(dir).with_chunk_rows(3);
    let mut streamed = StreamSim::from_sim(&sim, cfg.clone()).unwrap();
    streamed.run(2).unwrap();
    streamed.step_windows(2).unwrap();
    drop(streamed);
    let model = sim.model().clone();
    let base = largest_alloc(|| StreamSim::recover(model.clone(), cfg.clone()).unwrap()).1;
    (model, cfg, base)
}

/// `bytes` with `len` bytes from `at` replaced by `patch` (cycled), or,
/// when `truncate`, cut at `at`. Positions wrap into the input.
fn mutate(bytes: &[u8], at: usize, len: usize, patch: &[u8], truncate: bool) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % (out.len() + 1);
    if truncate {
        out.truncate(at);
    } else {
        for (slot, &b) in out[at..].iter_mut().take(len).zip(patch.iter().cycle()) {
            *slot = b;
        }
    }
    out
}

/// A valid two-layer `CENNCKPT` image.
fn valid_ckpt() -> Vec<u8> {
    let snap = SimSnapshot {
        steps: 7,
        time: 0.35,
        run_cells: 96,
        states: vec![(0..12).collect(), (0..12).map(|v| -3 * v).collect()],
    };
    let mut out = Vec::new();
    snap.encode_ckpt(&LutStats::default(), &mut out);
    out
}

/// Decodes `bytes` and checks the typed-error-or-consistent contract: a
/// decoded image re-encodes to exactly `bytes`, and no allocation
/// outgrows the input.
fn check_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (decoded, largest) = largest_alloc(|| SimSnapshot::decode_ckpt(bytes));
    prop_assert!(
        largest <= PER_BYTE * bytes.len() + 64,
        "{} input bytes made a {largest}-byte allocation",
        bytes.len()
    );
    if let Ok((snap, lut)) = decoded {
        let mut again = Vec::new();
        snap.encode_ckpt(&lut, &mut again);
        prop_assert_eq!(&again[..], bytes);
    }
    Ok(())
}

/// Recovers from `dir` and checks the typed-error-or-consistent contract:
/// a recovered engine's snapshot, when readable, sits at its step count
/// with the model's shape, and a further step either fails with a typed
/// error or advances exactly one step. `base` is the largest allocation
/// recovering the unmutated spool took; the input may only add to it in
/// proportion to its length.
fn check_recover(
    model: &CennModel,
    cfg: &StreamConfig,
    input_len: usize,
    base: usize,
) -> Result<(), TestCaseError> {
    let (recovered, largest) = largest_alloc(|| StreamSim::recover(model.clone(), cfg.clone()));
    prop_assert!(
        largest <= base + PER_BYTE * input_len,
        "{input_len} input bytes made a {largest}-byte allocation (base {base})"
    );
    let Ok(mut s) = recovered else {
        return Ok(());
    };
    let steps = s.steps();
    if let Ok(snap) = s.snapshot() {
        prop_assert_eq!(snap.steps, steps);
        prop_assert_eq!(snap.states.len(), model.n_layers());
        prop_assert!(snap.states.iter().all(|l| l.len() == model.cells()));
    }
    if s.step().is_ok() {
        prop_assert_eq!(s.steps(), steps + 1);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_ckpt_handles_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_decode(&bytes)?;
    }

    #[test]
    fn decode_ckpt_handles_overwritten_or_truncated_images(
        at in 0usize..256,
        len in 1usize..16,
        patch in prop::collection::vec(any::<u8>(), 1..16),
        truncate in any::<bool>(),
    ) {
        check_decode(&mutate(&valid_ckpt(), at, len, &patch, truncate))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recover_handles_arbitrary_journals(
        keep in 0usize..16,
        tail in prop::collection::vec(any::<u8>(), 0..24),
        tokens in any::<bool>(),
        case in any::<u64>(),
    ) {
        let dir = spool_dir(&format!("journal_{case}"));
        let (model, cfg, base) = killed_spool(&dir);
        // The real journal's first `keep` lines, then arbitrary bytes —
        // drawn from the journal's own alphabet when `tokens`, so that
        // records parse often enough to reach the cursor checks.
        let path = dir.join("journal.txt");
        let real = fs::read_to_string(&path).unwrap();
        let mut bytes = real.split_inclusive('\n').take(keep).collect::<String>().into_bytes();
        let alphabet = b"step win 0123456789abcdef\n";
        bytes.extend(tail.iter().map(|&b| {
            if tokens {
                alphabet[usize::from(b) % alphabet.len()]
            } else {
                b
            }
        }));
        fs::write(&path, &bytes).unwrap();
        let result = check_recover(&model, &cfg, bytes.len(), base);
        let _ = fs::remove_dir_all(&dir);
        result?;
    }

    #[test]
    fn recover_handles_overwritten_or_truncated_spools(
        file_sel in 0usize..3,
        at in 0usize..512,
        len in 1usize..24,
        patch in prop::collection::vec(any::<u8>(), 1..24),
        truncate in any::<bool>(),
        case in any::<u64>(),
    ) {
        let dir = spool_dir(&format!("spool_{case}"));
        let (model, cfg, base) = killed_spool(&dir);
        // The journal, a state chunk the resumed step reads, or the chunk
        // a completed window of the killed step wrote.
        let file = ["journal.txt", "x0_00002.ckpt", "x1_00000.ckpt"][file_sel];
        let path = dir.join(file);
        let mutated = mutate(&fs::read(&path).unwrap(), at, len, &patch, truncate);
        fs::write(&path, &mutated).unwrap();
        let result = check_recover(&model, &cfg, mutated.len(), base);
        let _ = fs::remove_dir_all(&dir);
        result?;
    }
}
