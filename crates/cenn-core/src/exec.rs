//! The plan-driven, shard-parallel execution engine.
//!
//! The functional simulator sweeps every cell of every layer once (or
//! twice, for Heun) per time step. This module supplies the machinery that
//! lets those sweeps run on worker threads **without changing a single
//! bit** of the serial results:
//!
//! * [`TilePlan`] is the geometry of a grid over the PE array, and its
//!   [`RowPattern`] assigns each cell to the LUT shard (L2 group,
//!   [`cenn_lut::PES_PER_L2`] consecutive PEs) its PE belongs to. A
//!   cell's PE depends only on its position, so a shard's cells in any
//!   window are its share of each row: the pattern lists, per shard and
//!   PE row, the shard's columns and their PE ids, and a window's rows
//!   are walked through it in ascending order. A shard's cache state is
//!   touched only by its own PEs, so shards are the unit of parallelism
//!   of the tag replay (the LUT accesses). The template pass works row by
//!   row and splits a window into one row band per shard, and a sweep
//!   fans out shard `j`'s replay and band `j` as one work item. Only
//!   models with dynamic weight sites build a pattern.
//! * [`ExecEngine`] fans work items out over scoped worker threads
//!   (`std::thread::scope`; no dependencies, no unsafe), one contiguous
//!   share per worker. With one thread it degenerates to a plain loop.
//! * [`StepStats`] records what one step cost: per-sweep wall-clock nanos,
//!   per-shard LUT traffic deltas, and cell throughput.
//!
//! Determinism contract (also see `DESIGN.md`): LUT cache state never
//! changes a looked-up *value* — the caches hold tags and every value is
//! read from the off-chip table, so the hit level affects only latency
//! counters. Each cell's fixed-point value depends only on the previous
//! states and its own exact MAC sequence, so values are bit-identical
//! under any sweep order, row bands included. Statistics are per-shard
//! state, and a shard's walk visits its cells in the same row-major order
//! the serial sweep would, so per-PE and per-shard counters are
//! bit-identical too; aggregate stats are order-independent `u64` sums.

use std::borrow::Cow;
use std::ops::Range;

use cenn_lut::{LutStats, PES_PER_L2};

/// The geometry of a grid's decomposition over LUT shards for a given PE
/// array: grid shape, PE shape and shard count. It holds no cells; the
/// shards' cells come from its [`row_pattern`](Self::row_pattern).
#[derive(Debug, Clone)]
pub struct TilePlan {
    rows: usize,
    cols: usize,
    pe_rows: usize,
    pe_cols: usize,
}

impl TilePlan {
    /// The decomposition of a `rows × cols` grid mapped onto a
    /// `pe_rows × pe_cols` PE array (cells map to PEs as
    /// `(r mod pe_rows, c mod pe_cols)`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(rows: usize, cols: usize, pe_rows: usize, pe_cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0 && pe_rows > 0 && pe_cols > 0,
            "tile plan dimensions must be non-zero"
        );
        Self {
            rows,
            cols,
            pe_rows,
            pe_cols,
        }
    }

    /// LUT shards of the PE array, one per [`PES_PER_L2`] PEs.
    pub fn n_shards(&self) -> usize {
        (self.pe_rows * self.pe_cols).div_ceil(PES_PER_L2)
    }

    /// Grid shape this plan decomposes.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// PE array shape the decomposition is based on.
    pub fn pe_shape(&self) -> (usize, usize) {
        (self.pe_rows, self.pe_cols)
    }

    /// The PE a cell maps to — the same formula every sweep uses.
    #[inline]
    pub fn pe_of(&self, r: usize, c: usize) -> usize {
        (r % self.pe_rows) * self.pe_cols + (c % self.pe_cols)
    }

    /// Each shard's share of a row, per PE row: `pe_rows × cols` entries
    /// whatever the window height. A shard's PEs are consecutive, so it
    /// occupies one PE row, or a few when `pe_cols` is not a multiple of
    /// [`PES_PER_L2`].
    pub fn row_pattern(&self) -> RowPattern {
        let entries = self.pe_rows * self.cols;
        let mut p = RowPattern {
            pe_rows: self.pe_rows,
            runs: Vec::new(),
            shard_end: Vec::with_capacity(self.n_shards()),
            cols: Vec::with_capacity(entries),
            pes: Vec::with_capacity(entries),
        };
        let n_pes = self.pe_rows * self.pe_cols;
        for s in 0..self.n_shards() {
            let pes = s * PES_PER_L2..n_pes.min((s + 1) * PES_PER_L2);
            for pe_row in pes.start / self.pe_cols..=(pes.end - 1) / self.pe_cols {
                // The shard's PE columns in this PE row, repeated in every
                // block of `pe_cols` grid columns.
                let row = pe_row * self.pe_cols..(pe_row + 1) * self.pe_cols;
                let pcs = pes.start.max(row.start) - row.start..pes.end.min(row.end) - row.start;
                let start = p.cols.len();
                for block in (0..self.cols).step_by(self.pe_cols) {
                    for pc in pcs.clone().take_while(|pc| block + pc < self.cols) {
                        p.cols.push((block + pc) as u32);
                        p.pes.push((row.start + pc) as u32);
                    }
                }
                if p.cols.len() > start {
                    p.runs.push(Run {
                        pe_row,
                        entries: start..p.cols.len(),
                    });
                }
            }
            p.shard_end.push(p.runs.len());
        }
        p
    }
}

/// One shard's columns of the rows with one PE row.
#[derive(Debug, Clone)]
struct Run {
    pe_row: usize,
    /// The run's span of [`RowPattern`]'s columns and PE ids.
    entries: Range<usize>,
}

/// Which columns of a row each LUT shard owns, with their PE ids, for
/// every PE row: the tag replay walks a window's rows through it, each
/// shard only its own rows, in ascending order, so each shard sees the
/// serial row-major cell sequence. Built once per engine from the PE
/// geometry ([`TilePlan::row_pattern`]).
#[derive(Debug, Clone, Default)]
pub struct RowPattern {
    pe_rows: usize,
    /// Each shard's non-empty runs, PE rows ascending; shard `s`'s are
    /// `runs[shard_end[s - 1]..shard_end[s]]`.
    runs: Vec<Run>,
    shard_end: Vec<usize>,
    cols: Vec<u32>,
    pes: Vec<u32>,
}

impl RowPattern {
    /// Shards the pattern covers (zero for the empty pattern).
    pub fn n_shards(&self) -> usize {
        self.shard_end.len()
    }

    /// Shard `s`'s rows among `rows`, ascending: each row with the
    /// shard's columns of it (ascending) and their global PE ids.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a shard of the pattern.
    pub fn shard_rows(
        &self,
        s: usize,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (usize, &[u32], &[u32])> + Clone + '_ {
        let first = if s == 0 { 0 } else { self.shard_end[s - 1] };
        ShardRows {
            pattern: self,
            runs: &self.runs[first..self.shard_end[s]],
            block: rows.start - rows.start % self.pe_rows,
            next: 0,
            rows,
        }
    }

    /// Bytes the pattern holds (for resident-footprint accounting).
    pub fn bytes(&self) -> usize {
        4 * (self.cols.len() + self.pes.len())
            + std::mem::size_of::<Run>() * self.runs.len()
            + std::mem::size_of::<usize>() * self.shard_end.len()
    }
}

/// The walk of [`RowPattern::shard_rows`]: PE-row blocks of the grid in
/// ascending order, and in each the shard's runs.
#[derive(Clone)]
struct ShardRows<'a> {
    pattern: &'a RowPattern,
    runs: &'a [Run],
    /// First row of the block being walked, and its next run.
    block: usize,
    next: usize,
    rows: Range<usize>,
}

impl<'a> Iterator for ShardRows<'a> {
    type Item = (usize, &'a [u32], &'a [u32]);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let run = self.runs.get(self.next)?;
            let r = self.block + run.pe_row;
            self.next += 1;
            if self.next == self.runs.len() {
                (self.block, self.next) = (self.block + self.pattern.pe_rows, 0);
            }
            // Rows only ascend: the first past the range ends the walk.
            if r >= self.rows.end {
                return None;
            }
            if r >= self.rows.start {
                let e = run.entries.clone();
                return Some((r, &self.pattern.cols[e.clone()], &self.pattern.pes[e]));
            }
        }
    }
}

/// Sweeps work items across a fixed number of worker threads.
///
/// The engine is a *policy* object: it owns no threads (workers are scoped
/// per call) and no state beyond the thread count, so it is trivially
/// cloneable and cheap to embed in every simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecEngine {
    threads: usize,
}

impl Default for ExecEngine {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecEngine {
    /// A single-threaded engine (plain loops, no spawning).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// An engine with `threads` workers; zero is clamped to one.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` if sweeps run inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Applies `f` to every item, partitioning the slice over the workers.
    /// `f` receives the item's index in `items` and a mutable reference to
    /// it. With one worker (or one item) this is a plain indexed loop on
    /// the calling thread.
    ///
    /// Work is split into contiguous chunks, one per worker — for shard
    /// sweeps the items are already per-shard units of comparable size, so
    /// static partitioning keeps the schedule deterministic without a work
    /// queue.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.for_each_chunk_mut(items, |first, part| {
            for (j, item) in part.iter_mut().enumerate() {
                f(first + j, item);
            }
        });
    }

    /// Hands each worker its contiguous share of `items` at once:
    /// `f(first, part)` with `first` the index of `part[0]` in `items`.
    /// The partition is [`for_each_mut`](Self::for_each_mut)'s, so a
    /// worker can carry state (a span clock, say) from item to item.
    pub fn for_each_chunk_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            f(0, items);
            return;
        }
        let chunk = items.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (w, part) in items.chunks_mut(chunk).enumerate() {
                let f = &f;
                scope.spawn(move || f(w * chunk, part));
            }
        });
    }

    /// Maps every item to a new value in parallel, preserving order.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let mut out: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(i, &items[i])));
        out.into_iter()
            .map(|v| v.expect("map slot filled"))
            .collect()
    }
}

/// Observability record for one executed time step.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Worker threads the engine was configured with.
    pub threads: usize,
    /// `(label, nanos)` for each sweep in execution order. Algebraic
    /// layers sweep one at a time (they form declaration-order chains) and
    /// are labelled `algebraic:<layer>`; dynamic layers sweep fused per
    /// shard as `dynamic`, and state updates as `update` (static labels,
    /// so a step allocates none).
    pub sweeps: Vec<(Cow<'static, str>, u64)>,
    /// Wall-clock nanos for the whole step.
    pub total_nanos: u64,
    /// Cell evaluations performed (cells × layer sweeps).
    pub cells: u64,
    /// Per-shard LUT traffic generated by this step (index = shard id).
    pub shard_lut: Vec<LutStats>,
    /// Max-norm of the state change the step applied (`max |Δx|` over
    /// dynamic layers), exact in fixed point — zero when no recorder is
    /// attached (the scan is skipped entirely).
    pub residual: f64,
}

impl StepStats {
    /// Cell-evaluation throughput of the step; zero when nothing ran.
    pub fn cells_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.cells as f64 / (self.total_nanos as f64 / 1e9)
        }
    }

    /// Aggregate LUT traffic of the step (sum over shards).
    pub fn lut_total(&self) -> LutStats {
        let mut total = LutStats::default();
        for s in &self.shard_lut {
            total.merge(s);
        }
        total
    }

    /// Converts the step record into the shared observability event
    /// payload. `step` and `time` come from the simulator clock (the
    /// stats block itself is clock-agnostic).
    pub fn to_metrics(&self, step: u64, time: f64) -> cenn_obs::StepMetrics {
        cenn_obs::StepMetrics {
            step,
            time,
            threads: self.threads as u64,
            cells: self.cells,
            total_nanos: self.total_nanos,
            residual: self.residual,
            sweeps: self
                .sweeps
                .iter()
                .map(|(label, nanos)| cenn_obs::SweepTiming {
                    label: label.to_string(),
                    nanos: *nanos,
                })
                .collect(),
            lut: self.lut_total().level_metrics(),
            shards: self.shard_lut.iter().map(|s| s.accesses).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(shard, row, col, pe)` the pattern walks over `rows`, shard
    /// by shard.
    fn walk(plan: &TilePlan, rows: Range<usize>) -> Vec<Vec<(usize, u32, u32)>> {
        let pattern = plan.row_pattern();
        (0..pattern.n_shards())
            .map(|s| {
                (pattern.shard_rows(s, rows.clone()))
                    .flat_map(|(r, cols, pes)| {
                        cols.iter().zip(pes).map(move |(&c, &pe)| (r, c, pe))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tile_plan_covers_every_cell_exactly_once() {
        let plan = TilePlan::new(13, 7, 8, 8);
        let mut seen = vec![0u32; 13 * 7];
        for (r, c, _) in walk(&plan, 0..13).into_iter().flatten() {
            seen[r * 7 + c as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn tile_cells_are_row_major_and_shard_consistent() {
        // 6 PE columns: shards 1 and 4 straddle two PE rows.
        for plan in [TilePlan::new(16, 16, 4, 4), TilePlan::new(13, 9, 3, 6)] {
            for (s, cells) in walk(&plan, 0..plan.shape().0).iter().enumerate() {
                for &(r, c, pe) in cells {
                    assert_eq!(pe as usize, plan.pe_of(r, c as usize));
                    assert_eq!(pe as usize / PES_PER_L2, s);
                }
                let keys: Vec<_> = cells.iter().map(|&(r, c, _)| (r, c)).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "row-major per shard");
            }
        }
    }

    #[test]
    fn tile_flats_and_pes_mirror_cells() {
        // Every row a shard walks pairs each of its columns with that
        // cell's PE id, one for one.
        let plan = TilePlan::new(13, 7, 8, 8);
        let pattern = plan.row_pattern();
        for s in 0..pattern.n_shards() {
            for (r, cols, pes) in pattern.shard_rows(s, 0..13) {
                assert_eq!(pes.len(), cols.len());
                for (&c, &pe) in cols.iter().zip(pes) {
                    assert!((c as usize) < 7);
                    assert_eq!(pe as usize, plan.pe_of(r, c as usize));
                }
            }
        }
    }

    #[test]
    fn small_grid_leaves_unused_shards_empty() {
        // 2x2 grid on an 8x8 PE array: only PEs 0,1,8,9 are used.
        let plan = TilePlan::new(2, 2, 8, 8);
        let cells = walk(&plan, 0..2);
        let used: Vec<usize> = (0..cells.len()).filter(|&s| !cells[s].is_empty()).collect();
        assert_eq!(used, vec![0, 2]);
    }

    #[test]
    fn window_tiles_partition_the_full_plan() {
        // Walking windows in ascending row order must reproduce each
        // shard's full-grid cell and PE sequence exactly — the windowed
        // sweep's determinism precondition — and the pattern's size does
        // not depend on the window.
        let plan = TilePlan::new(13, 7, 3, 6);
        let pattern = plan.row_pattern();
        assert_eq!(pattern.cols.len(), 3 * 7);
        let full = walk(&plan, 0..13);
        for window_rows in [1, 3, 5, 13, 20] {
            let mut cells = vec![Vec::new(); pattern.n_shards()];
            let mut lo = 0usize;
            while lo < 13 {
                let hi = (lo + window_rows).min(13);
                for (s, part) in walk(&plan, lo..hi).into_iter().enumerate() {
                    cells[s].extend(part);
                }
                lo = hi;
            }
            assert_eq!(full, cells, "window_rows = {window_rows}");
        }
    }

    #[test]
    fn engine_for_each_runs_all_items_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let engine = ExecEngine::new(threads);
            let mut items = vec![0u64; 10];
            engine.for_each_mut(&mut items, |i, v| *v = i as u64 + 1);
            let want: Vec<u64> = (1..=10).collect();
            assert_eq!(items, want, "threads = {threads}");
        }
    }

    #[test]
    fn engine_map_preserves_order() {
        let engine = ExecEngine::new(4);
        let out = engine.map(&[10, 20, 30, 40, 50], |i, v| v + i);
        assert_eq!(out, vec![10, 21, 32, 43, 54]);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let engine = ExecEngine::new(0);
        assert!(engine.is_serial());
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn step_stats_throughput() {
        let stats = StepStats {
            threads: 2,
            sweeps: vec![("dynamic".into(), 500_000_000)],
            total_nanos: 1_000_000_000,
            cells: 3_000_000,
            shard_lut: Vec::new(),
            residual: 0.0,
        };
        assert!((stats.cells_per_sec() - 3e6).abs() < 1e-6);
        assert_eq!(StepStats::default().cells_per_sec(), 0.0);
    }
}
