//! The plan-driven, tile-sharded execution engine.
//!
//! The functional simulator sweeps every cell of every layer once (or
//! twice, for Heun) per time step. This module supplies the machinery that
//! lets those sweeps run on worker threads **without changing a single
//! bit** of the serial results:
//!
//! * [`TilePlan`] decomposes a window of grid rows into per-shard tiles:
//!   each cell is assigned to the LUT shard (L2 group,
//!   [`cenn_lut::PES_PER_L2`] consecutive PEs) that its PE belongs to,
//!   preserving row-major order within the tile. A shard's cache state is
//!   touched only by its own PEs, so tiles are the unit of parallelism of
//!   the weight pass (the LUT lookups). The template pass needs no tiles:
//!   it works row by row and splits a window into one row band per
//!   shard. The plan itself is geometry only; tiles exist only for the
//!   window being swept, and only for models with dynamic weight sites.
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
//! state, and a tile visits its shard's cells in the same row-major order
//! the serial sweep would, so per-PE and per-shard counters are
//! bit-identical too; aggregate stats are order-independent `u64` sums.

use cenn_lut::{LutStats, PES_PER_L2};

/// One shard's slice of the grid: the cells (row-major) whose PEs map into
/// this shard.
#[derive(Debug, Clone)]
pub struct Tile {
    shard: usize,
    pe_base: usize,
    cells: Vec<(u32, u32)>,
    flats: Vec<u32>,
    pes: Vec<u32>,
}

impl Tile {
    /// The shard (L2 group) this tile's cells belong to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Global id of the first PE of the owning shard.
    pub fn pe_base(&self) -> usize {
        self.pe_base
    }

    /// The tile's `(row, col)` cells, in row-major sweep order.
    pub fn cells(&self) -> &[(u32, u32)] {
        &self.cells
    }

    /// Flat row-major grid index (`r * cols + c`) of every tile cell, in
    /// the same sweep order as [`cells`](Self::cells) — where the weight
    /// pass reads its cells' states, and where it writes their weights in
    /// the row-major site lanes.
    pub fn flats(&self) -> &[u32] {
        &self.flats
    }

    /// Global PE id of every tile cell, parallel to
    /// [`cells`](Self::cells). Hoists the `pe_of` modulo math out of the
    /// per-cell LUT loop.
    pub fn pes(&self) -> &[u32] {
        &self.pes
    }

    /// Number of cells in the tile.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if no cell maps to this shard (possible when the grid is
    /// smaller than the PE array).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Moves every cell `by` rows (up when negative), leaving flats and PE
    /// ids as they are: the spooled store re-targets a window's tiles at
    /// the next window of the same geometry this way.
    pub(crate) fn shift_rows(&mut self, by: i64) {
        for (r, _) in &mut self.cells {
            *r = (i64::from(*r) + by) as u32;
        }
    }
}

/// The geometry of a grid's decomposition over LUT shards for a given PE
/// array: grid shape, PE shape and shard count. It holds no cells; every
/// tile set comes from [`window`](Self::window), the full grid being the
/// one window `window(0, rows, |r| r)`.
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

    /// Tiles per window: one per LUT shard, indexed by shard id.
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

    /// Decomposes one *window* of grid rows `[row0, row1)` into per-shard
    /// tiles, one per shard — the windowed sweep schedule of the engine
    /// (the in-core store sweeps the one window `[0, rows)`; the spooled
    /// store of [`crate::stream`] cuts the grid into several).
    ///
    /// Cells and PE ids stay **global**, so each shard's LUT cache walks
    /// exactly the subsequence of the full-grid sweep that falls in the
    /// window (per-PE counters and values stay bit-identical when the
    /// windows are processed in ascending row order). The *flat* indices,
    /// however, address a caller-provided resident buffer:
    /// `local_row_of(r)` maps a global row to its row inside the resident
    /// window, and flats become `local_row_of(r) * cols + c`.
    ///
    /// # Panics
    ///
    /// Panics if the row range is empty or reaches past the grid.
    pub fn window(
        &self,
        row0: usize,
        row1: usize,
        mut local_row_of: impl FnMut(usize) -> usize,
    ) -> Vec<Tile> {
        assert!(row0 < row1 && row1 <= self.rows, "window out of range");
        // Cells per shard, so each tile is allocated at exactly its size:
        // a row's split over shards depends only on its PE row.
        let n = self.n_shards();
        let mut per_pe_row = vec![0usize; self.pe_rows * n];
        for pr in 0..self.pe_rows {
            for c in 0..self.cols {
                per_pe_row[pr * n + self.pe_of(pr, c) / PES_PER_L2] += 1;
            }
        }
        let mut tiles: Vec<Tile> = (0..n)
            .map(|s| {
                let len = (row0..row1)
                    .map(|r| per_pe_row[(r % self.pe_rows) * n + s])
                    .sum();
                Tile {
                    shard: s,
                    pe_base: s * PES_PER_L2,
                    cells: Vec::with_capacity(len),
                    flats: Vec::with_capacity(len),
                    pes: Vec::with_capacity(len),
                }
            })
            .collect();
        for r in row0..row1 {
            let local = local_row_of(r);
            for c in 0..self.cols {
                let pe = self.pe_of(r, c);
                let tile = &mut tiles[pe / PES_PER_L2];
                tile.cells.push((r as u32, c as u32));
                tile.flats.push((local * self.cols + c) as u32);
                tile.pes.push(pe as u32);
            }
        }
        tiles
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
    /// Work is split into contiguous chunks, one per worker — for tile
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
    /// shard as `dynamic`, and state updates as `update`.
    pub sweeps: Vec<(String, u64)>,
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
                    label: label.clone(),
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

    #[test]
    fn tile_plan_covers_every_cell_exactly_once() {
        let plan = TilePlan::new(13, 7, 8, 8);
        let tiles = plan.window(0, 13, |r| r);
        assert_eq!(tiles.iter().map(Tile::len).sum::<usize>(), 13 * 7);
        let mut seen = vec![0u32; 13 * 7];
        for tile in &tiles {
            for &(r, c) in tile.cells() {
                seen[r as usize * 7 + c as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn tile_cells_are_row_major_and_shard_consistent() {
        let plan = TilePlan::new(16, 16, 4, 4);
        for tile in &plan.window(0, 16, |r| r) {
            let mut prev = None;
            for &(r, c) in tile.cells() {
                let pe = plan.pe_of(r as usize, c as usize);
                assert_eq!(pe / PES_PER_L2, tile.shard());
                let key = (r, c);
                if let Some(p) = prev {
                    assert!(key > p, "cells must stay row-major within a tile");
                }
                prev = Some(key);
            }
        }
    }

    #[test]
    fn tile_flats_and_pes_mirror_cells() {
        let plan = TilePlan::new(13, 7, 8, 8);
        for tile in &plan.window(0, 13, |r| r) {
            assert_eq!(tile.flats().len(), tile.len());
            assert_eq!(tile.pes().len(), tile.len());
            for (j, &(r, c)) in tile.cells().iter().enumerate() {
                assert_eq!(tile.flats()[j], r * 7 + c);
                assert_eq!(tile.pes()[j] as usize, plan.pe_of(r as usize, c as usize));
            }
        }
    }

    #[test]
    fn small_grid_leaves_unused_shards_empty() {
        // 2x2 grid on an 8x8 PE array: only PEs 0,1,8,9 are used.
        let plan = TilePlan::new(2, 2, 8, 8);
        let tiles = plan.window(0, 2, |r| r);
        let used: Vec<usize> = tiles
            .iter()
            .filter(|t| !t.is_empty())
            .map(Tile::shard)
            .collect();
        assert_eq!(used, vec![0, 2]);
        assert_eq!(tiles.iter().map(Tile::len).sum::<usize>(), 4);
    }

    #[test]
    fn window_tiles_partition_the_full_plan() {
        // Concatenating per-shard window tiles in ascending row order must
        // reproduce each full-grid tile's cell and PE sequences exactly —
        // the windowed sweep's determinism precondition.
        let plan = TilePlan::new(13, 7, 8, 8);
        let full = plan.window(0, 13, |r| r);
        for window_rows in [1, 3, 13, 20] {
            let mut cells: Vec<Vec<(u32, u32)>> = vec![Vec::new(); plan.n_shards()];
            let mut pes: Vec<Vec<u32>> = vec![Vec::new(); plan.n_shards()];
            let mut lo = 0usize;
            while lo < 13 {
                let hi = (lo + window_rows).min(13);
                for t in plan.window(lo, hi, |r| r - lo) {
                    cells[t.shard()].extend_from_slice(t.cells());
                    pes[t.shard()].extend_from_slice(t.pes());
                    // Flats are resident-local: row offsets within the
                    // window, never past it.
                    for &f in t.flats() {
                        assert!((f as usize) < (hi - lo) * 7);
                    }
                }
                lo = hi;
            }
            for (tile, (c, p)) in full.iter().zip(cells.iter().zip(&pes)) {
                assert_eq!(tile.cells(), &c[..], "window_rows = {window_rows}");
                assert_eq!(tile.pes(), &p[..]);
            }
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
