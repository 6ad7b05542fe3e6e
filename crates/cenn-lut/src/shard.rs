//! One independently-owned slice of the LUT hierarchy: an L2 LUT plus the
//! L1 LUTs of the PEs attached to it.

use crate::builder::LutSpec;
use crate::entry::SampleIdx;
use crate::func::FuncId;
use crate::hierarchy::{AccessOutcome, Level, OffChipLut, PES_PER_L2};
use crate::l1::L1Lut;
use crate::l2::{L2Lut, DRAM_BURST_POINTS};
use crate::stats::LutStats;
use crate::tum::{Tum, TumEval};
use fixedpt::Q16_16;

/// Hoisted per-function lookup context for batched row lookups.
///
/// One table probe per *cell* repeats the same work: fetch the table
/// reference, read its spec, derive the index shift, clamp against the
/// same bounds. `RowCtx` lifts all of it out of the per-cell loop — the
/// caller builds one context per `(function)` factor and the shard then
/// only shifts, clamps and walks the cache per cell. The derived indices
/// are identical to `OffChipLut::clamp_idx(SampleIdx::of(..))`, so the
/// batched path is bit-identical to scalar lookups, counters included.
/// The batched lookups read the entry at the derived index without
/// clamping it again, so a context must come from its table's own spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCtx {
    /// The nonlinear function the lookups target.
    func: FuncId,
    /// Index shift: spacing is `2^-log2_inv_spacing`.
    log2_inv_spacing: u32,
    /// First valid sample index (inclusive).
    min_idx: i32,
    /// Last valid sample index (inclusive).
    max_idx: i32,
}

impl RowCtx {
    /// Builds the context for `func` from its sampling spec.
    pub fn from_spec(func: FuncId, spec: LutSpec) -> Self {
        Self {
            func,
            log2_inv_spacing: spec.log2_inv_spacing,
            min_idx: spec.min_idx,
            max_idx: spec.max_idx,
        }
    }

    /// The clamped sample index of `x` — exactly
    /// `table.clamp_idx(SampleIdx::of(x, spacing))`.
    #[inline]
    pub fn idx_of(&self, x: Q16_16) -> SampleIdx {
        let raw = SampleIdx::of(x, self.log2_inv_spacing).0;
        SampleIdx(raw.max(self.min_idx).min(self.max_idx))
    }
}

/// The mutable cache state owned by one L2 group: the shared L2 LUT, the
/// L1 LUTs of the (up to [`PES_PER_L2`]) PEs it serves, and the access
/// statistics those PEs generate.
///
/// A shard is the unit of parallelism for the threaded sweep: PEs never
/// touch cache state outside their own L2 group (§6.3 wires exactly four
/// PEs to one L2 LUT), so disjoint shards can be swept by different worker
/// threads with no shared mutable state. The off-chip tables are read-only
/// and passed in by reference on every access.
///
/// Determinism contract: the caches hold tags only, so every looked-up
/// *value* is read from the off-chip table and the hit level affects only
/// latency and counters; a shard's counters depend only on the order of
/// that shard's own accesses. A sweep that visits each shard's cells in
/// row-major order therefore reproduces the serial sweep's per-shard
/// statistics bit for bit, regardless of how shards interleave globally.
#[derive(Debug, Clone)]
pub struct LutShard {
    pe_base: usize,
    l1s: Vec<L1Lut>,
    l2: L2Lut,
    stats: LutStats,
}

impl LutShard {
    /// Creates the shard serving PEs `pe_base .. pe_base + n_pes`, each
    /// with an `l1_blocks`-block L1, sharing one `l2_capacity`-entry L2.
    ///
    /// # Panics
    ///
    /// Panics if `n_pes` is zero (a shard with no PEs can never be
    /// addressed) or above [`PES_PER_L2`], or the L1/L2 capacities are
    /// invalid.
    pub fn new(pe_base: usize, n_pes: usize, l1_blocks: usize, l2_capacity: usize) -> Self {
        assert!(
            (1..=PES_PER_L2).contains(&n_pes),
            "shard needs 1..={PES_PER_L2} PEs, got {n_pes}"
        );
        Self {
            pe_base,
            l1s: (0..n_pes).map(|_| L1Lut::new(l1_blocks)).collect(),
            l2: L2Lut::new(l2_capacity),
            stats: LutStats::default(),
        }
    }

    /// `true` if global PE `pe` is served by this shard.
    pub fn owns_pe(&self, pe: usize) -> bool {
        (self.pe_base..self.pe_base + self.l1s.len()).contains(&pe)
    }

    #[inline]
    fn local_pe(&self, pe: usize) -> usize {
        debug_assert!(self.owns_pe(pe), "PE {pe} not owned by this shard");
        pe - self.pe_base
    }

    /// The L1 → L2 → DRAM tag walk for an already-derived clamped index,
    /// filling tags on the way back, with the 8-point burst installed
    /// into L2 on a DRAM fetch (§4.1). Returns the level that hit. Every
    /// counter update of the cache walk lives here, so batched and scalar
    /// lookups share one accounting truth.
    #[inline]
    fn walk(&mut self, table: &OffChipLut, local: usize, func: FuncId, idx: SampleIdx) -> Level {
        self.stats.accesses += 1;
        if self.l1s[local].lookup(func, idx) {
            self.stats.l1_hits += 1;
            return Level::L1;
        }
        self.l1s[local].fill(func, idx);
        if self.l2.lookup(func, idx) {
            self.stats.l2_hits += 1;
            return Level::L2;
        }
        // DRAM burst: install the 8-aligned window's tags via the same
        // hash used for reads. Out-of-range window points clamp onto the
        // table edge, so filling the clamped sub-range once is exactly
        // the per-point loop's final state.
        self.stats.dram_fetches += 1;
        self.stats.dram_points += DRAM_BURST_POINTS as u64;
        let window = L2Lut::burst_window(idx);
        let lo = table.clamp_idx(SampleIdx(window.start)).0;
        let hi = table.clamp_idx(SampleIdx(window.end - 1)).0;
        for i in lo..=hi {
            self.l2.fill(func, SampleIdx(i));
        }
        Level::Dram
    }

    /// One batched lookup's walk through the per-PE memo: if the lane's
    /// index matches what this PE provenly had in its L1 at the current
    /// fill epoch, the L1 hit is replayed (same counters) without
    /// re-probing; otherwise the full walk runs and any refill advances
    /// the epoch, invalidating every stale memo for that PE.
    #[inline]
    fn walk_memoized(
        &mut self,
        table: &OffChipLut,
        local: usize,
        func: FuncId,
        idx: SampleIdx,
        memo: &mut Memo,
        epochs: &mut [u32; PES_PER_L2],
    ) {
        if memo.idx == idx.0 && memo.epoch == epochs[local] {
            self.stats.accesses += 1;
            self.stats.l1_hits += 1;
            self.l1s[local].count_hit();
            return;
        }
        if self.walk(table, local, func, idx) != Level::L1 {
            epochs[local] = epochs[local].wrapping_add(1);
        }
        *memo = Memo {
            idx: idx.0,
            epoch: epochs[local],
        };
    }

    /// Reads the off-chip entry at the clamped `idx`, evaluates it
    /// through the TUM at state `x` (with plain adds where the table's
    /// proof allows), and counts an exact use.
    #[inline]
    fn eval(&mut self, table: &OffChipLut, idx: SampleIdx, x: Q16_16, spacing: u32) -> TumEval {
        let eval = Tum::eval(table.at(idx), x, spacing, table.exact_adds());
        self.stats.exact_hits += eval.exact as u64;
        eval
    }

    /// Full look-up of `func` at state `x` on behalf of global PE `pe`:
    /// walks the cache tags, then evaluates the off-chip entry through
    /// the TUM, returning the approximated `l(x)` and the access outcome.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not owned by this shard or `func` is not in
    /// `tables`.
    pub fn lookup(
        &mut self,
        tables: &[OffChipLut],
        pe: usize,
        func: FuncId,
        x: Q16_16,
    ) -> (Q16_16, AccessOutcome) {
        let local = self.local_pe(pe);
        let table = &tables[func.0 as usize];
        let spacing = table.spec().log2_inv_spacing;
        let idx = table.clamp_idx(SampleIdx::of(x, spacing));
        let level = self.walk(table, local, func, idx);
        let eval = self.eval(table, idx, x, spacing);
        (
            eval.value,
            AccessOutcome {
                filled_from: level,
                exact: eval.exact,
            },
        )
    }

    /// Batched row look-up: evaluates `ctx.func` for a whole lane of raw
    /// Q16.16 states at once, writing raw result bits to `out`.
    ///
    /// `pes[j]` is the global PE issuing lane `j`'s lookup. The lanes are
    /// processed in slice order with the exact scalar walk, so values,
    /// cache contents and every counter match a sequence of
    /// [`lookup`](Self::lookup) calls bit for bit — the win is the hoisted
    /// index math and table dispatch, not a semantic change. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, a PE is not owned by this
    /// shard, or `ctx.func` is not in `tables`. `ctx` must be built from
    /// its table's spec: a debug build asserts it, and in a release build
    /// a state that clamps past the table panics.
    pub fn lookup_row(
        &mut self,
        tables: &[OffChipLut],
        ctx: &RowCtx,
        pes: &[u32],
        xs: &[i32],
        out: &mut [i32],
    ) {
        assert_eq!(pes.len(), xs.len(), "lane length mismatch");
        assert_eq!(xs.len(), out.len(), "lane length mismatch");
        let table = &tables[ctx.func.0 as usize];
        debug_assert_eq!(*ctx, RowCtx::from_spec(ctx.func, table.spec()));
        let mut memos = [Memo::EMPTY; PES_PER_L2];
        let mut epochs = [0u32; PES_PER_L2];
        for ((&pe, &x_bits), o) in pes.iter().zip(xs).zip(out.iter_mut()) {
            let x = Q16_16::from_bits(x_bits);
            let local = self.local_pe(pe as usize);
            let idx = ctx.idx_of(x);
            self.walk_memoized(table, local, ctx.func, idx, &mut memos[local], &mut epochs);
            *o = self
                .eval(table, idx, x, ctx.log2_inv_spacing)
                .value
                .to_bits();
        }
    }

    /// Batched multi-function look-up: evaluates `ctxs.len()` functions
    /// per cell, cell-major with the functions innermost, writing raw
    /// result bits to `out` in the same `[cell][function]` interleaved
    /// layout as `xs`.
    ///
    /// This is the batched form of a scalar loop that issues one
    /// [`lookup`](Self::lookup) per function inside a per-cell loop —
    /// e.g. a multi-factor dynamic template weight. The access order is
    /// exactly that scalar nesting, so cache contents and every counter
    /// stay bit-identical; the hoisting (one PE translation per cell,
    /// slice-driven iteration) is the only difference. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `xs`/`out` are not `pes.len() * ctxs.len()` long, a PE
    /// is not owned by this shard, or a `ctx.func` is not in `tables`.
    /// Each `ctx` must be built from its table's spec: a debug build
    /// asserts it, and in a release build a state that clamps past the
    /// table panics. With no functions there is nothing to look up, and
    /// nothing is.
    pub fn lookup_cells(
        &mut self,
        tables: &[OffChipLut],
        ctxs: &[RowCtx],
        pes: &[u32],
        xs: &[i32],
        out: &mut [i32],
    ) {
        let k = ctxs.len();
        assert_eq!(xs.len(), pes.len() * k, "lane length mismatch");
        assert_eq!(xs.len(), out.len(), "lane length mismatch");
        if k == 0 {
            return;
        }
        debug_assert!(ctxs
            .iter()
            .all(|c| *c == RowCtx::from_spec(c.func, tables[c.func.0 as usize].spec())));
        let memoize = k <= MEMO_FACTORS;
        let mut memos = [[Memo::EMPTY; PES_PER_L2]; MEMO_FACTORS];
        let mut epochs = [0u32; PES_PER_L2];
        for ((&pe, cell_xs), cell_out) in pes
            .iter()
            .zip(xs.chunks_exact(k))
            .zip(out.chunks_exact_mut(k))
        {
            let local = self.local_pe(pe as usize);
            for (kk, ((ctx, &x_bits), o)) in ctxs
                .iter()
                .zip(cell_xs)
                .zip(cell_out.iter_mut())
                .enumerate()
            {
                let x = Q16_16::from_bits(x_bits);
                let idx = ctx.idx_of(x);
                let table = &tables[ctx.func.0 as usize];
                if memoize {
                    let memo = &mut memos[kk][local];
                    self.walk_memoized(table, local, ctx.func, idx, memo, &mut epochs);
                } else {
                    self.walk(table, local, ctx.func, idx);
                }
                *o = self
                    .eval(table, idx, x, ctx.log2_inv_spacing)
                    .value
                    .to_bits();
            }
        }
    }

    /// Statistics accumulated by this shard's PEs.
    pub fn stats(&self) -> LutStats {
        self.stats
    }

    /// `(hits, misses)` of one PE's L1 LUT.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not owned by this shard.
    pub fn pe_stats(&self, pe: usize) -> (u64, u64) {
        assert!(self.owns_pe(pe), "PE {pe} not owned by this shard");
        self.l1s[pe - self.pe_base].stats()
    }

    /// Clears counters; cached tags are kept.
    pub fn reset_stats(&mut self) {
        self.stats = LutStats::default();
        self.l1s.iter_mut().for_each(L1Lut::reset_stats);
    }

    /// Invalidates the shard's L1s and L2 (cold restart).
    pub fn invalidate(&mut self) {
        self.l1s.iter_mut().for_each(L1Lut::invalidate);
        self.l2.invalidate();
    }
}

/// A `(sample index, fill epoch)` pair proving an index was in a PE's L1
/// the last time the batched walk touched it. `epoch == u32::MAX` can
/// never match a live epoch counter, so it doubles as "empty".
#[derive(Clone, Copy)]
struct Memo {
    idx: i32,
    epoch: u32,
}

impl Memo {
    const EMPTY: Self = Self {
        idx: 0,
        epoch: u32::MAX,
    };
}

/// Factors per site sweep that the batched walk memoizes on the stack;
/// wider sweeps (Hodgkin–Huxley's six-factor membrane layer) take the
/// plain walk.
const MEMO_FACTORS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LutSpec;
    use crate::func::FuncLibrary;
    use crate::funcs;

    fn tables() -> (Vec<OffChipLut>, FuncId) {
        let mut lib = FuncLibrary::new();
        let id = lib.register(funcs::square());
        let spec = LutSpec::unit_spacing(-16, 16);
        let tables = lib
            .iter()
            .map(|(_, f)| OffChipLut::generate(f, spec).unwrap())
            .collect();
        (tables, id)
    }

    #[test]
    fn shard_walks_hierarchy_like_the_full_one() {
        let (tables, f) = tables();
        let mut shard = LutShard::new(4, 4, 4, 32);
        let x = Q16_16::from_f64(2.5);
        let (_, o) = shard.lookup(&tables, 5, f, x);
        assert_eq!(o.filled_from, Level::Dram);
        let (_, o) = shard.lookup(&tables, 5, f, x);
        assert_eq!(o.filled_from, Level::L1);
        // A sibling PE shares the L2 but not the L1.
        let (_, o) = shard.lookup(&tables, 6, f, x);
        assert_eq!(o.filled_from, Level::L2);
        assert_eq!(shard.stats().accesses, 3);
        assert_eq!(shard.pe_stats(5), (1, 1));
        assert_eq!(shard.pe_stats(6), (0, 1));
    }

    #[test]
    fn batched_row_lookup_matches_scalar_bit_for_bit() {
        let (tables, f) = tables();
        let ctx = RowCtx::from_spec(f, tables[0].spec());
        // Values spanning exact sample points, interpolated points and
        // out-of-range (clamped) states.
        let xs: Vec<i32> = [-20.0, -2.5, -1.0, 0.0, 0.25, 1.0, 2.5, 3.75, 17.0, 2.5]
            .iter()
            .map(|v| Q16_16::from_f64(*v).to_bits())
            .collect();
        let pes: Vec<u32> = (0..xs.len() as u32).map(|j| 4 + (j % 4)).collect();

        let mut scalar = LutShard::new(4, 4, 4, 32);
        let want: Vec<i32> = pes
            .iter()
            .zip(&xs)
            .map(|(&pe, &x)| {
                scalar
                    .lookup(&tables, pe as usize, f, Q16_16::from_bits(x))
                    .0
                    .to_bits()
            })
            .collect();

        let mut batched = LutShard::new(4, 4, 4, 32);
        let mut got = vec![0i32; xs.len()];
        batched.lookup_row(&tables, &ctx, &pes, &xs, &mut got);

        assert_eq!(got, want, "values must match the scalar walk");
        assert_eq!(batched.stats(), scalar.stats(), "counters must match");
        for pe in 4..8 {
            assert_eq!(batched.pe_stats(pe), scalar.pe_stats(pe));
        }
    }

    #[test]
    fn lookup_cells_without_functions_is_a_no_op() {
        let (tables, _) = tables();
        let mut shard = LutShard::new(4, 4, 4, 32);
        shard.lookup_cells(&tables, &[], &[4, 5, 6], &[], &mut []);
        assert_eq!(shard.stats(), LutStats::default());
        assert_eq!(shard.pe_stats(4), (0, 0));
    }

    #[test]
    fn owns_pe_respects_base_and_width() {
        let shard = LutShard::new(8, 3, 4, 32);
        assert!(!shard.owns_pe(7));
        assert!(shard.owns_pe(8));
        assert!(shard.owns_pe(10));
        assert!(!shard.owns_pe(11));
    }

    #[test]
    #[should_panic(expected = "not owned by this shard")]
    fn foreign_pe_stats_panic() {
        LutShard::new(0, 4, 4, 32).pe_stats(4);
    }

    #[test]
    fn reset_and_invalidate_are_scoped_to_the_shard() {
        let (tables, f) = tables();
        let mut shard = LutShard::new(0, 2, 4, 32);
        shard.lookup(&tables, 0, f, Q16_16::from_f64(1.5));
        shard.reset_stats();
        assert_eq!(shard.stats(), LutStats::default());
        // Contents survived the stats reset...
        let (_, o) = shard.lookup(&tables, 0, f, Q16_16::from_f64(1.5));
        assert_eq!(o.filled_from, Level::L1);
        // ...but not invalidation.
        shard.invalidate();
        let (_, o) = shard.lookup(&tables, 0, f, Q16_16::from_f64(1.5));
        assert_eq!(o.filled_from, Level::Dram);
    }
}
