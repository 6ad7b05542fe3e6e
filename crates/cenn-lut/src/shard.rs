//! One independently-owned slice of the LUT hierarchy: an L2 LUT plus the
//! L1 LUTs of the PEs attached to it.

use crate::builder::LutSpec;
use crate::entry::SampleIdx;
use crate::func::FuncId;
use crate::hierarchy::{AccessOutcome, Level, OffChipLut, PES_PER_L2};
use crate::l1::L1Lut;
use crate::l2::{L2Lut, DRAM_BURST_POINTS};
use crate::stats::LutStats;
use crate::tum::Tum;
use fixedpt::Q16_16;

/// Hoisted per-function lookup context for the batched
/// [`LutShard::replay`].
///
/// One table probe per *cell* repeats the same work: fetch the table
/// reference, read its spec, derive the index shift, clamp against the
/// same bounds. `RowCtx` lifts all of it out of the per-cell loop — the
/// caller builds one context per `(function)` factor and the shard then
/// only shifts, clamps and walks the cache per cell. The derived indices
/// are identical to `OffChipLut::clamp_idx(SampleIdx::of(..))`, so the
/// replay's counters are bit-identical to scalar lookups' — provided the
/// context comes from its table's own spec.
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

    /// Full look-up of `func` at state `x` on behalf of global PE `pe`:
    /// walks the cache tags, then evaluates the off-chip entry through
    /// the TUM, returning the approximated `l(x)` and the access outcome.
    /// The scalar reference the batched [`replay`](Self::replay) and
    /// [`OffChipLut::value`] split into counters and values.
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
        let eval = Tum::eval(table.at(idx), x, spacing, table.exact_adds());
        self.stats.exact_hits += u64::from(eval.exact);
        (
            eval.value,
            AccessOutcome {
                filled_from: level,
                exact: eval.exact,
            },
        )
    }

    /// Replays a row of look-ups for their counters alone: lane `j` is
    /// column `cols[j]`, looked up on behalf of global PE `pes[j]`, and
    /// its `k`-th look-up is of `ctxs[k]` at `row(k)[cols[j]]`, lanes in
    /// order and functions innermost. Each takes the scalar tag walk and
    /// counts an exact hit where δ = 0, so cache contents and every
    /// counter, per PE included, end as after the same
    /// [`lookup`](Self::lookup) calls; no entry is read. The caches hold
    /// tags only, so the values are [`OffChipLut::value`]'s whatever the
    /// walk did. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the lane slices' lengths differ, a PE is not owned by
    /// this shard, a column lies outside a row, or a `ctx.func` is not in
    /// `tables`. Each `ctx` must be built from its table's spec: a debug
    /// build asserts it.
    // Out of line: inlined into a sweep's fan-out, the walk's state
    // spills to the stack.
    #[inline(never)]
    pub fn replay<'r>(
        &mut self,
        tables: &[OffChipLut],
        ctxs: &[RowCtx],
        pes: &[u32],
        cols: &[u32],
        row: impl Fn(usize) -> &'r [Q16_16],
    ) {
        assert_eq!(pes.len(), cols.len(), "lane length mismatch");
        debug_assert!(ctxs
            .iter()
            .all(|c| *c == RowCtx::from_spec(c.func, tables[c.func.0 as usize].spec())));
        let memoize = ctxs.len() <= MEMO_FACTORS;
        let mut run = Replay {
            memos: [[Memo::EMPTY; PES_PER_L2]; MEMO_FACTORS],
            epochs: [0u32; PES_PER_L2],
            proven: 0,
            exact: 0,
        };
        if let [ctx] = ctxs {
            // One function: its table and state row stay out of the loop.
            let (table, xs) = (&tables[ctx.func.0 as usize], row(0));
            for (&pe, &c) in pes.iter().zip(cols) {
                let local = self.local_pe(pe as usize);
                self.replay_one(&mut run, table, ctx, local, Some(0), xs[c as usize]);
            }
        } else {
            for (&pe, &c) in pes.iter().zip(cols) {
                let local = self.local_pe(pe as usize);
                for (k, ctx) in ctxs.iter().enumerate() {
                    let table = &tables[ctx.func.0 as usize];
                    let slot = memoize.then_some(k);
                    self.replay_one(&mut run, table, ctx, local, slot, row(k)[c as usize]);
                }
            }
        }
        self.stats.accesses += run.proven;
        self.stats.l1_hits += run.proven;
        self.stats.exact_hits += run.exact;
    }

    /// One replayed look-up of `ctx`'s function at state `x` for local PE
    /// `local`, counting an exact hit where δ = 0. With a memo slot, an
    /// index this PE provenly had in its L1 at the current fill epoch is
    /// an L1 hit without a probe (same counters). Otherwise the walk runs,
    /// and a refill advances the epoch, invalidating every stale memo of
    /// the PE.
    #[inline(always)]
    fn replay_one(
        &mut self,
        run: &mut Replay,
        table: &OffChipLut,
        ctx: &RowCtx,
        local: usize,
        slot: Option<usize>,
        x: Q16_16,
    ) {
        let idx = ctx.idx_of(x);
        run.exact += u64::from(Tum::delta(x, ctx.log2_inv_spacing).is_zero());
        let epoch = &mut run.epochs[local];
        let memo = slot.map(|k| &mut run.memos[k][local]);
        if memo
            .as_ref()
            .is_some_and(|m| m.idx == idx.0 && m.epoch == *epoch)
        {
            self.l1s[local].count_hit();
            run.proven += 1;
            return;
        }
        if self.walk(table, local, ctx.func, idx) != Level::L1 {
            *epoch = epoch.wrapping_add(1);
        }
        if let Some(memo) = memo {
            *memo = Memo {
                idx: idx.0,
                epoch: *epoch,
            };
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
/// the last time the replay touched it. `epoch == u32::MAX` can
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

/// The state of one [`LutShard::replay`] call: each PE's memo per
/// function slot and its L1 fill epoch, and the memo-proven L1 hits and
/// exact hits it adds once the lanes are done (a counter in the shard
/// would chain every lane through memory).
struct Replay {
    memos: [[Memo; PES_PER_L2]; MEMO_FACTORS],
    epochs: [u32; PES_PER_L2],
    proven: u64,
    exact: u64,
}

/// Functions per lane that the replay memoizes on the stack; wider lanes
/// (Hodgkin–Huxley's six-factor membrane layer) take the plain walk: their
/// L1s refill too often for a memo to pay.
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
        let xs: Vec<Q16_16> = [-20.0, -2.5, -1.0, 0.0, 0.25, 1.0, 2.5, 3.75, 17.0, 2.5]
            .iter()
            .map(|v| Q16_16::from_f64(*v))
            .collect();
        let pes: Vec<u32> = (0..xs.len() as u32).map(|j| 4 + (j % 4)).collect();

        let mut scalar = LutShard::new(4, 4, 4, 32);
        let want: Vec<Q16_16> = pes
            .iter()
            .zip(&xs)
            .map(|(&pe, &x)| scalar.lookup(&tables, pe as usize, f, x).0)
            .collect();

        let mut batched = LutShard::new(4, 4, 4, 32);
        let cols: Vec<u32> = (0..xs.len() as u32).collect();
        batched.replay(&tables, &[ctx], &pes, &cols, |_| &xs);
        let got: Vec<Q16_16> = xs.iter().map(|&x| tables[0].value(x)).collect();

        assert_eq!(got, want, "values must match the scalar walk");
        assert_eq!(batched.stats(), scalar.stats(), "counters must match");
        assert_eq!(
            batched.stats().exact_hits,
            5,
            "-20, -1, 0, 1 and 17 clamp or sit on a point"
        );
        for pe in 4..8 {
            assert_eq!(batched.pe_stats(pe), scalar.pe_stats(pe));
        }
    }

    #[test]
    fn replay_without_functions_is_a_no_op() {
        let (tables, _) = tables();
        let mut shard = LutShard::new(4, 4, 4, 32);
        shard.replay(&tables, &[], &[4, 5, 6], &[0, 1, 2], |_| unreachable!());
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
