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
        self.clamp(SampleIdx::of(x, self.log2_inv_spacing).0)
    }

    /// Raw sample index `raw` clamped onto the table.
    #[inline]
    fn clamp(&self, raw: i32) -> SampleIdx {
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
        debug_assert!(self.owns_pe(pe), "PE {pe} not owned by this shard");
        let table = &tables[func.0 as usize];
        let ctx = RowCtx::from_spec(func, table.spec());
        let idx = ctx.idx_of(x);
        let l1 = &mut self.l1s[pe - self.pe_base];
        let level = if l1.lookup(func, idx) {
            Level::L1
        } else if refill(l1, &mut self.l2, &ctx, idx) {
            Level::L2
        } else {
            Level::Dram
        };
        let eval = Tum::eval(table.at(idx), x, ctx.log2_inv_spacing, table.exact_adds());
        let by = |l| u64::from(level == l);
        let counts = shard_counts(1, by(Level::L2), by(Level::Dram), eval.exact.into());
        self.stats.merge(&counts);
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
    /// A one-function row derives each lane's index as the walk reaches
    /// it, its state row held out of the loop. A row of several functions
    /// runs in two phases per chunk of lanes, a chunk being as many lanes
    /// as a stack buffer of `INDEX_BUF` indices holds all functions of:
    /// first each function reads its state row once, writing every
    /// lane's clamped index into the buffer and counting δ = 0; then the
    /// tag walk takes the buffered indices in lane order, functions
    /// innermost. A lane of more than `INDEX_BUF` functions is a chunk of
    /// its own, walked `INDEX_BUF` functions at a time. In both loops, a
    /// row of up to `MEMO_FACTORS` functions goes through a per-call memo
    /// before the L1 probe, and the counters stay in registers: each
    /// lane's PE is credited once per lane, and the shard once per call.
    ///
    /// # Panics
    ///
    /// Panics if the lane slices' lengths differ, a PE is not owned by
    /// this shard, or a column lies outside a row. Each `ctx` must be
    /// built from its table's spec in `tables`: a debug build asserts it.
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
        let mut run = Replay {
            memos: [[Memo::EMPTY; PES_PER_L2]; MEMO_FACTORS],
            epochs: [0u32; PES_PER_L2],
        };
        let (mut l2_hits, mut dram, mut exact) = (0, 0, 0);
        if let [ctx] = ctxs {
            let (xs, ctx) = (row(0), *ctx);
            let lanes = pes.iter().zip(cols).map(|(&pe, &c)| {
                let x = xs[c as usize];
                exact += u64::from(Tum::delta(x, ctx.log2_inv_spacing).is_zero());
                (pe, [ctx.idx_of(x).0])
            });
            (l2_hits, dram) = self.walk::<true, _>(&mut run, ctxs, lanes);
        } else if !ctxs.is_empty() {
            let mut idx = [0i32; INDEX_BUF];
            let per_chunk = (INDEX_BUF / ctxs.len()).max(1);
            for (pes, cols) in pes.chunks(per_chunk).zip(cols.chunks(per_chunk)) {
                for (g, group) in ctxs.chunks(INDEX_BUF).enumerate() {
                    // Index rows: lane `j`'s indices at `idx[j * n..][..n]`.
                    let n = group.len();
                    for (k, ctx) in group.iter().enumerate() {
                        let (xs, ctx) = (row(g * INDEX_BUF + k), *ctx);
                        for (lane, &c) in idx.chunks_exact_mut(n).zip(cols) {
                            let x = xs[c as usize];
                            exact += u64::from(Tum::delta(x, ctx.log2_inv_spacing).is_zero());
                            lane[k] = ctx.idx_of(x).0;
                        }
                    }
                    // Tag walk.
                    let lanes = pes.iter().copied().zip(idx.chunks_exact(n));
                    let (by_l2, by_dram) = if ctxs.len() <= MEMO_FACTORS {
                        self.walk::<true, _>(&mut run, group, lanes)
                    } else {
                        self.walk::<false, _>(&mut run, group, lanes)
                    };
                    (l2_hits, dram) = (l2_hits + by_l2, dram + by_dram);
                }
            }
        }
        let accesses = (pes.len() * ctxs.len()) as u64;
        self.stats
            .merge(&shard_counts(accesses, l2_hits, dram, exact));
    }

    /// The tag walk of `lanes`, each a global PE id and its clamped index
    /// of each function of `group`, functions innermost. With `MEMO` (at
    /// most `MEMO_FACTORS` functions), an index the PE provenly had in its
    /// L1 at its current fill epoch (per `run`) is an L1 hit without a
    /// probe, and each refill advances the epoch, invalidating the PE's
    /// stale memos. Credits each lane's PE with its hits and misses, and
    /// returns how many look-ups the L2 and DRAM served.
    #[inline(always)]
    fn walk<const MEMO: bool, L: AsRef<[i32]>>(
        &mut self,
        run: &mut Replay,
        group: &[RowCtx],
        lanes: impl Iterator<Item = (u32, L)>,
    ) -> (u64, u64) {
        let (mut l2_hits, mut dram) = (0, 0);
        for (pe, lane) in lanes {
            let local = pe as usize - self.pe_base;
            let (l1, epoch) = (&mut self.l1s[local], &mut run.epochs[local]);
            let mut missed = 0;
            for (k, (ctx, &i)) in group.iter().zip(lane.as_ref()).enumerate() {
                let memo = MEMO.then(|| &mut run.memos[k][local]);
                let proven = memo
                    .as_ref()
                    .is_some_and(|m| m.idx == i && m.epoch == *epoch);
                if !proven && !l1.holds(ctx.func, SampleIdx(i)) {
                    missed += 1;
                    *epoch = epoch.wrapping_add(u32::from(MEMO));
                    match refill(l1, &mut self.l2, ctx, SampleIdx(i)) {
                        true => l2_hits += 1,
                        false => dram += 1,
                    }
                }
                if let Some(memo) = memo {
                    *memo = Memo {
                        idx: i,
                        epoch: *epoch,
                    };
                }
            }
            l1.tally(group.len() as u64 - missed, missed);
        }
        (l2_hits, dram)
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

/// The memo state of one [`LutShard::replay`] call: each PE's memo per
/// function slot, and its L1 fill epoch.
struct Replay {
    memos: [[Memo; PES_PER_L2]; MEMO_FACTORS],
    epochs: [u32; PES_PER_L2],
}

/// The L1 miss path of the tag walk, for an already-clamped index of
/// `ctx`'s function: installs its tag in `l1` and probes the L2, which on
/// a miss fetches the DRAM burst. Returns whether the L2 served it.
/// Scalar and batched lookups share it, and count its outcome each in
/// their own way.
// Inlined into the replay's loops; only the rare DRAM burst is a call.
#[inline(always)]
fn refill(l1: &mut L1Lut, l2: &mut L2Lut, ctx: &RowCtx, idx: SampleIdx) -> bool {
    l1.fill(ctx.func, idx);
    let hit = l2.lookup(ctx.func, idx);
    if !hit {
        burst(l2, ctx, idx);
    }
    hit
}

/// The shard counters of `accesses` look-ups of which the L2 served
/// `l2_hits` and DRAM `dram` (the rest hit in L1), `exact` of them at a
/// sample point: the one accounting of scalar and batched lookups.
fn shard_counts(accesses: u64, l2_hits: u64, dram: u64, exact: u64) -> LutStats {
    LutStats {
        accesses,
        l1_hits: accesses - l2_hits - dram,
        l2_hits,
        dram_fetches: dram,
        dram_points: dram * DRAM_BURST_POINTS as u64,
        exact_hits: exact,
    }
}

/// The DRAM fetch of an L2 miss on `idx`: installs the tags of its
/// 8-aligned burst window (§4.1) via the same hash used for reads.
/// Out-of-range window points clamp onto the table edge, so filling the
/// clamped sub-range once is exactly the per-point loop's final state.
// Out of line and cold: inlined, it bloats every loop the walk is
// inlined into.
#[cold]
#[inline(never)]
fn burst(l2: &mut L2Lut, ctx: &RowCtx, idx: SampleIdx) {
    let window = L2Lut::burst_window(idx);
    let (lo, hi) = (ctx.clamp(window.start).0, ctx.clamp(window.end - 1).0);
    for i in lo..=hi {
        l2.fill(ctx.func, SampleIdx(i));
    }
}

/// Functions per lane that [`LutShard::replay`] memoizes on the stack, in
/// either of its loops; wider lanes (Hodgkin–Huxley's six-factor membrane
/// layer) take the plain walk: their L1s refill too often for a memo to
/// pay.
const MEMO_FACTORS: usize = 4;

/// Sample indices a multi-function [`LutShard::replay`] derives ahead of
/// its tag walk: one chunk of lanes × functions (2 KiB of stack).
/// Hodgkin–Huxley's six-function rows of 64 lanes (128 columns over 8 PE
/// columns, 4 PEs per shard) fit in one chunk.
const INDEX_BUF: usize = 512;

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
    fn lanes_wider_than_the_index_buffer_match_scalar_lookups() {
        // More functions per lane than the index buffer holds: each lane
        // is a chunk of its own, walked a buffer of functions at a time.
        // Function `k` reads state row `k % 3`, so the small L1s refill.
        let (tables, f) = tables();
        let k = 2 * INDEX_BUF + 3;
        let ctxs = vec![RowCtx::from_spec(f, tables[0].spec()); k];
        let rows: Vec<Vec<Q16_16>> = (0..3)
            .map(|r| {
                (0..5)
                    .map(|c| Q16_16::from_f64(c as f64 * 1.5 - r as f64))
                    .collect()
            })
            .collect();
        let pes = [4u32, 5, 4, 7, 6];
        let mut scalar = LutShard::new(4, 4, 2, 8);
        for (c, &pe) in pes.iter().enumerate() {
            for j in 0..k {
                scalar.lookup(&tables, pe as usize, f, rows[j % 3][c]);
            }
        }
        let mut batched = LutShard::new(4, 4, 2, 8);
        batched.replay(&tables, &ctxs, &pes, &[0, 1, 2, 3, 4], |j| &rows[j % 3]);
        assert_eq!(batched.stats(), scalar.stats());
        for pe in 4..8 {
            assert_eq!(batched.pe_stats(pe), scalar.pe_stats(pe), "PE {pe}");
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
