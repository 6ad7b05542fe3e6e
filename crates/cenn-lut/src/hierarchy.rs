//! The three-level LUT hierarchy: off-chip table, shared L2s, per-PE L1s.

use std::fmt;

use crate::builder::{LutBuildError, LutSpec};
use crate::entry::{LutEntry, SampleIdx};
use crate::func::{FuncId, FuncLibrary, NonlinearFn};
use crate::shard::LutShard;
use crate::stats::LutStats;
use crate::tum::Tum;
use fixedpt::Q16_16;

/// An invalid soft-error injection target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutFaultError {
    /// `word` does not select one of `{l(p), a1, a2, a3}` (0–3).
    Word(usize),
    /// `bit` exceeds the 32-bit word width.
    Bit(u32),
    /// The function id names no table in this hierarchy.
    Function(u16),
}

impl fmt::Display for LutFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Word(w) => write!(f, "LUT fault word {w} out of range (0-3)"),
            Self::Bit(b) => write!(f, "LUT fault bit {b} out of range (0-31)"),
            Self::Function(id) => write!(f, "LUT fault targets unknown function {id}"),
        }
    }
}

impl std::error::Error for LutFaultError {}

/// Outcome of one integrity scrub pass over off-chip tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Entries whose checksum was verified.
    pub scanned: u64,
    /// Entries that failed verification and were regenerated.
    pub repaired: u64,
}

impl ScrubReport {
    /// Accumulates another report (e.g. per-table into per-hierarchy).
    pub fn merge(&mut self, other: &ScrubReport) {
        self.scanned += other.scanned;
        self.repaired += other.repaired;
    }
}

/// Where a look-up was ultimately satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Hit in the PE's local L1 LUT (no stall).
    L1,
    /// L1 miss, hit in the shared L2 LUT (one extra cycle, §6.2).
    L2,
    /// Both on-chip LUTs missed; an 8-point DRAM burst was fetched.
    Dram,
}

/// Outcome of one hierarchical look-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The deepest level that had to be consulted.
    pub filled_from: Level,
    /// `true` if the exact `l(p)` was used (state on a sample point).
    pub exact: bool,
}

/// The full per-function table resident in main memory (Fig. 5).
///
/// Entries are pre-quantized to the fixed-point storage format when the
/// table is generated from a registered [`crate::NonlinearFn`], exactly as
/// the off-chip LUT would be written by the host before programming the
/// solver (§3). Accesses outside the sampled range clamp to the boundary
/// sample — equations are expected to keep their states inside the
/// programmed domain, and clamping is what a range-checked hardware indexer
/// would do.
#[derive(Debug, Clone)]
pub struct OffChipLut {
    spec: LutSpec,
    entries: Vec<LutEntry>,
    /// Per-entry integrity checksums ([`LutEntry::checksum`]), written when
    /// the table is generated and *not* touched by fault injection — they
    /// model a host-computed integrity sidecar that a retention upset in
    /// the data words cannot keep consistent.
    sums: Vec<u32>,
    /// Every entry's [`LutEntry::adds_exact`] holds, so the TUM evaluates
    /// this table with plain adds. Re-derived by every entry write.
    exact_adds: bool,
}

impl OffChipLut {
    /// Samples `func` over `spec`, quantizing values and Taylor
    /// coefficients to Q16.16.
    ///
    /// # Errors
    ///
    /// Returns an error if the spec fails [`LutSpec::validate`], or
    /// [`LutBuildError::Unrepresentable`] for the first sample whose value
    /// or coefficients Q16.16 cannot hold (quantizing would clamp them).
    pub fn generate(func: &NonlinearFn, spec: LutSpec) -> Result<Self, LutBuildError> {
        spec.validate()?;
        // Rounding a word to the nearest Q16.16 step must land inside i32.
        let scale = f64::from(1u32 << Q16_16::FRAC_BITS);
        let fits = |w: f64| {
            (w * scale > f64::from(i32::MIN) - 0.5) && (w * scale < f64::from(i32::MAX) + 0.5)
        };
        let mut entries = Vec::with_capacity(spec.len());
        for i in spec.min_idx..=spec.max_idx {
            let t = func.taylor(SampleIdx(i).point(spec.log2_inv_spacing));
            if !t.into_iter().all(fits) {
                return Err(LutBuildError::Unrepresentable { idx: i });
            }
            // Coefficients are stored against the *scaled* offset so the
            // TUM can use the raw fractional bits directly: for spacing
            // 2^-s the polynomial argument is delta in [0, 2^-s).
            entries.push(LutEntry::quantize(t[0], t[1], t[2], t[3]));
        }
        let exact_adds = entries.iter().all(LutEntry::adds_exact);
        let sums = entries.iter().map(LutEntry::checksum).collect();
        Ok(Self {
            spec,
            entries,
            sums,
            exact_adds,
        })
    }

    /// The sampling specification of this table.
    pub fn spec(&self) -> LutSpec {
        self.spec
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table holds no entries (never for generated tables).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Size of the table in bytes (entries × 16 B).
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * crate::entry::LUT_ENTRY_BYTES
    }

    /// `true` if every entry's [`LutEntry::adds_exact`] holds, so the
    /// TUM may evaluate this table with plain adds.
    pub fn exact_adds(&self) -> bool {
        self.exact_adds
    }

    /// Reads the entry for a sample index, clamping to the table range.
    pub fn read(&self, idx: SampleIdx) -> LutEntry {
        self.at(self.clamp_idx(idx))
    }

    /// The TUM's value of the table at state `x`: the entry at the
    /// clamped index, evaluated with plain adds where the table's proof
    /// allows ([`Tum::eval`]). It consults no cache, since the caches hold
    /// tags only: the value of a [`LutShard::lookup`] at `x`, whatever the
    /// walk did.
    #[inline]
    pub fn value(&self, x: Q16_16) -> Q16_16 {
        let spacing = self.spec.log2_inv_spacing;
        let idx = self.clamp_idx(SampleIdx::of(x, spacing));
        Tum::eval(self.at(idx), x, spacing, self.exact_adds).value
    }

    /// The entry at an index already clamped into the table range.
    ///
    /// # Panics
    ///
    /// Panics if `idx` lies outside the range.
    #[inline]
    pub(crate) fn at(&self, idx: SampleIdx) -> LutEntry {
        self.entries[(idx.0 - self.spec.min_idx) as usize]
    }

    /// Clamps a sample index into the table's valid range.
    #[inline]
    pub fn clamp_idx(&self, idx: SampleIdx) -> SampleIdx {
        SampleIdx(idx.0.max(self.spec.min_idx).min(self.spec.max_idx))
    }

    /// The position in `entries` of the clamped `idx`.
    fn slot(&self, idx: SampleIdx) -> usize {
        (self.clamp_idx(idx).0 - self.spec.min_idx) as usize
    }

    /// Re-derives [`exact_adds`](Self::exact_adds) after an entry write.
    fn prove_adds(&mut self) {
        self.exact_adds = self.entries.iter().all(LutEntry::adds_exact);
    }

    /// Flips one bit of one stored word — the soft-error injection hook
    /// for the fault-resilience study. `word` selects `{l(p), a1, a2, a3}`
    /// (0–3), `bit` the bit position. The stored checksum is deliberately
    /// *not* updated: a real retention upset corrupts the data word, not
    /// the integrity sidecar, which is what lets [`scrub`](Self::scrub)
    /// detect it.
    ///
    /// # Errors
    ///
    /// Returns [`LutFaultError`] if `word > 3` or `bit > 31`.
    pub fn flip_bit(&mut self, idx: SampleIdx, word: usize, bit: u32) -> Result<(), LutFaultError> {
        if word >= 4 {
            return Err(LutFaultError::Word(word));
        }
        if bit >= 32 {
            return Err(LutFaultError::Bit(bit));
        }
        let slot = self.slot(idx);
        let e = &mut self.entries[slot];
        let target = match word {
            0 => &mut e.l_p,
            1 => &mut e.a1,
            2 => &mut e.a2,
            _ => &mut e.a3,
        };
        *target = Q16_16::from_bits(target.to_bits() ^ (1 << bit));
        self.prove_adds();
        Ok(())
    }

    /// `true` if the entry at `idx` (clamped) still matches its stored
    /// checksum.
    pub fn verify(&self, idx: SampleIdx) -> bool {
        let i = self.slot(idx);
        self.entries[i].checksum() == self.sums[i]
    }

    /// Number of entries whose stored words no longer match their checksum
    /// (read-only integrity census, no repair).
    pub fn corrupt_entries(&self) -> usize {
        self.entries
            .iter()
            .zip(&self.sums)
            .filter(|(e, &s)| e.checksum() != s)
            .count()
    }

    /// Verifies every entry against its checksum and regenerates the ones
    /// that fail through the same compute-unit path used at build time
    /// (`func.taylor` at the entry's sample point, quantized to Q16.16) —
    /// the paper's LUT-miss regeneration mechanism repurposed as a repair:
    /// a corrupt table degrades to "one extra regeneration", not a wrong
    /// trajectory. Repaired entries are bit-identical to the originals, so
    /// a scrubbed table is indistinguishable from a freshly generated one.
    pub fn scrub(&mut self, func: &NonlinearFn) -> ScrubReport {
        let mut report = ScrubReport {
            scanned: self.entries.len() as u64,
            repaired: 0,
        };
        for (i, (e, sum)) in self.entries.iter_mut().zip(&mut self.sums).enumerate() {
            if e.checksum() == *sum {
                continue;
            }
            let p = SampleIdx(self.spec.min_idx + i as i32).point(self.spec.log2_inv_spacing);
            let t = func.taylor(p);
            *e = LutEntry::quantize(t[0], t[1], t[2], t[3]);
            *sum = e.checksum();
            report.repaired += 1;
        }
        if report.repaired > 0 {
            self.prove_adds();
        }
        report
    }
}

/// The complete memory hierarchy used for real-time template update:
/// one off-chip table per registered function, plus one [`LutShard`] per
/// L2 group — the shared L2 LUT (one per memory channel in hardware)
/// together with the L1 LUTs of the PEs attached to it.
///
/// PE-to-L2 affinity follows the architecture: PEs are distributed evenly
/// over the L2s ("four PEs are connected to one L2 LUT", §6.3). Because a
/// PE's entire mutable cache state lives inside its shard, the shards can
/// be [`split`](Self::split) off and swept concurrently by the threaded
/// execution engine while the off-chip tables are shared read-only.
#[derive(Debug, Clone)]
pub struct LutHierarchy {
    tables: Vec<OffChipLut>,
    shards: Vec<LutShard>,
    n_pes: usize,
}

/// PEs served by each L2 LUT (§6.3: "four PEs are connected to one L2
/// LUT").
pub const PES_PER_L2: usize = 4;

impl LutHierarchy {
    /// Builds the hierarchy for every function in `lib`, all sampled over
    /// the same `spec`, with `l1_blocks` per PE and `l2_capacity` entries
    /// per L2. One L2 is instantiated per [`PES_PER_L2`] PEs (minimum 1).
    ///
    /// # Errors
    ///
    /// Propagates [`LutBuildError`] from table generation.
    pub fn build(
        lib: &FuncLibrary,
        spec: LutSpec,
        l1_blocks: usize,
        l2_capacity: usize,
        n_pes: usize,
    ) -> Result<Self, LutBuildError> {
        let specs = vec![spec; lib.len().max(1)];
        Self::build_with_specs(lib, &specs, l1_blocks, l2_capacity, n_pes)
    }

    /// Like [`build`](Self::build) but with a per-function sampling spec
    /// (functions with different natural domains, e.g. HH gating rates vs.
    /// membrane currents).
    ///
    /// # Errors
    ///
    /// Returns an error if `specs.len() != lib.len()` (reported as an empty
    /// range) or any table fails to generate.
    ///
    /// # Panics
    ///
    /// Panics if `n_pes` is zero.
    pub fn build_with_specs(
        lib: &FuncLibrary,
        specs: &[LutSpec],
        l1_blocks: usize,
        l2_capacity: usize,
        n_pes: usize,
    ) -> Result<Self, LutBuildError> {
        assert!(n_pes > 0, "hierarchy needs at least one PE");
        let mut tables = Vec::with_capacity(lib.len());
        for (i, (_, f)) in lib.iter().enumerate() {
            let spec = specs
                .get(i)
                .copied()
                .ok_or(LutBuildError::EmptyRange { min: 0, max: -1 })?;
            tables.push(OffChipLut::generate(f, spec)?);
        }
        let n_shards = n_pes.div_ceil(PES_PER_L2).max(1);
        let shards = (0..n_shards)
            .map(|s| {
                let pe_base = s * PES_PER_L2;
                let width = PES_PER_L2.min(n_pes - pe_base);
                LutShard::new(pe_base, width, l1_blocks, l2_capacity)
            })
            .collect();
        Ok(Self {
            tables,
            shards,
            n_pes,
        })
    }

    /// Number of PEs (L1 LUTs).
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// Number of independently-sweepable shards (one per L2 group).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index that owns global PE `pe`.
    pub fn shard_of(pe: usize) -> usize {
        pe / PES_PER_L2
    }

    /// Borrows the read-only off-chip tables alongside the mutable shards,
    /// letting worker threads drive disjoint shards concurrently via
    /// [`LutShard::lookup`] while sharing the tables.
    pub fn split(&mut self) -> (&[OffChipLut], &mut [LutShard]) {
        (&self.tables, &mut self.shards)
    }

    /// The shards themselves (read-only view, e.g. for per-shard stats).
    pub fn shards(&self) -> &[LutShard] {
        &self.shards
    }

    /// The off-chip table for a function.
    ///
    /// # Panics
    ///
    /// Panics if `func` is not from the library the hierarchy was built
    /// with.
    pub fn table(&self, func: FuncId) -> &OffChipLut {
        &self.tables[func.0 as usize]
    }

    /// Full look-up of `func` at state `x` on behalf of PE `pe`: walks
    /// the L1 → L2 → DRAM tags, filling them on the way back (an 8-point
    /// burst into L2 on a DRAM fetch, §4.1), and evaluates the off-chip
    /// entry through the TUM. Returns the approximated `l(x)` and the
    /// access outcome.
    pub fn lookup(&mut self, pe: usize, func: FuncId, x: Q16_16) -> (Q16_16, AccessOutcome) {
        let shard = Self::shard_of(pe) % self.shards.len();
        self.shards[shard].lookup(&self.tables, pe, func, x)
    }

    /// Aggregate statistics since construction / last reset — the
    /// order-independent sum of every shard's counters.
    pub fn stats(&self) -> LutStats {
        let mut total = LutStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// `(hits, misses)` of one PE's private L1 LUT — the per-PE accounting
    /// the determinism tests compare between serial and threaded sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `pe >= n_pes`.
    pub fn pe_stats(&self, pe: usize) -> (u64, u64) {
        assert!(pe < self.n_pes, "PE {pe} out of range");
        self.shards[Self::shard_of(pe)].pe_stats(pe)
    }

    /// Measured L1/L2 miss rates `(mr_L1, mr_L2)` — the inputs the paper
    /// feeds to its cycle-level simulator (§6.3).
    pub fn miss_rates(&self) -> (f64, f64) {
        let s = self.stats();
        (s.l1_miss_rate(), s.l2_miss_rate())
    }

    /// Clears statistics (cache contents are kept — used to separate
    /// warm-up from measurement).
    pub fn reset_stats(&mut self) {
        self.shards.iter_mut().for_each(LutShard::reset_stats);
    }

    /// Invalidates all on-chip LUTs (cold restart).
    pub fn invalidate(&mut self) {
        self.shards.iter_mut().for_each(LutShard::invalidate);
    }

    /// Injects a soft error into the off-chip table of `func` (see
    /// [`OffChipLut::flip_bit`]) and invalidates the on-chip LUTs. Values
    /// always come from the table, so the corrupted word is read at once;
    /// the invalidation makes the hit counters show the re-fetch.
    ///
    /// # Errors
    ///
    /// Returns [`LutFaultError`] if `func` is unknown or `word`/`bit` are
    /// out of range.
    pub fn inject_fault(
        &mut self,
        func: FuncId,
        idx: SampleIdx,
        word: usize,
        bit: u32,
    ) -> Result<(), LutFaultError> {
        let table = self
            .tables
            .get_mut(func.0 as usize)
            .ok_or(LutFaultError::Function(func.0))?;
        table.flip_bit(idx, word, bit)?;
        self.invalidate();
        Ok(())
    }

    /// Scrubs every off-chip table against the library it was built from,
    /// repairing corrupt entries via the compute-unit path (see
    /// [`OffChipLut::scrub`]). If anything was repaired the on-chip LUTs
    /// are invalidated, so the counters show the repaired entries being
    /// fetched again.
    ///
    /// # Panics
    ///
    /// Panics if `lib` has fewer functions than the hierarchy has tables
    /// (i.e. it is not the library the hierarchy was built with).
    pub fn scrub(&mut self, lib: &FuncLibrary) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (i, table) in self.tables.iter_mut().enumerate() {
            let func = lib.get(FuncId(i as u16));
            report.merge(&table.scrub(func));
        }
        if report.repaired > 0 {
            self.invalidate();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funcs;

    fn small_hierarchy(l1: usize, l2: usize, pes: usize) -> (LutHierarchy, FuncId) {
        let mut lib = FuncLibrary::new();
        let id = lib.register(funcs::square());
        let h = LutHierarchy::build(&lib, LutSpec::unit_spacing(-16, 16), l1, l2, pes).unwrap();
        (h, id)
    }

    #[test]
    fn off_chip_table_reads_and_clamps() {
        let t = OffChipLut::generate(&funcs::square(), LutSpec::unit_spacing(-4, 4)).unwrap();
        assert_eq!(t.len(), 9);
        assert_eq!(t.size_bytes(), 9 * 16);
        assert_eq!(t.read(SampleIdx(3)).l_p.to_f64(), 9.0);
        // Out of range clamps to boundary.
        assert_eq!(t.read(SampleIdx(100)).l_p.to_f64(), 16.0);
        assert_eq!(t.read(SampleIdx(-100)).l_p.to_f64(), 16.0);
    }

    #[test]
    fn cold_access_walks_to_dram_then_warms() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        let x = Q16_16::from_f64(2.5);
        let (_, o1) = h.lookup(0, f, x);
        assert_eq!(o1.filled_from, Level::Dram);
        let (_, o2) = h.lookup(0, f, x);
        assert_eq!(o2.filled_from, Level::L1);
        // A different point in the same burst window hits L2.
        let (_, o3) = h.lookup(0, f, Q16_16::from_f64(5.5));
        assert_eq!(o3.filled_from, Level::L2);
    }

    #[test]
    fn lookup_value_approximates_function() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        for x in [-3.3f64, -0.7, 0.0, 1.25, 3.9] {
            let (v, _) = h.lookup(0, f, Q16_16::from_f64(x));
            assert!((v.to_f64() - x * x).abs() < 1e-3, "x={x}: {}", v.to_f64());
        }
    }

    #[test]
    fn exact_flag_set_on_sample_points() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        let (v, o) = h.lookup(0, f, Q16_16::from_f64(3.0));
        assert!(o.exact);
        assert_eq!(v.to_f64(), 9.0);
        assert_eq!(h.stats().exact_hits, 1);
    }

    #[test]
    fn pes_share_l2_but_not_l1() {
        let (mut h, f) = small_hierarchy(4, 32, 8);
        assert_eq!(h.n_shards(), 2);
        let x = Q16_16::from_f64(1.5);
        let (_, o) = h.lookup(0, f, x);
        assert_eq!(o.filled_from, Level::Dram);
        // PE 1 shares L2 0 with PE 0: L1 miss, L2 hit.
        let (_, o) = h.lookup(1, f, x);
        assert_eq!(o.filled_from, Level::L2);
        // PE 4 is on L2 1: full miss.
        let (_, o) = h.lookup(4, f, x);
        assert_eq!(o.filled_from, Level::Dram);
    }

    #[test]
    fn stats_and_miss_rates_accumulate() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        for i in 0..10 {
            h.lookup(0, f, Q16_16::from_f64(i as f64 * 0.5));
        }
        let s = h.stats();
        assert_eq!(s.accesses, 10);
        assert!(s.l1_hits + s.l2_hits + s.dram_fetches == 10);
        let (mr1, mr2) = h.miss_rates();
        assert!((0.0..=1.0).contains(&mr1));
        assert!((0.0..=1.0).contains(&mr2));
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
    }

    #[test]
    fn thrashing_small_l1_has_high_miss_rate() {
        // Working set of 8 integer points cycled through a 2-block L1:
        // every access misses L1 after the first pass.
        let (mut h, f) = small_hierarchy(2, 32, 1);
        for round in 0..20 {
            for i in 0..8 {
                h.lookup(0, f, Q16_16::from_f64(i as f64 + 0.5));
            }
            if round == 0 {
                h.reset_stats();
            }
        }
        let (mr1, mr2) = h.miss_rates();
        assert!(mr1 > 0.9, "mr1 = {mr1}");
        // But the L2 holds the whole working set: near-zero L2 misses.
        assert!(mr2 < 0.05, "mr2 = {mr2}");
    }

    #[test]
    fn invalidate_forces_cold_misses_again() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        let x = Q16_16::from_f64(1.5);
        h.lookup(0, f, x);
        h.invalidate();
        let (_, o) = h.lookup(0, f, x);
        assert_eq!(o.filled_from, Level::Dram);
    }

    #[test]
    fn per_function_specs_are_respected() {
        let mut lib = FuncLibrary::new();
        let a = lib.register(funcs::square());
        let b = lib.register(funcs::exp());
        let specs = [LutSpec::unit_spacing(-4, 4), LutSpec::unit_spacing(-8, 2)];
        let h = LutHierarchy::build_with_specs(&lib, &specs, 4, 32, 1).unwrap();
        assert_eq!(h.table(a).spec().max_idx, 4);
        assert_eq!(h.table(b).spec().min_idx, -8);
    }

    #[test]
    fn flip_bit_corrupts_and_scrub_repairs_bit_exactly() {
        let func = funcs::square();
        let mut t = OffChipLut::generate(&func, LutSpec::unit_spacing(-4, 4)).unwrap();
        let clean = t.clone();
        assert_eq!(t.corrupt_entries(), 0);
        t.flip_bit(SampleIdx(2), 1, 17).unwrap();
        t.flip_bit(SampleIdx(-3), 0, 5).unwrap();
        assert_eq!(t.corrupt_entries(), 2);
        assert!(!t.verify(SampleIdx(2)));
        assert!(t.verify(SampleIdx(0)));
        let r = t.scrub(&func);
        assert_eq!(
            r,
            ScrubReport {
                scanned: 9,
                repaired: 2,
            }
        );
        assert_eq!(t.corrupt_entries(), 0);
        for i in -4..=4 {
            assert_eq!(t.read(SampleIdx(i)), clean.read(SampleIdx(i)), "idx {i}");
        }
    }

    #[test]
    fn generate_proves_the_tum_adds_per_table() {
        // exp's entries sum to about 2.67·e^p in magnitude: below 2^15 up
        // to p = 9, past it at p = 10.
        let exp = funcs::exp();
        let t = OffChipLut::generate(&exp, LutSpec::unit_spacing(0, 9)).unwrap();
        assert!(t.exact_adds());
        let t = OffChipLut::generate(&exp, LutSpec::unit_spacing(0, 10)).unwrap();
        assert!(!t.exact_adds());
        assert!(t.read(SampleIdx(9)).adds_exact());
    }

    #[test]
    fn generate_rejects_words_q16_16_cannot_hold() {
        // e^10 ≈ 22026 fits; e^11 ≈ 59874 would clamp at the rail.
        let exp = funcs::exp();
        assert!(OffChipLut::generate(&exp, LutSpec::unit_spacing(-16, 10)).is_ok());
        let err = OffChipLut::generate(&exp, LutSpec::unit_spacing(-16, 16)).unwrap_err();
        assert_eq!(err, LutBuildError::Unrepresentable { idx: 11 });
        assert!(err.to_string().contains("sample index 11"), "{err}");
        // A word past the rail only by its rounding is refused too: half a
        // step above i32::MAX rounds away from zero, out of range.
        let edge = |v: f64| NonlinearFn::new("edge", move |_| v, |_| [0.0; 3]);
        let top = f64::from(i32::MAX) / 65536.0;
        assert!(OffChipLut::generate(&edge(top), LutSpec::unit_spacing(0, 0)).is_ok());
        let past = OffChipLut::generate(&edge(top + 0.5 / 65536.0), LutSpec::unit_spacing(0, 0));
        assert_eq!(past.unwrap_err(), LutBuildError::Unrepresentable { idx: 0 });
    }

    #[test]
    fn flip_bit_rejects_bad_targets() {
        let mut t = OffChipLut::generate(&funcs::square(), LutSpec::unit_spacing(-4, 4)).unwrap();
        assert_eq!(t.flip_bit(SampleIdx(0), 4, 0), Err(LutFaultError::Word(4)));
        assert_eq!(t.flip_bit(SampleIdx(0), 0, 32), Err(LutFaultError::Bit(32)));
    }

    #[test]
    fn hierarchy_scrub_repairs_and_invalidates_caches() {
        let (mut h, f) = small_hierarchy(4, 32, 1);
        let x = Q16_16::from_f64(2.5);
        let (clean_v, _) = h.lookup(0, f, x);
        h.inject_fault(f, SampleIdx(2), 0, 20).unwrap();
        let lib = {
            let mut lib = FuncLibrary::new();
            lib.register(funcs::square());
            lib
        };
        let r = h.scrub(&lib);
        assert_eq!(r.repaired, 1);
        // Repaired table + invalidated caches: the value is clean again,
        // re-fetched from DRAM.
        let (v, o) = h.lookup(0, f, x);
        assert_eq!(v, clean_v);
        assert_eq!(o.filled_from, Level::Dram);
        // A second scrub finds nothing.
        assert_eq!(h.scrub(&lib).repaired, 0);
    }

    #[test]
    fn hierarchy_inject_fault_rejects_unknown_function() {
        let (mut h, _) = small_hierarchy(4, 32, 1);
        assert_eq!(
            h.inject_fault(FuncId(9), SampleIdx(0), 0, 0),
            Err(LutFaultError::Function(9))
        );
    }

    #[test]
    fn build_rejects_mismatched_specs() {
        let mut lib = FuncLibrary::new();
        lib.register(funcs::square());
        lib.register(funcs::exp());
        let specs = [LutSpec::unit_spacing(-4, 4)];
        assert!(LutHierarchy::build_with_specs(&lib, &specs, 4, 32, 1).is_err());
    }
}
