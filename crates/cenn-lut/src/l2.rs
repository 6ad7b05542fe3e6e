//! Shared L2 look-up table (one per memory channel).

use crate::entry::SampleIdx;
use crate::func::FuncId;
use crate::l1::{tag_of, EMPTY_TAG};

/// Number of LUT entries fetched from DRAM per L2 miss.
///
/// §4.1: "it fetches eight data points whenever L2 LUT misses. For instance,
/// if data for p = 3.0 was required ... the solver fetches data from p = 0.0
/// to p = 7.0" — i.e. an 8-aligned burst.
pub const DRAM_BURST_POINTS: i32 = 8;

/// The direct-mapped L2 LUT shared between PEs on one memory channel (§4.1).
///
/// "For L2 LUT, as the size is much larger, direct matching is impossible.
/// Therefore, a hash function utilizing modulo is being used as search
/// index. The modulo by power-of-2 is used as the size of L2 LUT is 2^N."
/// The same hash places refill data, keeping read and write addressing
/// synchronized.
///
/// Like the L1, the L2 holds tags only — one dense `u64` word per set
/// (`func << 32 | idx`, `u64::MAX` = empty) — and decides only the hit
/// level; the value comes from the off-chip table. Its hit and miss
/// counts live in the owning shard's [`crate::LutStats`].
#[derive(Debug, Clone)]
pub struct L2Lut {
    tags: Vec<u64>,
    mask: usize,
}

impl L2Lut {
    /// Creates an empty L2 with `capacity` sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two (the modulo hash
    /// is a hardware mask).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "L2 LUT capacity must be a power of two, got {capacity}"
        );
        Self {
            tags: vec![EMPTY_TAG; capacity],
            mask: capacity - 1,
        }
    }

    #[inline]
    fn set_of(&self, func: FuncId, idx: SampleIdx) -> usize {
        // Modulo-power-of-2 hash; function id is folded in so that several
        // programmed functions spread over the sets rather than all
        // colliding at the same line.
        ((idx.0 as i64 + (func.0 as i64) * 61) & self.mask as i64) as usize
    }

    /// Probes for `(func, idx)`: `true` on a hit.
    #[inline]
    pub fn lookup(&self, func: FuncId, idx: SampleIdx) -> bool {
        self.tags[self.set_of(func, idx)] == tag_of(func, idx)
    }

    /// Installs the tag of `(func, idx)` via the modulo hash (used for
    /// each point of a DRAM burst).
    #[inline]
    pub fn fill(&mut self, func: FuncId, idx: SampleIdx) {
        let set = self.set_of(func, idx);
        self.tags[set] = tag_of(func, idx);
    }

    /// The 8-aligned burst window `[base, base + 8)` that a miss on `idx`
    /// fetches from DRAM.
    pub fn burst_window(idx: SampleIdx) -> std::ops::Range<i32> {
        let base = idx.0.div_euclid(DRAM_BURST_POINTS) * DRAM_BURST_POINTS;
        base..base + DRAM_BURST_POINTS
    }

    /// Invalidates all sets.
    pub fn invalidate(&mut self) {
        self.tags.fill(EMPTY_TAG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_lookup_hits() {
        let mut l2 = L2Lut::new(32);
        let f = FuncId(0);
        assert!(!l2.lookup(f, SampleIdx(5)));
        l2.fill(f, SampleIdx(5));
        assert!(l2.lookup(f, SampleIdx(5)));
    }

    #[test]
    fn modulo_hash_conflicts_evict() {
        let mut l2 = L2Lut::new(8);
        let f = FuncId(0);
        l2.fill(f, SampleIdx(1));
        l2.fill(f, SampleIdx(9)); // 9 & 7 == 1 -> same set
        assert!(!l2.lookup(f, SampleIdx(1)));
        assert!(l2.lookup(f, SampleIdx(9)));
    }

    #[test]
    fn negative_indices_hash_into_range() {
        let mut l2 = L2Lut::new(16);
        let f = FuncId(0);
        l2.fill(f, SampleIdx(-3));
        assert!(l2.lookup(f, SampleIdx(-3)));
        l2.fill(f, SampleIdx(-19));
        // -19 and -3 differ by 16 -> same set under mod-16.
        assert!(!l2.lookup(f, SampleIdx(-3)));
    }

    #[test]
    fn burst_window_is_eight_aligned() {
        assert_eq!(L2Lut::burst_window(SampleIdx(3)), 0..8);
        assert_eq!(L2Lut::burst_window(SampleIdx(8)), 8..16);
        assert_eq!(L2Lut::burst_window(SampleIdx(-1)), -8..0);
        assert_eq!(L2Lut::burst_window(SampleIdx(-8)), -8..0);
    }

    #[test]
    fn different_functions_spread_over_sets() {
        let mut l2 = L2Lut::new(32);
        l2.fill(FuncId(0), SampleIdx(4));
        l2.fill(FuncId(1), SampleIdx(4));
        // With the fold constant 61 these land in different sets mod 32.
        assert!(l2.lookup(FuncId(0), SampleIdx(4)));
        assert!(l2.lookup(FuncId(1), SampleIdx(4)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = L2Lut::new(12);
    }

    #[test]
    fn invalidate_and_reset() {
        let mut l2 = L2Lut::new(8);
        let f = FuncId(0);
        l2.fill(f, SampleIdx(2));
        l2.invalidate();
        assert!(!l2.lookup(f, SampleIdx(2)));
    }
}
