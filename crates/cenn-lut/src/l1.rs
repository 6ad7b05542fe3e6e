//! Per-PE L1 look-up table.

use crate::entry::SampleIdx;
use crate::func::FuncId;

/// The small fully-associative L1 LUT attached to each PE (§4.1).
///
/// "As the number of LUT blocks is small in L1, the index is directly
/// matched (multi-bit XNOR ... between higher 16 bits of cell state and
/// index)". Refill uses a cyclic write pointer that "increments by one ...
/// whenever L1 LUT misses". The default capacity is 4 blocks (§6.2).
///
/// A block's tag is the pair `(FuncId, SampleIdx)`: one physical L1 serves
/// every nonlinear function the program uses, exactly as one physical L1
/// serves all templates in the hardware.
///
/// The L1 holds tags only and decides only the hit level — the latency
/// the cycle model charges; the value always comes from
/// [`crate::OffChipLut::read`]. Each tag is one dense `u64` word
/// (`func << 32 | idx`, with `u64::MAX` as the never-matching empty
/// sentinel — real tags can't reach it because `FuncId` is 16-bit), so
/// the probe is a scan over one cache line: the software analogue of the
/// hardware's parallel multi-bit XNOR match.
///
/// # Examples
///
/// ```
/// use cenn_lut::{FuncId, L1Lut, SampleIdx};
///
/// let mut l1 = L1Lut::new(4);
/// assert!(!l1.lookup(FuncId(0), SampleIdx(3))); // cold miss
/// l1.fill(FuncId(0), SampleIdx(3));
/// assert!(l1.lookup(FuncId(0), SampleIdx(3)));
/// assert_eq!(l1.stats(), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct L1Lut {
    tags: Vec<u64>,
    write_ptr: usize,
    hits: u64,
    misses: u64,
}

/// The never-matching tag of an empty block or set.
pub(crate) const EMPTY_TAG: u64 = u64::MAX;

/// The dense tag word of `(func, idx)`, shared by the L1 and the L2.
#[inline]
pub(crate) fn tag_of(func: FuncId, idx: SampleIdx) -> u64 {
    ((func.0 as u64) << 32) | (idx.0 as u32 as u64)
}

impl L1Lut {
    /// Creates an empty L1 with `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "L1 LUT needs at least one block");
        Self {
            tags: vec![EMPTY_TAG; capacity],
            write_ptr: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Probes for `(func, idx)`: `true` on a hit. Records the outcome in
    /// the statistics counters.
    #[inline]
    pub fn lookup(&mut self, func: FuncId, idx: SampleIdx) -> bool {
        let hit = self.holds(func, idx);
        self.tally(u64::from(hit), u64::from(!hit));
        hit
    }

    /// Probes for `(func, idx)` without counting: `true` on a hit.
    #[inline]
    pub(crate) fn holds(&self, func: FuncId, idx: SampleIdx) -> bool {
        let tag = tag_of(func, idx);
        // The default 4-block L1 compares all four tags — the software
        // analogue of the hardware's parallel XNOR match. (Compiled, the
        // `|` chain becomes early exits; a branch-free min of XORs
        // measured no faster in the replay.)
        if let &[t0, t1, t2, t3] = self.tags.as_slice() {
            (t0 == tag) | (t1 == tag) | (t2 == tag) | (t3 == tag)
        } else {
            self.tags.contains(&tag)
        }
    }

    /// Adds probes to the counters that [`holds`](Self::holds) did not
    /// count: the shard's batched replay counts each lane's hits (memo-
    /// proven ones included, see [`crate::LutShard::replay`]) and misses
    /// at once, with the same totals as one [`lookup`](Self::lookup) per
    /// probe.
    #[inline]
    pub(crate) fn tally(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Installs the tag of `(func, idx)` through the cyclic write pointer
    /// (called on every L1 miss).
    #[inline]
    pub fn fill(&mut self, func: FuncId, idx: SampleIdx) {
        self.tags[self.write_ptr] = tag_of(func, idx);
        // A wrap test, not `% len`: a division on every miss.
        self.write_ptr += 1;
        if self.write_ptr == self.tags.len() {
            self.write_ptr = 0;
        }
    }

    /// `(hits, misses)` since construction or the last [`reset_stats`].
    ///
    /// [`reset_stats`]: Self::reset_stats
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears the counters but keeps cached tags (used between the
    /// warm-up and measurement phases of Fig. 12).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Invalidates all blocks and resets the write pointer.
    pub fn invalidate(&mut self) {
        self.tags.fill(EMPTY_TAG);
        self.write_ptr = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lookup_misses_then_hits_after_fill() {
        let mut l1 = L1Lut::new(4);
        let f = FuncId(0);
        assert!(!l1.lookup(f, SampleIdx(3)));
        l1.fill(f, SampleIdx(3));
        assert!(l1.lookup(f, SampleIdx(3)));
        assert_eq!(l1.stats(), (1, 1));
    }

    #[test]
    fn distinct_functions_do_not_alias() {
        let mut l1 = L1Lut::new(4);
        l1.fill(FuncId(0), SampleIdx(3));
        assert!(!l1.lookup(FuncId(1), SampleIdx(3)));
        assert!(l1.lookup(FuncId(0), SampleIdx(3)));
    }

    #[test]
    fn cyclic_write_pointer_evicts_oldest() {
        let mut l1 = L1Lut::new(2);
        let f = FuncId(0);
        l1.fill(f, SampleIdx(0));
        l1.fill(f, SampleIdx(1));
        l1.fill(f, SampleIdx(2)); // evicts idx 0
        assert!(!l1.lookup(f, SampleIdx(0)));
        assert!(l1.lookup(f, SampleIdx(1)));
        assert!(l1.lookup(f, SampleIdx(2)));
    }

    #[test]
    fn miss_rate_tracks_accesses() {
        let mut l1 = L1Lut::new(4);
        let f = FuncId(0);
        l1.fill(f, SampleIdx(7));
        for _ in 0..3 {
            l1.lookup(f, SampleIdx(7));
        }
        l1.lookup(f, SampleIdx(9));
        assert_eq!(l1.stats(), (3, 1));
        l1.reset_stats();
        assert_eq!(l1.stats(), (0, 0));
    }

    #[test]
    fn invalidate_clears_contents() {
        let mut l1 = L1Lut::new(4);
        let f = FuncId(0);
        l1.fill(f, SampleIdx(1));
        l1.invalidate();
        assert!(!l1.lookup(f, SampleIdx(1)));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_panics() {
        let _ = L1Lut::new(0);
    }
}
