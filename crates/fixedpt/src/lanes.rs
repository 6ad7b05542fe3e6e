//! Multiply-accumulate kernels over contiguous lanes of Q-FRAC values —
//! the structure-of-arrays counterpart of [`crate::MacAcc`].
//!
//! A row of a template sum is a list of *terms*, each an operand lane
//! times a weight (one constant, or one word per column). The
//! kernels apply up to [`GROUP`] terms in one pass over the columns: each
//! column's sum starts at zero or at its running `i64` accumulator, adds a
//! constant, then every term in order, and is stored back or rounded once
//! into the output lane (`MacAcc::resolve`). A sum of more terms takes
//! several passes through the accumulator lane, the last one rounding.
//! Term for term and add for add this is the scalar `MacAcc` sequence of
//! each column, so a caller that groups terms in `MacAcc` order gets its
//! bits exactly.
//!
//! # Saturating and unsaturated accumulation
//!
//! The kernels take an [`Accumulate`] mode. [`Saturating`] is `MacAcc`'s
//! add: it pins a sum that leaves the i64 range at the rail. [`Unsaturated`]
//! is a plain add, without the overflow check. The two give the same bits
//! whenever no partial sum can leave the i64 range, and a caller can prove
//! that from the terms alone: a product of two Q-FRAC words is at most
//! `|w|·2^31` in magnitude, and an offset (a word times `1.0`) at most
//! `|v|·2^FRAC`. If these magnitudes sum to less than `2^63` for every
//! column, every partial sum stays in range in *any* order, so the caller
//! may also regroup the terms freely.

use crate::Fx;

/// The most terms one pass applies.
pub const GROUP: usize = 8;

/// How the kernels add a term into a wide accumulator.
pub trait Accumulate {
    /// `acc + term` under this mode.
    fn add(acc: i64, term: i64) -> i64;
}

/// `MacAcc`'s saturating add: a sum past the i64 range pins at the rail.
#[derive(Debug, Clone, Copy)]
pub enum Saturating {}

/// A plain add, bit-identical to [`Saturating`] when no partial sum can
/// leave the i64 range (see the module docs for the bound). An overflow
/// panics in debug builds and wraps in release builds.
#[derive(Debug, Clone, Copy)]
pub enum Unsaturated {}

impl Accumulate for Saturating {
    #[inline(always)]
    fn add(acc: i64, term: i64) -> i64 {
        acc.saturating_add(term)
    }
}

impl Accumulate for Unsaturated {
    #[inline(always)]
    fn add(acc: i64, term: i64) -> i64 {
        acc + term
    }
}

/// A term's weight over a pass: one value for every column (a constant,
/// widened to `i64`), or one word per column (a lane, `&[Fx]`).
pub trait Weight<const FRAC: u32>: Copy {
    /// The weight over the first `n` columns.
    ///
    /// # Panics
    ///
    /// Panics if a lane is shorter than `n`.
    fn fit(self, n: usize) -> Self;
    /// The weight of column `c`, widened.
    fn at(self, c: usize) -> i64;
}

impl<const FRAC: u32> Weight<FRAC> for i64 {
    #[inline(always)]
    fn fit(self, _n: usize) -> Self {
        self
    }

    #[inline(always)]
    fn at(self, _c: usize) -> i64 {
        self
    }
}

impl<const FRAC: u32> Weight<FRAC> for &[Fx<FRAC>] {
    #[inline(always)]
    fn fit(self, n: usize) -> Self {
        &self[..n]
    }

    #[inline(always)]
    fn at(self, c: usize) -> i64 {
        i64::from(self[c].to_bits())
    }
}

/// Where a pass starts each column's sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// At zero: the first pass of a row.
    Zero,
    /// At the column's accumulator: a later pass.
    Accs,
}

/// `MacAcc::resolve`: the single saturating rounding of a wide sum back
/// to Q-FRAC. `(sum + 2^(FRAC−1)) >> FRAC` is `sum >> FRAC` plus the bit
/// below, which cannot overflow; where the saturating add would pin, both
/// clamp to the same rail.
#[inline(always)]
fn round<const FRAC: u32>(sum: i64) -> Fx<FRAC> {
    let rounded = (sum >> FRAC) + ((sum >> (FRAC - 1)) & 1);
    Fx::from_bits(rounded.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32)
}

/// `s ⊕ w₀(c)·op₀[c] ⊕ … ⊕ w_{N−1}(c)·op_{N−1}[c]`, in term order.
#[inline(always)]
fn sum<A: Accumulate, W: Weight<FRAC>, const N: usize, const FRAC: u32>(
    mut s: i64,
    c: usize,
    ops: &[&[Fx<FRAC>]; N],
    ws: &[W; N],
) -> i64 {
    for (op, w) in ops.iter().zip(ws) {
        s = A::add(s, w.at(c) * i64::from(op[c].to_bits()));
    }
    s
}

/// [`mac_terms`] for a group of exactly `N` terms: the kernel, with the
/// group unrolled.
// Index loops: every lane is cut to `n` and `c < n`, so LLVM drops each
// bounds check; an iterator over one lane leaves the others' checked.
#[allow(clippy::needless_range_loop)]
#[inline]
fn mac_group<A: Accumulate, W: Weight<FRAC>, const N: usize, const FRAC: u32>(
    accs: &mut [i64],
    start: Start,
    k: i64,
    ops: [&[Fx<FRAC>]; N],
    ws: [W; N],
    out: Option<&mut [Fx<FRAC>]>,
) {
    let n = accs.len();
    let ops = ops.map(|op| &op[..n]);
    let ws = ws.map(|w| w.fit(n));
    match (start, out) {
        (Start::Zero, None) => {
            for c in 0..n {
                accs[c] = sum::<A, W, N, FRAC>(k, c, &ops, &ws);
            }
        }
        (Start::Accs, None) => {
            for c in 0..n {
                accs[c] = sum::<A, W, N, FRAC>(A::add(accs[c], k), c, &ops, &ws);
            }
        }
        (Start::Zero, Some(out)) => {
            let out = &mut out[..n];
            for c in 0..n {
                out[c] = round(sum::<A, W, N, FRAC>(k, c, &ops, &ws));
            }
        }
        (Start::Accs, Some(out)) => {
            let out = &mut out[..n];
            for c in 0..n {
                out[c] = round(sum::<A, W, N, FRAC>(A::add(accs[c], k), c, &ops, &ws));
            }
        }
    }
}

/// One pass of up to [`GROUP`] terms over `accs.len()` columns, term `j`
/// being `ops[j]` weighted by `ws[j]`: per column `c`,
/// `s = start(c) ⊕ k ⊕ w₀(c)·op₀[c] ⊕ … ⊕ w_{n−1}(c)·op_{n−1}[c]` under
/// mode `A`, in that order — `MacAcc::mac` per term, and `k` a term
/// already widened (a constant offset `v` is `v·2^FRAC`). Without `out`,
/// `s` is stored in `accs[c]`; with it, `s` is rounded once into `out[c]`
/// and `accs` is only read (for [`Start::Accs`]). Each group size runs
/// its own const-generic kernel.
///
/// # Panics
///
/// Panics if the lists differ in length or hold more than [`GROUP`]
/// terms, or if an operand lane, a weight lane or `out` is shorter than
/// `accs`.
pub fn mac_terms<A: Accumulate, W: Weight<FRAC>, const FRAC: u32>(
    accs: &mut [i64],
    start: Start,
    k: i64,
    ops: &[&[Fx<FRAC>]],
    ws: &[W],
    out: Option<&mut [Fx<FRAC>]>,
) {
    fn group<A: Accumulate, W: Weight<FRAC>, const N: usize, const FRAC: u32>(
        accs: &mut [i64],
        start: Start,
        k: i64,
        ops: &[&[Fx<FRAC>]],
        ws: &[W],
        out: Option<&mut [Fx<FRAC>]>,
    ) {
        let ops = std::array::from_fn(|j| ops[j]);
        let ws = std::array::from_fn(|j| ws[j]);
        mac_group::<A, W, N, FRAC>(accs, start, k, ops, ws, out);
    }
    assert_eq!(ops.len(), ws.len(), "term list length mismatch");
    let pass = match ops.len() {
        0 => group::<A, W, 0, FRAC>,
        1 => group::<A, W, 1, FRAC>,
        2 => group::<A, W, 2, FRAC>,
        3 => group::<A, W, 3, FRAC>,
        4 => group::<A, W, 4, FRAC>,
        5 => group::<A, W, 5, FRAC>,
        6 => group::<A, W, 6, FRAC>,
        7 => group::<A, W, 7, FRAC>,
        8 => group::<A, W, 8, FRAC>,
        n => panic!("{n} terms in one pass (at most {GROUP})"),
    };
    pass(accs, start, k, ops, ws, out);
}

/// Rounds every wide accumulator back to Q-FRAC with the single
/// saturating rounding of `MacAcc::resolve`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn resolve_lanes<const FRAC: u32>(accs: &[i64], out: &mut [Fx<FRAC>]) {
    assert_eq!(accs.len(), out.len(), "lane length mismatch");
    for (&a, o) in accs.iter().zip(out.iter_mut()) {
        *o = round(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAcc, Q16_16};

    /// Deterministic pseudo-random Q16.16 words (no external crates):
    /// one in four at a rail, so saturating sums occur. With `small`,
    /// every word has at most 11 magnitude bits, so no sum of a few
    /// dozen products comes near the rails.
    struct Words(u64);

    impl Words {
        fn next(&mut self, small: bool) -> Q16_16 {
            let s = &mut self.0;
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            let v = match *s % 8 {
                0 => i32::MAX - (*s >> 60) as i32,
                1 => i32::MIN + (*s >> 60) as i32,
                _ => (*s >> 16) as i32,
            };
            Q16_16::from_bits(if small { v >> 20 } else { v })
        }

        fn lane(&mut self, small: bool) -> Vec<Q16_16> {
            (0..LEN).map(|_| self.next(small)).collect()
        }
    }

    /// Columns per test row: more than one vector width, and a tail.
    const LEN: usize = 19;

    /// Every combination of start, destination and weight kind for a
    /// group of `N` terms under mode `A`, against each column's `MacAcc`
    /// sequence: two products for the running accumulator (a later pass
    /// starts from it), one for the constant, then every term in order.
    fn check_group<A: Accumulate, const N: usize>(words: &mut Words, small: bool) {
        let ops: [Vec<Q16_16>; N] = std::array::from_fn(|_| words.lane(small));
        let lanes: [Vec<Q16_16>; N] = std::array::from_fn(|_| words.lane(small));
        let consts: [Q16_16; N] = std::array::from_fn(|_| words.next(small));
        let prior: [Vec<Q16_16>; 4] = std::array::from_fn(|_| words.lane(small));
        let (ka, kb) = (words.next(small), words.next(small));
        let k = i64::from(ka.to_bits()) * i64::from(kb.to_bits());
        let ops_ref: [&[Q16_16]; N] = std::array::from_fn(|j| &ops[j][..]);
        for start in [Start::Zero, Start::Accs] {
            let column = |c: usize| {
                let mut acc = MacAcc::<16>::new();
                if start == Start::Accs {
                    acc.mac(prior[0][c], prior[1][c]);
                    acc.mac(prior[2][c], prior[3][c]);
                }
                acc
            };
            let running: Vec<i64> = (0..LEN).map(|c| column(c).raw_sum()).collect();
            for lane_weights in [false, true] {
                let mut stored = running.clone();
                let mut accs = running.clone();
                let mut out = vec![Q16_16::ZERO; LEN];
                if lane_weights {
                    let ws: [&[Q16_16]; N] = std::array::from_fn(|j| &lanes[j][..]);
                    mac_group::<A, _, N, 16>(&mut stored, start, k, ops_ref, ws, None);
                    mac_group::<A, _, N, 16>(&mut accs, start, k, ops_ref, ws, Some(&mut out));
                } else {
                    let ws = consts.map(|w| i64::from(w.to_bits()));
                    mac_group::<A, _, N, 16>(&mut stored, start, k, ops_ref, ws, None);
                    mac_group::<A, _, N, 16>(&mut accs, start, k, ops_ref, ws, Some(&mut out));
                }
                assert_eq!(accs, running, "a rounding pass only reads the accumulators");
                for c in 0..LEN {
                    let mut acc = column(c);
                    acc.mac(ka, kb);
                    for j in 0..N {
                        let w = if lane_weights { lanes[j][c] } else { consts[j] };
                        acc.mac(w, ops[j][c]);
                    }
                    let what =
                        format!("N={N} {start:?} lanes={lane_weights} small={small} col {c}");
                    assert_eq!(stored[c], acc.raw_sum(), "{what}: stored sum");
                    assert_eq!(out[c], acc.resolve(), "{what}: rounded sum");
                }
            }
        }
    }

    fn check_every_size<A: Accumulate>(small: bool) {
        let mut words = Words(0x243f_6a88_85a3_08d3);
        for _ in 0..16 {
            check_group::<A, 1>(&mut words, small);
            check_group::<A, 2>(&mut words, small);
            check_group::<A, 3>(&mut words, small);
            check_group::<A, 4>(&mut words, small);
            check_group::<A, 5>(&mut words, small);
            check_group::<A, 6>(&mut words, small);
            check_group::<A, 7>(&mut words, small);
            check_group::<A, 8>(&mut words, small);
        }
    }

    #[test]
    fn saturating_groups_match_mac_acc_for_every_size() {
        // Full-range words with rails: sums pin at i64::MAX / i64::MIN
        // and must stay pinned exactly as MacAcc's do.
        check_every_size::<Saturating>(false);
        check_every_size::<Saturating>(true);
    }

    #[test]
    fn unsaturated_groups_match_mac_acc_below_the_bound() {
        check_every_size::<Unsaturated>(true);
    }

    #[test]
    fn term_lists_dispatch_to_the_group_of_their_length() {
        // mac_terms over 0..=8 terms equals MacAcc, and an empty pass
        // rounds its start plus the constant.
        let mut words = Words(7);
        for n in 0..=GROUP {
            let ops: Vec<Vec<Q16_16>> = (0..n).map(|_| words.lane(true)).collect();
            let ws: Vec<Q16_16> = (0..n).map(|_| words.next(true)).collect();
            let wide: Vec<i64> = ws.iter().map(|w| i64::from(w.to_bits())).collect();
            let refs: Vec<&[Q16_16]> = ops.iter().map(Vec::as_slice).collect();
            let mut accs = vec![0i64; LEN];
            let mut out = vec![Q16_16::ZERO; LEN];
            let k = 3 << 15;
            mac_terms::<Saturating, _, 16>(&mut accs, Start::Zero, k, &refs, &wide, Some(&mut out));
            for c in 0..LEN {
                let mut acc = MacAcc::<16>::new();
                acc.mac(Q16_16::from_bits(3), Q16_16::from_bits(1 << 15));
                for j in 0..n {
                    acc.mac(ws[j], ops[j][c]);
                }
                assert_eq!(out[c], acc.resolve(), "{n} terms, col {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn a_pass_holds_at_most_a_group() {
        let lane = [Q16_16::ZERO; 4];
        let ops = [&lane[..]; GROUP + 1];
        let ws = [1i64 << 16; GROUP + 1];
        mac_terms::<Saturating, _, 16>(&mut [0; 4], Start::Zero, 0, &ops, &ws, None);
    }

    #[test]
    fn resolve_saturates_at_the_rails() {
        let accs = [i64::MAX, i64::MIN, 0];
        let mut out = [Q16_16::ZERO; 3];
        resolve_lanes(&accs, &mut out);
        assert_eq!(out, [Q16_16::MAX, Q16_16::MIN, Q16_16::ZERO]);
    }
}
