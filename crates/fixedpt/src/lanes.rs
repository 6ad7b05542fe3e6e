//! Flat multiply-accumulate kernels over contiguous lanes of Q-FRAC
//! values — the structure-of-arrays counterpart of [`crate::MacAcc`].
//!
//! Each function operates on a slab of per-cell `i64` accumulators in
//! Q(2·FRAC) and replicates the exact arithmetic sequence of the scalar
//! [`MacAcc`](crate::MacAcc) datapath, so a sweep that applies the same
//! MAC sequence per lane resolves to bit-identical Q-FRAC results.
//!
//! # Saturating and unsaturated accumulation
//!
//! The accumulating kernels take an [`Accumulate`] mode. [`Saturating`]
//! is `MacAcc`'s add: it pins a sum that leaves the i64 range at the
//! rail. [`Unsaturated`] is a plain add, which LLVM vectorizes. The two
//! give the same bits whenever no partial sum can leave the i64 range,
//! and a caller can prove that from the terms alone: the leak term is at
//! most `2^(31+FRAC)` in magnitude, a product of two Q-FRAC words at most
//! `|w|·2^31`, and an offset at most `|v|·2^FRAC`. If these magnitudes
//! sum to less than `2^63` for every cell, every partial sum stays in
//! range and the plain add is exact. [`resolve_lanes`] always rounds with
//! `MacAcc::resolve`'s saturating readout.

use crate::Fx;

/// How the accumulating kernels add a term into a wide accumulator.
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

/// Initializes accumulators with the leak term `-(x << FRAC)` — exactly
/// `MacAcc::new()` followed by `mac(-ONE, x)` (the product `-(1<<FRAC)·x`
/// cannot saturate a zeroed i64 accumulator).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn leak_lanes<const FRAC: u32>(accs: &mut [i64], xs: &[Fx<FRAC>]) {
    assert_eq!(accs.len(), xs.len(), "lane length mismatch");
    for (a, x) in accs.iter_mut().zip(xs) {
        *a = -(i64::from(x.to_bits()) << FRAC);
    }
}

/// Multiply-accumulates one constant weight against a lane of operands:
/// `acc[j] ← acc[j] ⊕ w·op[j]` (`MacAcc::mac` per lane).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mac_lanes<A: Accumulate, const FRAC: u32>(accs: &mut [i64], w: Fx<FRAC>, ops: &[Fx<FRAC>]) {
    assert_eq!(accs.len(), ops.len(), "lane length mismatch");
    let w = i64::from(w.to_bits());
    for (a, o) in accs.iter_mut().zip(ops) {
        *a = A::add(*a, w * i64::from(o.to_bits()));
    }
}

/// Multiply-accumulates a per-lane weight against a lane of operands
/// (dynamic template weights resolved by a batched LUT pass).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mac_lanes_dyn<A: Accumulate, const FRAC: u32>(
    accs: &mut [i64],
    ws: &[Fx<FRAC>],
    ops: &[Fx<FRAC>],
) {
    assert_eq!(accs.len(), ops.len(), "lane length mismatch");
    assert_eq!(accs.len(), ws.len(), "lane length mismatch");
    for ((a, w), o) in accs.iter_mut().zip(ws).zip(ops) {
        *a = A::add(*a, i64::from(w.to_bits()) * i64::from(o.to_bits()));
    }
}

/// Adds one constant Q-FRAC offset to every lane (`MacAcc::add`).
#[inline]
pub fn add_lanes<A: Accumulate, const FRAC: u32>(accs: &mut [i64], v: Fx<FRAC>) {
    let wide = i64::from(v.to_bits()) << FRAC;
    for a in accs.iter_mut() {
        *a = A::add(*a, wide);
    }
}

/// Adds a per-lane Q-FRAC offset to every lane (`MacAcc::add` with a
/// dynamic offset term).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_lanes_dyn<A: Accumulate, const FRAC: u32>(accs: &mut [i64], vs: &[Fx<FRAC>]) {
    assert_eq!(accs.len(), vs.len(), "lane length mismatch");
    for (a, v) in accs.iter_mut().zip(vs) {
        *a = A::add(*a, i64::from(v.to_bits()) << FRAC);
    }
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
        let rounded = a.saturating_add(1i64 << (FRAC - 1)) >> FRAC;
        *o = Fx::from_bits(rounded.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAcc, Q16_16};

    /// Deterministic pseudo-random Q16.16 stream (no external crates).
    fn xorshift(seed: &mut u64) -> Q16_16 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        Q16_16::from_bits((*seed >> 16) as i32)
    }

    /// The lane sequence (leak, constant MAC, dynamic MAC, constant and
    /// dynamic offsets, resolve) under accumulate mode `A`.
    fn lane_sequence<A: Accumulate>(
        xs: &[Q16_16],
        (w1, ops1): (Q16_16, &[Q16_16]),
        (wd, ops2): (&[Q16_16], &[Q16_16]),
        (off, offd): (Q16_16, &[Q16_16]),
    ) -> Vec<Q16_16> {
        let mut accs = vec![0i64; xs.len()];
        leak_lanes(&mut accs, xs);
        mac_lanes::<A, _>(&mut accs, w1, ops1);
        mac_lanes_dyn::<A, _>(&mut accs, wd, ops2);
        add_lanes::<A, _>(&mut accs, off);
        add_lanes_dyn::<A, _>(&mut accs, offd);
        let mut got = vec![Q16_16::ZERO; xs.len()];
        resolve_lanes(&accs, &mut got);
        got
    }

    #[test]
    fn lane_sequence_matches_scalar_mac_acc_bit_for_bit() {
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        for len in [1usize, 3, 4, 7, 16, 33] {
            // Full-range words, and words small enough that every term's
            // magnitude bound sums below 2^63, so the unsaturated kernels
            // are exact too.
            for small in [false, true] {
                let mut draw = |n: usize| -> Vec<Q16_16> {
                    (0..n)
                        .map(|_| {
                            let v = xorshift(&mut seed);
                            if small {
                                Q16_16::from_bits(v.to_bits() >> 8)
                            } else {
                                v
                            }
                        })
                        .collect()
                };
                let (xs, w1, ops1, wd, ops2) =
                    (draw(len), draw(1)[0], draw(len), draw(len), draw(len));
                let (off, offd) = (draw(1)[0], draw(len));
                let got = lane_sequence::<Saturating>(&xs, (w1, &ops1), (&wd, &ops2), (off, &offd));
                if small {
                    let exact =
                        lane_sequence::<Unsaturated>(&xs, (w1, &ops1), (&wd, &ops2), (off, &offd));
                    assert_eq!(exact, got, "len {len}: unsaturated kernels differ");
                }

                // Scalar reference: the exact MacAcc sequence per lane.
                for j in 0..len {
                    let mut acc = MacAcc::<16>::new();
                    acc.mac(Q16_16::NEG_ONE, xs[j]);
                    acc.mac(w1, ops1[j]);
                    acc.mac(wd[j], ops2[j]);
                    acc.add(off);
                    acc.add(offd[j]);
                    assert_eq!(got[j], acc.resolve(), "lane {j} len {len}");
                }
            }
        }
    }

    #[test]
    fn resolve_saturates_at_the_rails() {
        let accs = [i64::MAX, i64::MIN, 0];
        let mut out = [Q16_16::ZERO; 3];
        resolve_lanes(&accs, &mut out);
        assert_eq!(out, [Q16_16::MAX, Q16_16::MIN, Q16_16::ZERO]);
    }

    #[test]
    fn accumulate_saturates_like_mac_acc() {
        // A near-rail accumulator must pin at i64::MAX, not wrap.
        let max = Q16_16::from_bits(i32::MAX);
        let mut accs = vec![i64::MAX - 1, 0];
        mac_lanes::<Saturating, _>(&mut accs, max, &[max, Q16_16::from_bits(3)]);
        assert_eq!(accs[0], i64::MAX);
        assert_eq!(accs[1], 3 * i64::from(i32::MAX));
        let mut accs = vec![i64::MIN + 1];
        mac_lanes_dyn::<Saturating, _>(&mut accs, &[max], &[Q16_16::from_bits(i32::MIN)]);
        assert_eq!(accs[0], i64::MIN);
    }
}
