//! Flat multiply-accumulate kernels over contiguous lanes of raw Q-FRAC
//! bits — the structure-of-arrays counterpart of [`crate::MacAcc`].
//!
//! Each function operates on a slab of per-cell `i64` accumulators in
//! Q(2·FRAC) and replicates the exact saturating-arithmetic sequence of
//! the scalar [`MacAcc`](crate::MacAcc) datapath, so a sweep that applies
//! the same MAC sequence per lane resolves to bit-identical Q-FRAC
//! results. The scalar bodies are manually 4-wide unrolled.

/// Initializes accumulators with the leak term `-(x << FRAC)` — exactly
/// `MacAcc::new()` followed by `mac(-ONE, x)` (the product `-(1<<FRAC)·x`
/// cannot saturate a zeroed i64 accumulator).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn leak_lanes<const FRAC: u32>(accs: &mut [i64], xs: &[i32]) {
    assert_eq!(accs.len(), xs.len(), "lane length mismatch");
    for (a, &x) in accs.iter_mut().zip(xs) {
        *a = -((x as i64) << FRAC);
    }
}

/// Multiply-accumulates one constant weight against a lane of operands:
/// `acc[j] ← acc[j] ⊕ w·op[j]` with the saturating add of `MacAcc::mac`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mac_lanes(accs: &mut [i64], w_bits: i32, ops: &[i32]) {
    assert_eq!(accs.len(), ops.len(), "lane length mismatch");
    let w = w_bits as i64;
    let mut a_it = accs.chunks_exact_mut(4);
    let mut o_it = ops.chunks_exact(4);
    for (a, o) in (&mut a_it).zip(&mut o_it) {
        a[0] = a[0].saturating_add(w * o[0] as i64);
        a[1] = a[1].saturating_add(w * o[1] as i64);
        a[2] = a[2].saturating_add(w * o[2] as i64);
        a[3] = a[3].saturating_add(w * o[3] as i64);
    }
    for (a, &o) in a_it.into_remainder().iter_mut().zip(o_it.remainder()) {
        *a = a.saturating_add(w * o as i64);
    }
}

/// Multiply-accumulates a per-lane weight against a lane of operands
/// (dynamic template weights resolved by a batched LUT pass).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mac_lanes_dyn(accs: &mut [i64], w_bits: &[i32], ops: &[i32]) {
    assert_eq!(accs.len(), ops.len(), "lane length mismatch");
    assert_eq!(accs.len(), w_bits.len(), "lane length mismatch");
    for ((a, &w), &o) in accs.iter_mut().zip(w_bits).zip(ops) {
        *a = a.saturating_add(w as i64 * o as i64);
    }
}

/// Adds one constant Q-FRAC offset to every lane (`MacAcc::add`).
#[inline]
pub fn add_lanes<const FRAC: u32>(accs: &mut [i64], v_bits: i32) {
    let wide = (v_bits as i64) << FRAC;
    for a in accs.iter_mut() {
        *a = a.saturating_add(wide);
    }
}

/// Adds a per-lane Q-FRAC offset to every lane (`MacAcc::add` with a
/// dynamic offset term).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_lanes_dyn<const FRAC: u32>(accs: &mut [i64], v_bits: &[i32]) {
    assert_eq!(accs.len(), v_bits.len(), "lane length mismatch");
    for (a, &v) in accs.iter_mut().zip(v_bits) {
        *a = a.saturating_add((v as i64) << FRAC);
    }
}

/// Rounds every wide accumulator back to Q-FRAC bits with the single
/// saturating rounding of `MacAcc::resolve`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn resolve_lanes<const FRAC: u32>(accs: &[i64], out: &mut [i32]) {
    assert_eq!(accs.len(), out.len(), "lane length mismatch");
    for (&a, o) in accs.iter().zip(out.iter_mut()) {
        let rounded = a.saturating_add(1i64 << (FRAC - 1)) >> FRAC;
        *o = if rounded > i32::MAX as i64 {
            i32::MAX
        } else if rounded < i32::MIN as i64 {
            i32::MIN
        } else {
            rounded as i32
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacAcc, Q16_16};

    /// Deterministic pseudo-random i32 stream (no external crates).
    fn xorshift(seed: &mut u64) -> i32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        (*seed >> 16) as i32
    }

    #[test]
    fn lane_sequence_matches_scalar_mac_acc_bit_for_bit() {
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        for len in [1usize, 3, 4, 7, 16, 33] {
            let xs: Vec<i32> = (0..len).map(|_| xorshift(&mut seed)).collect();
            let w1 = xorshift(&mut seed);
            let ops1: Vec<i32> = (0..len).map(|_| xorshift(&mut seed)).collect();
            let wd: Vec<i32> = (0..len).map(|_| xorshift(&mut seed)).collect();
            let ops2: Vec<i32> = (0..len).map(|_| xorshift(&mut seed)).collect();
            let off = xorshift(&mut seed);
            let offd: Vec<i32> = (0..len).map(|_| xorshift(&mut seed)).collect();

            // Lane path.
            let mut accs = vec![0i64; len];
            leak_lanes::<16>(&mut accs, &xs);
            mac_lanes(&mut accs, w1, &ops1);
            mac_lanes_dyn(&mut accs, &wd, &ops2);
            add_lanes::<16>(&mut accs, off);
            add_lanes_dyn::<16>(&mut accs, &offd);
            let mut got = vec![0i32; len];
            resolve_lanes::<16>(&accs, &mut got);

            // Scalar reference: the exact MacAcc sequence per lane.
            for j in 0..len {
                let mut acc = MacAcc::<16>::new();
                acc.mac(Q16_16::NEG_ONE, Q16_16::from_bits(xs[j]));
                acc.mac(Q16_16::from_bits(w1), Q16_16::from_bits(ops1[j]));
                acc.mac(Q16_16::from_bits(wd[j]), Q16_16::from_bits(ops2[j]));
                acc.add(Q16_16::from_bits(off));
                acc.add(Q16_16::from_bits(offd[j]));
                assert_eq!(got[j], acc.resolve().to_bits(), "lane {j} len {len}");
            }
        }
    }

    #[test]
    fn resolve_saturates_at_the_rails() {
        let accs = [i64::MAX, i64::MIN, 0];
        let mut out = [0i32; 3];
        resolve_lanes::<16>(&accs, &mut out);
        assert_eq!(out, [i32::MAX, i32::MIN, 0]);
    }

    #[test]
    fn accumulate_saturates_like_mac_acc() {
        // A near-rail accumulator must pin at i64::MAX, not wrap.
        let mut accs = vec![i64::MAX - 1, 0];
        mac_lanes(&mut accs, i32::MAX, &[i32::MAX, 3]);
        assert_eq!(accs[0], i64::MAX);
        assert_eq!(accs[1], 3 * i32::MAX as i64);
        let mut accs = vec![i64::MIN + 1];
        mac_lanes_dyn(&mut accs, &[i32::MAX], &[i32::MIN]);
        assert_eq!(accs[0], i64::MIN);
    }
}
