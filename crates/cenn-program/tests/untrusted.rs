//! Property tests for `Program::decode`, which `cenn inspect FILE` runs
//! on untrusted files. Arbitrary bytes, and each benchmark system's
//! program with a byte range overwritten, truncated or followed by
//! arbitrary bytes, must decode to a `Program` or a `ProgramError`. They
//! must never panic, and never make an allocation larger than the input
//! length allows: element counts on the wire reserve nothing.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread.

#[path = "../../cenn-serve/tests/largest_alloc/mod.rs"]
mod largest_alloc;

use cenn_equations::{all_benchmarks, extended_benchmarks};
use cenn_program::{Program, BITSTREAM_MAGIC, BITSTREAM_VERSION};
use largest_alloc::largest_alloc;
use proptest::prelude::*;

/// Allocation slack per input byte: a decoded template is 56 bytes from
/// at least 9 input bytes, in a vector that grows by doubling.
const PER_BYTE: usize = 16;

/// Fixed slack: a vector's first growth step.
const SLACK: usize = 1024;

/// Every benchmark system's program at 16x16, encoded.
fn programs() -> Vec<Vec<u8>> {
    all_benchmarks()
        .into_iter()
        .chain(extended_benchmarks())
        .map(|sys| {
            let setup = sys.build(16, 16).unwrap();
            Program::from_model(&setup.model).unwrap().encode()
        })
        .collect()
}

/// A valid one-layer header up to (not including) the template count.
fn header() -> Vec<u8> {
    let mut out = BITSTREAM_MAGIC.to_vec();
    // version, rows and cols exponents, kernel, layer count, layer kind,
    // boundary code and value, integrator, dt.
    out.extend([BITSTREAM_VERSION, 4, 4, 3, 1, 0, 0, 0, 0, 0, 0, 0]);
    out.extend(0x2000i32.to_le_bytes());
    out
}

/// `bytes` with `len` bytes from `at` replaced by `patch` (cycled), or,
/// when `truncate`, cut at `at`. Positions wrap into the input.
fn mutate(bytes: &[u8], at: usize, len: usize, patch: &[u8], truncate: bool) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % (out.len() + 1);
    if truncate {
        out.truncate(at);
    } else {
        for (slot, &b) in out[at..].iter_mut().take(len).zip(patch.iter().cycle()) {
            *slot = b;
        }
    }
    out
}

/// Decodes `bytes` under the allocation bound.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (_, largest) = largest_alloc(|| Program::decode(bytes));
    prop_assert!(
        largest <= PER_BYTE * bytes.len() + SLACK,
        "{} input bytes made a {largest}-byte allocation",
        bytes.len()
    );
    Ok(())
}

#[test]
fn counts_with_nothing_behind_them_reserve_nothing() {
    // A template, offset, dynamic-descriptor or LUT-image count of
    // 65,535 with no elements behind it: 22 to 28 bytes.
    for zero_counts in 0..4 {
        let mut bytes = header();
        for _ in 0..zero_counts {
            bytes.extend(0u16.to_le_bytes());
        }
        bytes.extend(u16::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 22 + 2 * zero_counts);
        assert!(Program::decode(&bytes).is_err());
        check(&bytes).unwrap();
    }
}

#[test]
fn benchmark_programs_decode_within_the_bound() {
    for bytes in programs() {
        Program::decode(&bytes).unwrap();
        check(&bytes).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_decode(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..1024,
    ) {
        check(&bytes)?;
        // Behind a valid program cut anywhere, arbitrary bytes reach
        // every count and field decoder.
        for valid in programs() {
            let mut spliced = valid[..cut % (valid.len() + 1)].to_vec();
            spliced.extend_from_slice(&bytes);
            check(&spliced)?;
        }
    }

    #[test]
    fn overwritten_or_truncated_programs_decode(
        at in 0usize..4096,
        len in 1usize..16,
        patch in prop::collection::vec(any::<u8>(), 1..16),
        truncate in any::<bool>(),
    ) {
        for valid in programs() {
            check(&mutate(&valid, at, len, &patch, truncate))?;
        }
    }
}
