//! `read_frame` must grow its payload buffer as bytes arrive, not
//! allocate whatever length a (possibly hostile) header claims.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread.

mod largest_alloc;

use cenn_serve::{read_frame, FrameError, MAX_FRAME_LEN};
use largest_alloc::largest_alloc;

/// The most `read_frame` may allocate before payload bytes arrive.
const MAX_UPFRONT_ALLOC: usize = 64 << 10;

#[test]
fn huge_header_with_a_short_body_allocates_little() {
    let mut wire = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(b"0123456789");
    let mut cursor = &wire[..];
    let (res, largest) = largest_alloc(|| read_frame(&mut cursor));
    assert!(
        matches!(
            res,
            Err(FrameError::Truncated {
                expected: MAX_FRAME_LEN,
                got: 10
            })
        ),
        "{res:?}"
    );
    assert!(
        largest <= MAX_UPFRONT_ALLOC,
        "a 10-byte body under a {MAX_FRAME_LEN}-byte header allocated {largest} bytes at once"
    );
}
