//! Property tests for the bytes the service decodes from the network and
//! from its spool: `Request` and `Response` payloads (the `Stats`
//! snapshot included) and the spool `MANIFEST` (its incarnation line
//! included). Arbitrary byte strings, and valid inputs with a byte range
//! overwritten or truncated, must give a typed error or a value. They
//! must never panic, and never make an allocation larger than the input
//! length allows. A decoded message re-encodes to exactly its input.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread.

mod largest_alloc;

use std::path::PathBuf;

use cenn_obs::{HistogramSnapshot, MetricsSnapshot, STATS_VERSION};
use cenn_serve::{
    ErrorCode, FrameError, Manifest, ManifestEntry, Request, Response, SessionStat, SpoolError,
    StatsSnapshot,
};
use largest_alloc::largest_alloc;
use proptest::prelude::*;

/// Allocation slack per input byte: a decoded `Stats` table grows a
/// vector by doubling, and its rows cost at most 6.4 bytes per input
/// byte (a 32-byte counter row from 10 input bytes).
const PER_BYTE: usize = 8;

/// Fixed slack: a vector's first growth step, one `BTreeMap` node of
/// manifest entries (about 1 KiB), and error messages.
const SLACK: usize = 2048;

fn requests() -> Vec<Request> {
    vec![
        Request::SubmitSystem {
            system: "gray-scott".into(),
            rows: 16,
            cols: 24,
        },
        Request::Step { session: 7, n: 100 },
        Request::StreamState {
            session: 7,
            layer: 1,
        },
        Request::Suspend { session: 7 },
        Request::Resume { session: 7 },
        Request::Close { session: 7 },
        Request::Digest { session: 7 },
        Request::Ping,
        Request::Shutdown,
        Request::Stats,
    ]
}

fn responses() -> Vec<Response> {
    let hist = HistogramSnapshot {
        count: 9,
        sum_nanos: 9000,
        p50_nanos: 1024,
        p90_nanos: 2048,
        p99_nanos: 2048,
        max_nanos: 1999,
    };
    let stats = StatsSnapshot {
        version: STATS_VERSION,
        metrics: MetricsSnapshot {
            counters: vec![
                ("serve.frames_in_total".into(), 42),
                ("serve.steps_total".into(), 960),
            ],
            gauges: vec![("serve.queue_depth".into(), -3)],
            hists: vec![("serve.quantum_nanos".into(), hist)],
        },
        sessions: vec![
            SessionStat {
                session: 3,
                system: "gray-scott".into(),
                state: "active".into(),
                steps: 120,
                pending: 8,
            },
            SessionStat {
                session: 1 << 32 | 1,
                system: "heat".into(),
                state: "suspended".into(),
                steps: 40,
                pending: 0,
            },
        ],
    };
    vec![
        Response::Submitted { session: 1 },
        Response::Stepped {
            session: 1,
            steps: 20,
            fired: 3,
        },
        Response::State {
            session: 1,
            layer: 0,
            rows: 2,
            cols: 2,
            bits: vec![i32::MIN, -1, 0, i32::MAX],
        },
        Response::Suspended {
            session: 1,
            steps: 20,
        },
        Response::Resumed {
            session: 1,
            steps: 20,
        },
        Response::Closed { session: 1 },
        Response::Digest {
            session: 1,
            steps: 20,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        },
        Response::Pong,
        Response::ShuttingDown,
        Response::Error {
            code: ErrorCode::CorruptCheckpoint,
            message: "session 9 checkpoint: missing".into(),
        },
        Response::Stats { stats },
    ]
}

/// A recovered spool's manifest: an incarnation line and two entries.
fn manifest() -> Manifest {
    let entry = |session: u64, system: &str, steps: u64| ManifestEntry {
        session,
        system: system.into(),
        rows: 8,
        cols: 12,
        steps,
        file: format!("session_{session}.ckpt"),
        digest: 0xDEAD_BEEF ^ session,
    };
    let entries = [entry(1, "gray-scott", 30), entry(2 << 32 | 1, "heat", 0)];
    Manifest {
        incarnation: 2,
        entries: entries.into_iter().map(|e| (e.session, e)).collect(),
    }
}

/// A spool directory of this test's own.
fn spool_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cenn-serve-untrusted-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// Every sample request and response, encoded under `id`.
fn payloads(id: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = requests().iter().map(|r| r.encode_with_id(id)).collect();
    out.extend(responses().iter().map(|r| r.encode_with_id(id)));
    out
}

fn check_alloc(input_len: usize, largest: usize) -> Result<(), TestCaseError> {
    prop_assert!(
        largest <= PER_BYTE * input_len + SLACK,
        "{input_len} input bytes made a {largest}-byte allocation"
    );
    Ok(())
}

/// Decodes `bytes` both as a request and as a response: each gives a
/// typed `Malformed` error or a message that re-encodes to `bytes`.
fn check_messages(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (req, largest) = largest_alloc(|| Request::decode_with_id(bytes));
    check_alloc(bytes.len(), largest)?;
    match req {
        Ok((id, req)) => prop_assert_eq!(req.encode_with_id(id), bytes),
        Err(e) => prop_assert!(matches!(e, FrameError::Malformed(_)), "{e}"),
    }
    let (resp, largest) = largest_alloc(|| Response::decode_with_id(bytes));
    check_alloc(bytes.len(), largest)?;
    match resp {
        Ok((id, resp)) => prop_assert_eq!(resp.encode_with_id(id), bytes),
        Err(e) => prop_assert!(matches!(e, FrameError::Malformed(_)), "{e}"),
    }
    Ok(())
}

/// Writes `bytes` as the `MANIFEST` of `dir` and loads it: a typed error,
/// or a manifest that saves and loads back unchanged.
fn check_manifest(dir: &std::path::Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(Manifest::path_in(dir), bytes).unwrap();
    let (loaded, largest) = largest_alloc(|| Manifest::load(dir));
    check_alloc(bytes.len(), largest)?;
    match loaded {
        Ok(m) => {
            m.save(dir).unwrap();
            prop_assert_eq!(Manifest::load(dir).unwrap(), m);
        }
        Err(SpoolError::Format { .. }) => {}
        // Bytes that are not UTF-8.
        Err(SpoolError::Io(e)) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn messages_decode_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..512,
    ) {
        check_messages(&bytes)?;
        // Behind a valid payload cut anywhere, arbitrary bytes reach
        // every field decoder, counts and lengths included.
        for valid in payloads(7) {
            let mut spliced = valid[..cut % (valid.len() + 1)].to_vec();
            spliced.extend_from_slice(&bytes);
            check_messages(&spliced)?;
        }
    }

    #[test]
    fn messages_decode_overwritten_or_truncated_payloads(
        id in any::<u64>(),
        at in 0usize..512,
        len in 1usize..16,
        patch in prop::collection::vec(any::<u8>(), 1..16),
        truncate in any::<bool>(),
    ) {
        for valid in payloads(id) {
            check_messages(&mutate(&valid, at, len, &patch, truncate))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn manifest_loads_arbitrary_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..256),
        tokens in any::<bool>(),
    ) {
        let dir = spool_dir("arbitrary");
        // A valid header, then arbitrary bytes, or, when `tokens`, the
        // manifest's own tokens, so that lines parse often enough to
        // reach the field checks.
        let vocabulary: [&[u8]; 16] = [
            b"incarnation=", b"session=", b"system=", b"rows=", b"cols=", b"steps=", b"file=",
            b"digest=", b" ", b"\n", b"0", b"7", b"4294967304", b"18446744073709551616", b"ff",
            b"x",
        ];
        let mut bytes = b"CENNMANIFEST 1\n".to_vec();
        for &b in &tail {
            if tokens {
                bytes.extend_from_slice(vocabulary[usize::from(b) % vocabulary.len()]);
            } else {
                bytes.push(b);
            }
        }
        let result = check_manifest(&dir, &bytes);
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }

    #[test]
    fn manifest_loads_overwritten_or_truncated_files(
        at in 0usize..256,
        len in 1usize..16,
        patch in prop::collection::vec(any::<u8>(), 1..16),
        truncate in any::<bool>(),
    ) {
        let dir = spool_dir("mutated");
        manifest().save(&dir).unwrap();
        let valid = std::fs::read(Manifest::path_in(&dir)).unwrap();
        let result = check_manifest(&dir, &mutate(&valid, at, len, &patch, truncate));
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}
