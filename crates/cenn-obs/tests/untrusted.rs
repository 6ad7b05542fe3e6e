//! Property tests for the JSON the workspace reads back: event lines
//! (`validate_jsonl_line`) and whole documents such as `BENCH_<n>.json`
//! (`parse_json`). Arbitrary strings, and valid event lines with a byte
//! range overwritten or truncated, must give an error or a value. They
//! must never panic, overflow the stack, or make an allocation larger
//! than the input length allows.
//!
//! The suite lives in its own test binary because it swaps in a global
//! allocator that records the largest single allocation per thread.

#[path = "../../cenn-serve/tests/largest_alloc/mod.rs"]
mod largest_alloc;

use cenn_obs::{parse_json, validate_jsonl_line, SchemaError};
use largest_alloc::largest_alloc;
use proptest::prelude::*;

/// Allocation slack per input byte: a parsed array holds 32-byte values,
/// one per two input bytes at most (`1,`), in a vector that grows by
/// doubling.
const PER_BYTE: usize = 32;

/// Fixed slack: a vector's first growth step, the expected key list of
/// an event kind, and error messages.
const SLACK: usize = 1024;

/// The first line of each event kind in the committed fixtures: all
/// seven kinds.
fn valid_lines() -> Vec<&'static str> {
    let fixtures = [
        include_str!("../../../tests/fixtures/guard_smoke.jsonl"),
        include_str!("../../../tests/fixtures/quickstart_metrics.jsonl"),
        include_str!("../../../tests/fixtures/session_events.jsonl"),
        include_str!("../../../tests/fixtures/span_summary.jsonl"),
        include_str!("../../../tests/fixtures/stats_snapshot.jsonl"),
    ];
    let mut seen = Vec::new();
    let mut lines = Vec::new();
    for line in fixtures.iter().flat_map(|f| f.lines()) {
        let kind = line.split(',').next().unwrap();
        if !seen.contains(&kind) {
            seen.push(kind);
            lines.push(line);
        }
    }
    assert_eq!(lines.len(), 7, "one line of each event kind");
    lines
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

/// Validates and parses `text`: both return, within the allocation
/// bound.
fn check(text: &str) -> Result<(), TestCaseError> {
    let bound = PER_BYTE * text.len() + SLACK;
    let (valid, largest) = largest_alloc(|| validate_jsonl_line(text));
    prop_assert!(
        largest <= bound,
        "validating {} bytes made a {largest}-byte allocation",
        text.len()
    );
    let (parsed, largest) = largest_alloc(|| parse_json(text));
    prop_assert!(
        largest <= bound,
        "parsing {} bytes made a {largest}-byte allocation",
        text.len()
    );
    if valid.is_ok() {
        prop_assert!(parsed.is_ok(), "a valid line must parse");
    }
    Ok(())
}

#[test]
fn fixed_inputs_stay_bounded() {
    let deep = "[".repeat(100_000);
    let deep_objects = format!("{{\"event\":{}", "{\"a\":".repeat(100_000));
    let long_string = format!("{{\"event\":\"{}\"}}", "é".repeat(200_000));
    for text in [&deep, &deep_objects, &long_string] {
        check(text).unwrap();
        assert!(validate_jsonl_line(text).is_err());
    }
    assert!(parse_json(&long_string).is_ok());
    for line in valid_lines() {
        validate_jsonl_line(line).unwrap();
        check(line).unwrap();
    }
    // Bucket counts whose sum overflows a u64 are a constraint error.
    let span = include_str!("../../../tests/fixtures/span_summary.jsonl")
        .lines()
        .next()
        .unwrap()
        .replace("\"buckets\":[]", "\"buckets\":[1e19,1e19]");
    assert!(matches!(
        validate_jsonl_line(&span),
        Err(SchemaError::Constraint { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_return(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        tokens in any::<bool>(),
    ) {
        // Arbitrary text, or, when `tokens`, JSON's own tokens, so that
        // documents parse often enough to reach the schema checks.
        let vocabulary = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\"event\"", "\"schema\"", "\"step\"",
            "\"metric\"", "\"kind\"", "\"buckets\"", "1", "-2.5e3", "1e999", "18446744073709551616",
            "true", "null", " ", "\\u00e9", "é",
        ];
        let text = if tokens {
            bytes.iter().map(|&b| vocabulary[usize::from(b) % vocabulary.len()]).collect()
        } else {
            String::from_utf8_lossy(&bytes).into_owned()
        };
        check(&text)?;
    }

    #[test]
    fn valid_lines_overwritten_or_truncated_return(
        at in 0usize..1024,
        len in 1usize..16,
        patch in prop::collection::vec(any::<u8>(), 1..16),
        truncate in any::<bool>(),
    ) {
        for line in valid_lines() {
            let bytes = mutate(line.as_bytes(), at, len, &patch, truncate);
            check(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
