//! Deterministic end-state digests, re-exported from `cenn-core`, where
//! the digest lives next to [`SimSnapshot`](cenn_core::SimSnapshot) (see
//! [`cenn_core::snapshot_digest`] for what it covers). A session's digest
//! is the fleet harness's green/red signal.

pub use cenn_core::{fnv1a64, fnv1a64_init, snapshot_digest, state_digest};

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_equations::{DynamicalSystem, Fisher, FixedRunner};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(fnv1a64_init(), b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(fnv1a64_init(), b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(fnv1a64_init(), b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_stable_and_state_sensitive() {
        let mk = || FixedRunner::new(Fisher::default().build(8, 8).unwrap()).unwrap();
        let mut a = mk();
        let mut b = mk();
        a.run(25);
        b.run(25);
        assert_eq!(state_digest(a.sim()), state_digest(b.sim()));
        b.run(1);
        assert_ne!(state_digest(a.sim()), state_digest(b.sim()));
    }
}
