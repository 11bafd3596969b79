//! A multiplicative hasher for integer keys.
//!
//! The engine's lookup sets are keyed by event sequence numbers and VM
//! ids, and are only probed, never iterated, so their order cannot leak
//! into the simulation. They need neither SipHash's DoS resistance nor
//! its cost: one rotate, xor and multiply per word (the Fx scheme) keeps
//! sequential keys in distinct buckets.

use std::hash::{BuildHasherDefault, Hasher};

/// `⌊2^64 / φ⌋`. It is odd, so multiplying by it permutes the low bits.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes integer keys by multiplication; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

/// The `BuildHasher` for [`IntHasher`]-keyed `HashMap`s and `HashSet`s.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_keys_round_trip_through_a_set() {
        let mut s: HashSet<u64, IntBuildHasher> = HashSet::default();
        for k in 0..10_000u64 {
            assert!(s.insert(k));
        }
        for k in (0..10_000u64).step_by(2) {
            assert!(s.remove(&k));
        }
        assert_eq!(s.len(), 5_000);
        assert!((0..10_000u64).all(|k| s.contains(&k) == (k % 2 == 1)));
    }

    #[test]
    fn distinct_keys_hash_apart() {
        let h = |n: u64| {
            let mut x = IntHasher::default();
            x.write_u64(n);
            x.finish()
        };
        assert_ne!(h(1), h(2));
        // A byte-wise write folds every byte in.
        let mut bytes = IntHasher::default();
        bytes.write(&[1, 2]);
        assert_ne!(bytes.finish(), h(1));
    }
}
