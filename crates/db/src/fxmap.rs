//! A deterministic, dependency-free fast hasher for hot point-lookup
//! tables.
//!
//! Hot analysis tables such as the OSA location interner are dominated
//! by small-key point probes. `std`'s default `RandomState` (SipHash
//! 1-3) costs more than the rest of such a probe combined; this module
//! provides the classic Fx multiply-rotate hash instead. It is *not*
//! DoS-resistant and must only be used for tables keyed by trusted,
//! program-derived values — never for attacker-controlled input.
//!
//! Unlike `RandomState`, [`FxBuildHasher`] has no per-process seed, so
//! map behaviour is identical across runs. No code may depend on map
//! iteration order regardless (the goldens are byte-identical across
//! runs precisely because every ordered output is sorted first); the
//! fixed seed simply removes one source of cross-run variance.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the Fx hasher. Use for hot, trusted-key tables.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the Fx hasher. Use for hot, trusted-key tables.
pub type FastSet<K> = HashSet<K, FxBuildHasher>;

/// Zero-sized builder producing [`FxHasher`]s with a fixed state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The Fx string/word hash: rotate, xor, multiply per 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

/// Knuth's 2^64 / golden-ratio multiplier, the standard Fx constant.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if let Some((chunk, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = rest;
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        let mut a = FastMap::default();
        let mut b = FastMap::default();
        for i in 0..100u32 {
            a.insert((i, u64::from(i) << 33), i);
            b.insert((i, u64::from(i) << 33), i);
        }
        assert_eq!(a, b);
        assert_eq!(a.get(&(42, 42u64 << 33)), Some(&42));
    }

    #[test]
    fn words_and_bytes_disperse() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. returning the input or a constant).
        let mut seen = FastSet::default();
        for i in 0..1000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 1000);
        let mut h1 = FxHasher::default();
        h1.write(b"hello world!!");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world!?");
        assert_ne!(h1.finish(), h2.finish());
    }
}
