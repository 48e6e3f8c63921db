//! Content digests: a 128-bit structural hash built from two independent
//! 64-bit lanes (FNV-1a and a SplitMix64-mixed accumulator).
//!
//! Digests identify program fragments and analysis artifacts *by content*
//! across runs and across processes, so they must be deterministic on
//! every platform: the hasher uses only fixed-width integer arithmetic,
//! never pointer values, `HashMap` iteration order, or `DefaultHasher`
//! (whose algorithm is unspecified). 128 bits keep accidental collisions
//! out of reach for any realistic artifact store (birthday bound ≈ 2^64
//! entries).

use std::fmt;

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub u64, pub u64);

impl Digest {
    /// The digest of the empty input.
    pub const EMPTY: Digest = Digest(FNV_OFFSET, SM_SEED);

    /// Renders the digest as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:08x}{:08x}", self.0 as u32, self.1 as u32)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const SM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An incremental structural hasher producing a [`Digest`].
///
/// The two lanes see every input but combine it differently (byte-wise
/// FNV-1a vs word-wise SplitMix64 absorption), so a collision requires
/// defeating both simultaneously.
#[derive(Clone, Debug)]
pub struct DigestHasher {
    fnv: u64,
    sm: u64,
}

impl Default for DigestHasher {
    fn default() -> Self {
        DigestHasher::new()
    }
}

impl DigestHasher {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        DigestHasher {
            fnv: FNV_OFFSET,
            sm: SM_SEED,
        }
    }

    /// Creates a hasher seeded with a domain-separation tag, so hashes of
    /// different artifact kinds never collide structurally.
    pub fn with_tag(tag: &str) -> Self {
        let mut h = DigestHasher::new();
        h.write_str(tag);
        h
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fnv = (self.fnv ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        // The SplitMix lane absorbs bytes in 8-byte little-endian words.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.absorb(w);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            self.absorb(w ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn absorb(&mut self, w: u64) {
        self.sm = mix64(self.sm ^ w.wrapping_mul(SM_SEED));
    }

    /// Absorbs a `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.fnv = (self.fnv ^ x).wrapping_mul(FNV_PRIME);
        self.absorb(x);
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x) | 1 << 33);
    }

    /// Absorbs a `u8`.
    pub fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x) | 1 << 34);
    }

    /// Absorbs a boolean.
    pub fn write_bool(&mut self, x: bool) {
        self.write_u8(u8::from(x) | 0x10);
    }

    /// Absorbs a length-delimited string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64 | 1 << 35);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs another digest (both lanes).
    pub fn write_digest(&mut self, d: Digest) {
        self.write_u64(d.0);
        self.write_u64(d.1);
    }

    /// Finishes the hash. The hasher can keep absorbing afterwards (the
    /// finalization is non-destructive).
    pub fn finish(&self) -> Digest {
        Digest(
            mix64(self.fnv ^ self.sm.rotate_left(32)),
            mix64(self.sm ^ self.fnv.rotate_left(17)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = DigestHasher::new();
        a.write_str("hello");
        a.write_u32(7);
        let mut b = DigestHasher::new();
        b.write_str("hello");
        b.write_u32(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = DigestHasher::new();
        c.write_u32(7);
        c.write_str("hello");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = DigestHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = DigestHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn type_tags_separate_scalar_domains() {
        let mut a = DigestHasher::new();
        a.write_u32(5);
        let mut b = DigestHasher::new();
        b.write_u8(5);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_roundtrip_shape() {
        let d = Digest(1, 2);
        assert_eq!(d.to_hex().len(), 32);
        assert!(d.to_hex().starts_with("0000000000000001"));
    }

    #[test]
    fn byte_chunking_matches_across_splits() {
        let mut a = DigestHasher::new();
        a.write_bytes(b"abcdefghij");
        let mut b = DigestHasher::new();
        b.write_bytes(b"abcde");
        b.write_bytes(b"fghij");
        // Chunk boundaries are part of the stream, so split writes hash
        // differently — document that property.
        assert_ne!(a.finish(), b.finish());
    }
}
