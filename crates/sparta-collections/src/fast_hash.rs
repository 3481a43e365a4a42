//! A fast multiplicative hasher for the hot-path integer keys.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, a keyed hash
//! designed to resist hash-flooding from *adversarial* keys. Sparta's
//! hot maps are keyed by document ids — small machine integers
//! produced by our own index, never by an attacker — so
//! SipHash's ~10 ns per hash is pure overhead. [`FastIntHasher`]
//! replaces it with Fibonacci (multiplicative) hashing: one XOR and
//! one multiply per written word plus a two-round xor-shift finalizer,
//! totalling a handful of cycles.
//!
//! The hasher is deterministic (no per-process random state, unlike
//! `RandomState`), so a hash computed once can be split — high bits
//! for one level of a two-level structure, low bits for the `HashMap`
//! inside — and recomputed identically by that map.
//!
//! Why not `fxhash`/`ahash`? This workspace builds offline (no registry
//! access; see `shims/README.md`), and the mixer below is ~30 lines —
//! vendoring a dependency for it would be all cost and no benefit.

use std::hash::{BuildHasher, Hasher};

/// 2^64 / φ, the Fibonacci hashing constant (Knuth, TAOCP §6.4). Odd,
/// so multiplication by it is a bijection on `u64`.
pub(crate) const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalizer multipliers (SplitMix64's, Steele et al.) — two xor-shift
/// multiply rounds give full avalanche so both the *high* bits (used
/// for stripe selection) and the *low* bits (used for bucket indexing)
/// are well mixed.
const MIX_A: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_B: u64 = 0x94D0_49BB_1331_11EB;

/// A multiplicative hasher specialized for small integer keys.
///
/// Each written word folds into the state with one XOR + one multiply;
/// [`finish`](Hasher::finish) applies a xor-shift avalanche. For the
/// common case — a single `u32`/`u64` key — the whole hash is 3
/// multiplies, an order of magnitude cheaper than SipHash-1-3.
#[derive(Debug, Clone, Default)]
pub struct FastIntHasher {
    state: u64,
}

impl FastIntHasher {
    #[inline]
    fn mix_word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(PHI64);
    }
}

impl Hasher for FastIntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(MIX_A);
        z = (z ^ (z >> 27)).wrapping_mul(MIX_B);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys (e.g. strings): fold 8-byte
        // chunks, then the (length-tagged) tail, so distinct lengths
        // hash differently.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix_word(u64::from_le_bytes(tail));
        }
        self.mix_word(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix_word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix_word(i as u64);
        self.mix_word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix_word(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// [`BuildHasher`] for [`FastIntHasher`]. Zero-sized and deterministic:
/// two builders always produce identical hashes, so a hash computed
/// once can drive both stripe selection and in-stripe bucket placement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastBuildHasher;

impl BuildHasher for FastBuildHasher {
    type Hasher = FastIntHasher;

    #[inline]
    fn build_hasher(&self) -> FastIntHasher {
        FastIntHasher::default()
    }
}

/// A `HashMap` keyed with [`FastIntHasher`] — the drop-in replacement
/// for `std::collections::HashMap` on integer-keyed hot paths (Sparta's
/// per-term `termMap` replicas).
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std map: keyed with FastBuildHasher"
)]
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastIntHasher`] (heap membership snapshots).
#[expect(
    clippy::disallowed_types,
    reason = "the one sanctioned std set: keyed with FastBuildHasher"
)]
pub type FastHashSet<T> = std::collections::HashSet<T, FastBuildHasher>;

/// Hashes one value with [`FastIntHasher`] — the shared hash function
/// behind both stripe selection and bucket indexing.
#[inline]
pub fn fast_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    FastBuildHasher.hash_one(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(fast_hash_one(&42u32), fast_hash_one(&42u32));
        let a = FastBuildHasher.hash_one(7u64);
        let b = FastBuildHasher.hash_one(7u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Multiplicative hashing is a bijection per word, so distinct
        // single-word keys can never collide before the finalizer, and
        // the finalizer is a bijection too.
        let hashes: std::collections::HashSet<u64> =
            (0u32..10_000).map(|i| fast_hash_one(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn high_and_low_bits_both_spread() {
        // Sequential doc ids must spread across 64 stripes (high bits)
        // and across 256 buckets (low bits) — the two consumers of the
        // single hash.
        let mut stripes = std::collections::HashSet::new();
        let mut buckets = std::collections::HashSet::new();
        for i in 0u32..4096 {
            let h = fast_hash_one(&i);
            stripes.insert((h >> 32) as usize & 63);
            buckets.insert(h as usize & 255);
        }
        assert_eq!(stripes.len(), 64, "high bits collapse");
        assert_eq!(buckets.len(), 256, "low bits collapse");
    }

    #[test]
    fn byte_streams_length_tagged() {
        use std::hash::Hash;
        // "ab" followed by "c" must differ from "a" followed by "bc":
        // Hash for str writes a length/terminator, and our fallback
        // additionally folds the length.
        let h1 = fast_hash_one(&("ab", "c"));
        let h2 = fast_hash_one(&("a", "bc"));
        assert_ne!(h1, h2);
        // And the raw write path distinguishes lengths.
        let mut a = FastIntHasher::default();
        let mut b = FastIntHasher::default();
        [1u8, 2, 3].hash(&mut a);
        [1u8, 2, 3, 0].hash(&mut b);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fast_map_and_set_usable() {
        let mut m: FastHashMap<u32, u32> = FastHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&7), Some(&14));
        let s: FastHashSet<u32> = (0..50).collect();
        assert!(s.contains(&49) && !s.contains(&50));
    }
}
