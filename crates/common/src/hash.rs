//! Fast non-cryptographic hashing (FxHash).
//!
//! The itemset-mining and pair-counting inner loops hash short keys (item
//! ids, `(u32, u32)` pairs, small `Vec<u32>` itemsets) billions of times at
//! the paper's data scale. The standard library's SipHash is DoS-resistant
//! but measurably slow for these keys; SCube's workloads are offline
//! analytics on trusted inputs, so we use the Firefox/rustc "Fx" multiply-
//! rotate hash instead (the same trade-off rustc itself makes).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash function: `state = (state <<< 5 ^ word) * SEED` per word,
/// finished by a rotation.
///
/// The multiply leaves the state's low bits depending only on the low
/// bytes of each word, and hashbrown picks a bucket from the low bits, so
/// the raw state piles keys that differ only in their high bytes (`c0` …
/// `c1499999`, say) into a few buckets. `finish` rotates the well-mixed
/// high bits down, as the rustc-hash 2.x finisher does.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (chunk, rest) = bytes.split_at(8);
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (chunk, rest) = bytes.split_at(4);
            self.add_word(u64::from(u32::from_le_bytes(chunk.try_into().unwrap())));
            bytes = rest;
        }
        for &b in bytes {
            self.add_word(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// Build an empty [`FxHashMap`] (convenience constructor).
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// Build an empty [`FxHashSet`] (convenience constructor).
pub fn fx_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

/// Build an [`FxHashMap`] with capacity for `n` entries.
pub fn fx_map_with_capacity<K, V>(n: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(n, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![2u32, 1]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u32>, u64> = fx_map();
        for i in 0..1000u32 {
            m.insert(vec![i, i + 1], u64::from(i));
        }
        for i in 0..1000u32 {
            assert_eq!(m[&vec![i, i + 1]], u64::from(i));
        }
    }

    #[test]
    fn set_distinct_count() {
        let mut s: FxHashSet<(u32, u32)> = fx_set();
        for a in 0..50 {
            for b in 0..50 {
                s.insert((a, b));
            }
        }
        assert_eq!(s.len(), 2500);
    }

    #[test]
    fn byte_tail_paths() {
        // Exercise the 8-byte, 4-byte, and 1-byte write paths.
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h1 = FxHasher::default();
            h1.write(&bytes);
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(h1.finish(), h2.finish(), "len {len}");
        }
    }

    #[test]
    fn low_bits_spread_keys_that_differ_in_high_bytes() {
        // The unit keys of the 4.2 M-row scale run, bucketed by the low 16
        // bits a hash table indexes with: 1.5 M keys, a mean load of 22.9.
        // The unrotated state piled 15 671 keys into one bucket.
        const KEYS: u32 = 1_500_000;
        let mut load = vec![0u32; 1 << 16];
        for i in 0..KEYS {
            load[(hash_of(&format!("c{i}")) & 0xffff) as usize] += 1;
        }
        let fullest = *load.iter().max().unwrap();
        let mean = f64::from(KEYS) / f64::from(1u32 << 16);
        assert!(f64::from(fullest) <= 4.0 * mean, "fullest bucket {fullest}, mean {mean:.1}");
    }

    #[test]
    fn capacity_constructor() {
        let m: FxHashMap<u32, u32> = fx_map_with_capacity(100);
        assert!(m.capacity() >= 100);
    }
}
