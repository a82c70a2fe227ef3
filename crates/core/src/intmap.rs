//! A hash map for the integer keys on the frame path: session ids, frame
//! tickets and pool-scene addresses.
//!
//! `std`'s default SipHash is keyed against adversarial inputs, which none
//! of these keys are, and it costs more than the rest of a map probe. The
//! hasher here is one multiply-rotate per word. Its [`Hasher::finish`]
//! folds the high half of the state into the low half: a product's low
//! bits depend only on the key's low bits, and pool-scene keys are 8-aligned
//! addresses, so without the fold their low three bits would always hash to
//! zero and only an eighth of the buckets would ever be used.
//!
//! Two conditions keep it safe where it is used. Iteration order differs
//! from `std`'s, so a map whose iteration order reaches an output must not
//! use it: none of the frame path's maps is iterated. And it offers no
//! defence against keys crafted to collide, so a map that inserts keys a
//! peer chose must not use it: these maps insert locally issued tickets,
//! pool addresses and session ids, and a cloud machine behind a socket
//! serves a single session.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, odd: multiplying by it spreads consecutive keys across the
/// high bits.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The frame path's hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` over [`IntHasher`]; build with `IntMap::default()`.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn low_bytes(keys: impl Iterator<Item = usize>) -> usize {
        let build = BuildHasherDefault::<IntHasher>::default();
        keys.map(|k| build.hash_one(k) as u8)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn aligned_addresses_reach_every_low_bit_pattern() {
        // 256 heap-like addresses, 8 and 64 bytes apart: the bucket index is
        // taken from the low bits, so they must not be stuck at zero.
        for stride in [8, 64] {
            let keys = (0..256).map(|i| 0x5581_2a40_0000 + i * stride);
            assert!(low_bytes(keys) > 128, "stride {stride}");
        }
        // Sequential ids and tickets spread too.
        assert!(low_bytes(0..256) > 128);
    }

    #[test]
    fn the_map_behaves_like_a_map() {
        let mut map: IntMap<u64, u64> = IntMap::default();
        for k in 0..1000 {
            map.insert(k * 8, k);
        }
        assert_eq!(map.len(), 1000);
        assert!((0..1000).all(|k| map[&(k * 8)] == k));
        assert_eq!(map.remove(&8), Some(1));
        assert!(!map.contains_key(&8));
    }
}
