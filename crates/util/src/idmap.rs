//! A hash map for dense integer keys: instruction ids, request ids, page
//! numbers. Such keys are not adversarial, so they hash with one
//! multiply ([`IdHasher`]) instead of SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for integer keys. Multiplying by an odd
/// constant is a bijection on the low bits a table indexes by, so
/// consecutive ids never collide there, and it mixes every input bit into
/// the high bits the table tags its entries with.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over integer keys, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_keys_fill_distinct_low_bits() {
        let low: std::collections::HashSet<u64> = (0..1024u64)
            .map(|k| {
                let mut h = IdHasher::default();
                h.write_u64(k);
                h.finish() & 1023
            })
            .collect();
        assert_eq!(low.len(), 1024);
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for k in 0..100 {
            m.insert(k * 4096, k);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7 * 4096)), Some(&7));
        assert_eq!(m.get(&1), None);
    }
}
