//! Hash maps for dense integer keys: instruction ids, request ids, page
//! numbers ([`IdMap`]), and 8-byte-aligned word addresses ([`WordMap`]).
//! Such keys are not adversarial, so they hash with one multiply instead
//! of SipHash.

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

/// A multiplicative hasher for 8-byte-aligned word addresses. The three
/// always-zero low bits are shifted out, and the word index is xored
/// with its line index (`addr >> 6`) before the multiply, which keeps
/// low bits distinct. In a table of `2^k` buckets, the `2^k` words of an
/// aligned run and the first words of any `2^k` consecutive lines each
/// land in distinct buckets (an unaligned run of words nearly so); a
/// plain multiply of the word index would put line-aligned addresses in
/// an eighth of the buckets.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, addr: u64) {
        self.0 = addr;
    }

    fn finish(&self) -> u64 {
        let word = self.0 >> 3;
        (word ^ (word >> 3)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// A word-address → value map (a memory image), hashed by [`WordHasher`].
pub type WordMap = HashMap<u64, u64, BuildHasherDefault<WordHasher>>;

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

    /// How many distinct values the low `bits` bits of the word hash of
    /// each address take.
    fn distinct_low_bits(addrs: impl Iterator<Item = u64>, bits: u32) -> usize {
        addrs
            .map(|a| {
                let mut h = WordHasher::default();
                h.write_u64(a);
                h.finish() & ((1 << bits) - 1)
            })
            .collect::<std::collections::HashSet<u64>>()
            .len()
    }

    #[test]
    fn consecutive_words_fill_distinct_low_bits() {
        let base = 0x1_0000_0000u64;
        assert_eq!(distinct_low_bits((0..1024).map(|w| base + w * 8), 10), 1024);
        assert_eq!(distinct_low_bits((0..1024).map(|w| w * 8), 10), 1024);
    }

    #[test]
    fn line_aligned_addresses_fill_distinct_low_bits() {
        let base = 0x1_0000_0000u64;
        assert_eq!(
            distinct_low_bits((0..1024).map(|l| base + l * 64), 10),
            1024
        );
        // Any run of lines, aligned or not.
        assert_eq!(
            distinct_low_bits((0..1024).map(|l| base + 0x1240 + l * 64), 10),
            1024
        );
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
