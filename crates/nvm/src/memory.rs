//! Functional word-addressable memory.

use ede_util::idmap::IdMap;
use std::fmt;

/// Words per page: one `u64` of written-bits.
const PAGE_WORDS: usize = 64;

/// Bytes per page: the page number of a byte address is `addr / PAGE_BYTES`.
const PAGE_BYTES: u64 = PAGE_WORDS as u64 * 8;

/// One page of words and the bitmap of which of them were ever written.
#[derive(Clone)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: u64,
}

/// The index of the word at `addr` within its page.
fn slot(addr: u64) -> usize {
    (addr % PAGE_BYTES / 8) as usize
}

/// The functional contents of the simulated address space, at 8-byte
/// granularity. Unwritten words read as zero (fresh NVM/DRAM).
///
/// The workloads execute against this memory while emitting the timing
/// trace; the crash checker compares reconstructed NVM images against the
/// values recorded here.
///
/// Storage is paged: 64-word pages with a written-bitmap each, found
/// through a map keyed by page number and hashed with one multiply. A
/// read is one page lookup and an index; a write also tests one bit. So
/// preloading a large pool costs no SipHash insert per word, and a
/// sparse one pays for 64 words around each word it writes, not more.
///
/// # Example
///
/// ```
/// use ede_nvm::SimMemory;
///
/// let mut m = SimMemory::new();
/// assert_eq!(m.read(0x40), 0);
/// m.write(0x40, 7);
/// assert_eq!(m.read(0x40), 7);
/// assert_eq!(m.iter().collect::<Vec<_>>(), [(0x40, 7)]);
/// ```
#[derive(Clone, Default)]
pub struct SimMemory {
    pages: IdMap<u64, Box<Page>>,
    /// Distinct words ever written.
    len: usize,
}

impl SimMemory {
    /// Empty (all-zero) memory.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// Reads the word at `addr` (must be 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses — the trace generator only emits
    /// aligned accesses.
    pub fn read(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned read at {addr:#x}");
        self.pages
            .get(&(addr / PAGE_BYTES))
            .map_or(0, |page| page.words[slot(addr)])
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn write(&mut self, addr: u64, value: u64) {
        assert_eq!(addr % 8, 0, "unaligned write at {addr:#x}");
        let page = self.pages.entry(addr / PAGE_BYTES).or_insert_with(|| {
            Box::new(Page {
                words: [0; PAGE_WORDS],
                written: 0,
            })
        });
        let i = slot(addr);
        let bit = 1u64 << i;
        if page.written & bit == 0 {
            page.written |= bit;
            self.len += 1;
        }
        page.words[i] = value;
    }

    /// Number of distinct words ever written, explicit zeros included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the `(addr, value)` pair of every word ever written,
    /// in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut pages: Vec<(u64, &Page)> = self.pages.iter().map(|(&n, p)| (n, &**p)).collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        pages.into_iter().flat_map(|(n, page)| {
            (0..PAGE_WORDS)
                .filter(move |&i| page.written & (1 << i) != 0)
                .map(move |i| (n * PAGE_BYTES + 8 * i as u64, page.words[i]))
        })
    }
}

impl fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_zero() {
        let m = SimMemory::new();
        assert_eq!(m.read(0x1_0000_0000), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SimMemory::new();
        m.write(0x100, 42);
        m.write(0x100, 43);
        assert_eq!(m.read(0x100), 43);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_writes_count_and_iter_ascends_across_pages() {
        let mut m = SimMemory::new();
        for addr in [u64::MAX - 7, 0x2000, 0x1ff8, 0x8, 0x1000_0000] {
            m.write(addr, 0);
        }
        m.write(0x2000, 5);
        assert_eq!(m.len(), 5);
        assert_eq!(m.read(0x2000), 5);
        assert_eq!(m.read(0x2008), 0);
        let addrs: Vec<u64> = m.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [0x8, 0x1ff8, 0x2000, 0x1000_0000, u64::MAX - 7]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        SimMemory::new().read(0x41);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_write_panics() {
        SimMemory::new().write(0x42, 1);
    }
}
