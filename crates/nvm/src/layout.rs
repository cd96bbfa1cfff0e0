//! Address-space layout of the simulated machine's persistent and
//! volatile regions.

/// Where everything lives in the simulated physical address space.
///
/// Matches `ede_mem::MemConfig::a72_hybrid()`: DRAM from 0, NVM from
/// 4 GiB. Within NVM, the undo log (header + slots) comes first, then a
/// twin copy of the header line, then the persistent heap. A small
/// volatile scratch region in DRAM holds framework runtime state (the
/// log tail pointer).
///
/// The header and its twin are deliberately *non-adjacent* (the whole
/// slot array sits between them) so no single sector-sized media tear
/// can destroy both copies at once — the redundancy the recovery triage
/// engine repairs torn superblocks from (see DESIGN.md "Recovery
/// triage").
///
/// # Example
///
/// ```
/// use ede_nvm::Layout;
///
/// let l = Layout::standard();
/// assert!(l.heap_base > l.log_base);
/// assert_eq!(l.slot_addr(0), l.log_base);
/// assert_eq!(l.slot_addr(1), l.log_base + 64);
/// assert_eq!(l.log_header_twin, l.log_base + l.log_slots * 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    /// Base of the NVM range.
    pub nvm_base: u64,
    /// The log header line: word 0 holds the last committed transaction
    /// id.
    pub log_header: u64,
    /// First undo-log slot (each slot is one 64-byte line).
    pub log_base: u64,
    /// Number of undo-log slots.
    pub log_slots: u64,
    /// The twin header line: a second, non-adjacent copy of every
    /// superblock marker word, written *before* the primary on commit so
    /// the twin is always at least as new. A torn primary is repaired
    /// from here.
    pub log_header_twin: u64,
    /// Base of the persistent heap.
    pub heap_base: u64,
    /// Base of the volatile (DRAM) scratch region.
    pub dram_scratch: u64,
    /// Volatile location of the log tail index.
    pub log_tail_ptr: u64,
}

impl Layout {
    /// The standard layout over the Table I address split.
    pub fn standard() -> Layout {
        let nvm_base = 0x1_0000_0000;
        let log_header = nvm_base;
        let log_base = nvm_base + 64;
        let log_slots = 8192;
        let log_header_twin = log_base + log_slots * 64;
        Layout {
            nvm_base,
            log_header,
            log_base,
            log_slots,
            log_header_twin,
            heap_base: log_header_twin + 64,
            dram_scratch: 0x1_0000,
            log_tail_ptr: 0x1_0000,
        }
    }

    /// The address of undo-log slot `i` (wrapping round-robin).
    pub fn slot_addr(&self, i: u64) -> u64 {
        self.log_base + (i % self.log_slots) * 64
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_ordered_and_disjoint() {
        let l = Layout::standard();
        assert!(l.log_header < l.log_base);
        assert!(l.log_base < l.log_header_twin);
        assert!(l.log_header_twin < l.heap_base);
        assert!(l.heap_base - l.log_header_twin >= 64);
        assert!(l.dram_scratch < l.nvm_base);
        // The twin must not be adjacent to the primary: a single
        // sector-sized tear (512 bytes) can never cover both.
        assert!(l.log_header_twin - l.log_header > 512);
    }

    #[test]
    fn slots_wrap() {
        let l = Layout::standard();
        assert_eq!(l.slot_addr(l.log_slots), l.slot_addr(0));
        assert_eq!(l.slot_addr(l.log_slots + 3), l.slot_addr(3));
    }
}
