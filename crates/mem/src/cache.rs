//! A set-associative writeback cache model.

use crate::config::CacheConfig;

/// State of one cached line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// Result of inserting a line: the victim that had to leave, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// Line-aligned address of the evicted line.
    pub addr: u64,
    /// Whether the victim was dirty (must be written to the next level).
    pub dirty: bool,
}

/// A single cache level: set-associative, LRU replacement, writeback +
/// write-allocate.
///
/// The model tracks presence and dirtiness only; data contents live in the
/// functional trace. Timing is owned by
/// [`MemSystem`](crate::system::MemSystem).
///
/// # Example
///
/// ```
/// use ede_mem::cache::Cache;
/// use ede_mem::config::CacheConfig;
///
/// let mut c = Cache::new(
///     &CacheConfig { capacity: 1024, ways: 2, latency: 1 },
///     64,
/// );
/// assert!(!c.contains(0x40));
/// c.fill(0x40, false);
/// assert!(c.contains(0x40));
/// c.mark_dirty(0x40);
/// assert_eq!(c.clean_line(0x40), true); // was dirty, now clean
/// assert_eq!(c.clean_line(0x40), false);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Per set: lines ordered most-recently-used first.
    sets: Vec<Vec<Line>>,
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
    set_shift: u32,
}

impl Cache {
    /// Builds a cache level from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets is not a power of two.
    pub fn new(cfg: &CacheConfig, line_bytes: u64) -> Cache {
        let sets = cfg.sets(line_bytes);
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        Cache {
            sets: vec![Vec::new(); sets as usize],
            ways: cfg.ways as usize,
            line_bytes,
            set_mask: sets - 1,
            set_shift: line_bytes.trailing_zeros(),
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift >> self.set_mask.count_ones()
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Whether the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.sets[set].iter().any(|l| l.tag == tag)
    }

    /// Looks up `addr`; on a hit, refreshes LRU and returns `true`.
    pub fn access(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
            let line = self.sets[set].remove(pos);
            self.sets[set].insert(0, line);
            true
        } else {
            false
        }
    }

    /// Inserts the line containing `addr` (most-recently-used position),
    /// returning the evicted victim if the set was full.
    ///
    /// If the line is already present this refreshes LRU and ORs in the
    /// dirty bit instead.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
            let mut line = self.sets[set].remove(pos);
            line.dirty |= dirty;
            self.sets[set].insert(0, line);
            return None;
        }
        let victim = if self.sets[set].len() >= self.ways {
            let v = self.sets[set].pop().expect("set is non-empty");
            let vaddr = self.addr_of(set, v.tag);
            Some(Eviction {
                addr: vaddr,
                dirty: v.dirty,
            })
        } else {
            None
        };
        self.sets[set].insert(0, Line { tag, dirty });
        victim
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_mask.count_ones() | set as u64) << self.set_shift
    }

    /// Marks the line containing `addr` dirty; `true` if it was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            l.dirty = true;
            true
        } else {
            false
        }
    }

    /// Clears the dirty bit of the line containing `addr` without evicting
    /// it (the `DC CVAP` "clean but retain" semantics). Returns whether
    /// the line was present *and dirty*.
    pub fn clean_line(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            let was = l.dirty;
            l.dirty = false;
            was
        } else {
            false
        }
    }

    /// The line-aligned address for `addr` at this cache's line size.
    pub fn align(&self, addr: u64) -> u64 {
        self.line_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the line containing `addr` is present and dirty.
    fn is_dirty(c: &Cache, addr: u64) -> bool {
        let set = c.set_of(addr);
        let tag = c.tag_of(addr);
        c.sets[set].iter().any(|l| l.tag == tag && l.dirty)
    }

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(
            &CacheConfig {
                capacity: 512,
                ways: 2,
                latency: 1,
            },
            64,
        )
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100));
        c.fill(0x100, false);
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same line
        assert!(!c.access(0x140)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set index = (addr >> 6) & 3. Use addresses mapping to set 0:
        // 0x000, 0x100, 0x200 (strides of 4 lines).
        assert!(c.fill(0x000, false).is_none());
        assert!(c.fill(0x100, false).is_none());
        // Touch 0x000 so 0x100 becomes LRU.
        assert!(c.access(0x000));
        let ev = c.fill(0x200, false).expect("set full");
        assert_eq!(ev.addr, 0x100);
        assert!(!ev.dirty);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.fill(0x000, true);
        c.fill(0x100, false);
        c.access(0x100); // 0x000 becomes LRU
        let ev = c.fill(0x200, false).unwrap();
        assert_eq!(ev.addr, 0x000);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_merges_dirty_bit() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.fill(0x40, true).is_none());
        assert!(is_dirty(&c, 0x40));
        // Refilling clean does not clear dirtiness.
        assert!(c.fill(0x40, false).is_none());
        assert!(is_dirty(&c, 0x40));
    }

    #[test]
    fn clean_line_retains() {
        let mut c = small();
        c.fill(0x40, true);
        assert!(c.clean_line(0x40));
        assert!(c.contains(0x40));
        assert!(!is_dirty(&c, 0x40));
        assert!(!c.clean_line(0x80)); // absent line
    }

    #[test]
    fn eviction_address_reconstruction() {
        // Fill three lines in the same set far apart and check the evicted
        // address round-trips correctly.
        let mut c = small();
        let a = 0x10_0000; // set 0
        let b = 0x20_0000; // set 0
        let d = 0x30_0000; // set 0
        c.fill(a, true);
        c.fill(b, false);
        let ev = c.fill(d, false).unwrap();
        assert_eq!(ev.addr, a);
    }

    #[test]
    fn table1_l1_shape_works() {
        let c = Cache::new(
            &CacheConfig {
                capacity: 48 * 1024,
                ways: 3,
                latency: 1,
            },
            64,
        );
        assert!(!c.contains(0x12345));
        assert_eq!(c.align(0x12345), 0x12340);
    }
}
