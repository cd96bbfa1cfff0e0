//! Persist tracing and NVM-image reconstruction.
//!
//! The memory system records two event streams while it simulates:
//!
//! * **store events** — a retired store's data becoming visible in the
//!   cache hierarchy (still volatile!);
//! * **persist events** — a 64-byte line's current contents entering the
//!   persistent domain (persist-buffer admission, whether from a
//!   `DC CVAP` or a dirty NVM eviction).
//!
//! Replaying both streams up to an arbitrary crash instant yields the
//! exact NVM contents a power failure at that instant would leave behind.
//! [`ImageCursor`] is the one replay: it moves forward through the trace,
//! so a sweep over every crash instant takes one pass, and
//! [`nvm_image_at`] is a cursor moved once. The `ede-nvm` crate runs
//! recovery over the resulting images to test crash consistency.

use ede_util::idmap::WordMap;

/// A store's data becoming visible in the (volatile) cache hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreEvent {
    /// Completion cycle (global visibility).
    pub cycle: u64,
    /// Destination virtual address (8-byte aligned).
    pub addr: u64,
    /// Access width in bytes: 8 (`STR`) or 16 (`STP`).
    pub width: u8,
    /// The stored word(s): `value[0]` at `addr`, `value[1]` at `addr + 8`
    /// for 16-byte stores.
    pub value: [u64; 2],
}

/// A 64-byte line's contents entering the persistent domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PersistEvent {
    /// Admission cycle into the persist buffer.
    pub cycle: u64,
    /// Line-aligned address (64-byte granularity).
    pub line: u64,
}

/// The combined event record of one simulation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PersistTrace {
    /// Store-visibility events, in nondecreasing cycle order.
    pub stores: Vec<StoreEvent>,
    /// Persist events, in nondecreasing cycle order.
    pub persists: Vec<PersistEvent>,
}

impl PersistTrace {
    /// Records a store event.
    pub fn record_store(&mut self, ev: StoreEvent) {
        self.stores.push(ev);
    }

    /// Records a persist event.
    pub fn record_persist(&mut self, ev: PersistEvent) {
        self.persists.push(ev);
    }

    /// The last event cycle in the trace (0 if empty).
    pub fn horizon(&self) -> u64 {
        let s = self.stores.last().map_or(0, |e| e.cycle);
        let p = self.persists.last().map_or(0, |e| e.cycle);
        s.max(p)
    }

    /// Every crash cycle worth checking: cycle 0 (nothing persisted yet),
    /// each persist-event cycle (that persist just landed), and one past
    /// the horizon (the completed run). Sorted and deduplicated — crashing
    /// between two consecutive entries yields the same NVM image as
    /// crashing at the earlier one, so this list covers all distinct
    /// crash images.
    pub fn persist_cycles(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self.persists.iter().map(|e| e.cycle).collect();
        cycles.push(0);
        cycles.push(self.horizon() + 1);
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }
}

/// Reconstructs the NVM contents observable after a crash at
/// `crash_cycle` (inclusive), as a map from 8-byte-aligned word address to
/// value ([`WordMap`]). Words never persisted are absent (read as their
/// initial value).
///
/// Stores at the crash cycle are applied before persists at the same
/// cycle, matching the simulator's intra-cycle ordering (a persist
/// admission snapshots the line as of that cycle's visible stores).
///
/// This is one [`ImageCursor`] moved once, so it replays the trace from
/// cycle 0; a sweep over ascending crash cycles should move one cursor
/// instead.
///
/// # Example
///
/// ```
/// use ede_mem::trace::{nvm_image_at, PersistEvent, PersistTrace, StoreEvent};
///
/// let mut t = PersistTrace::default();
/// t.record_store(StoreEvent { cycle: 10, addr: 0x1000, width: 8, value: [42, 0] });
/// t.record_persist(PersistEvent { cycle: 20, line: 0x1000 });
///
/// assert!(nvm_image_at(&t, 15, 64).is_empty());      // visible but not persistent
/// assert_eq!(nvm_image_at(&t, 20, 64)[&0x1000], 42); // persisted at 20
/// ```
pub fn nvm_image_at(trace: &PersistTrace, crash_cycle: u64, line_bytes: u64) -> WordMap {
    let mut cursor = ImageCursor::new(trace, line_bytes);
    cursor.advance_to(crash_cycle);
    cursor.image
}

/// A forward cursor over a [`PersistTrace`]: it replays the store and
/// persist events in order and holds the NVM image a crash at the last
/// cycle it was moved to leaves behind, with the same semantics as
/// [`nvm_image_at`]. Moving it through ascending crash cycles costs one
/// pass over the trace in total.
///
/// # Example
///
/// ```
/// use ede_mem::trace::{ImageCursor, PersistEvent, PersistTrace, StoreEvent};
///
/// let mut t = PersistTrace::default();
/// t.record_store(StoreEvent { cycle: 10, addr: 0x1000, width: 8, value: [42, 0] });
/// t.record_persist(PersistEvent { cycle: 20, line: 0x1000 });
///
/// let mut cursor = ImageCursor::new(&t, 64);
/// assert!(cursor.advance_to(15).is_empty());
/// assert_eq!(cursor.advance_to(20)[&0x1000], 42);
/// ```
#[derive(Debug)]
pub struct ImageCursor<'t> {
    trace: &'t PersistTrace,
    line_bytes: u64,
    /// Stores and persists applied so far.
    stores: usize,
    persists: usize,
    /// The last crash cycle moved to.
    at: Option<u64>,
    /// Volatile view: word address → value, updated by stores.
    volatile: WordMap,
    /// Persistent image.
    image: WordMap,
}

impl<'t> ImageCursor<'t> {
    /// A cursor before every event of `trace`, persisting `line_bytes`
    /// per persist event.
    pub fn new(trace: &'t PersistTrace, line_bytes: u64) -> ImageCursor<'t> {
        ImageCursor {
            trace,
            line_bytes,
            stores: 0,
            persists: 0,
            at: None,
            volatile: WordMap::default(),
            image: WordMap::default(),
        }
    }

    /// Applies every event at or before `crash_cycle` not applied yet and
    /// returns the crash image at `crash_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `crash_cycle` is earlier than a cycle the cursor was
    /// already moved to: it only moves forward.
    pub fn advance_to(&mut self, crash_cycle: u64) -> &WordMap {
        assert!(
            self.at.is_none_or(|at| at <= crash_cycle),
            "image cursor moved back from cycle {:?} to {crash_cycle}",
            self.at
        );
        self.at = Some(crash_cycle);
        let (stores, persists) = (&self.trace.stores, &self.trace.persists);
        loop {
            let s = stores.get(self.stores).filter(|e| e.cycle <= crash_cycle);
            let p = persists
                .get(self.persists)
                .filter(|e| e.cycle <= crash_cycle);
            let take_store = match (s, p) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(se), Some(pe)) => se.cycle <= pe.cycle,
            };
            if take_store {
                let se = s.expect("store present");
                self.volatile.insert(se.addr, se.value[0]);
                if se.width == 16 {
                    self.volatile.insert(se.addr + 8, se.value[1]);
                }
                self.stores += 1;
            } else {
                let pe = p.expect("persist present");
                for off in (0..self.line_bytes).step_by(8) {
                    let w = pe.line + off;
                    if let Some(&v) = self.volatile.get(&w) {
                        self.image.insert(w, v);
                    }
                }
                self.persists += 1;
            }
        }
        &self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(cycle: u64, addr: u64, value: u64) -> StoreEvent {
        StoreEvent {
            cycle,
            addr,
            width: 8,
            value: [value, 0],
        }
    }

    #[test]
    fn unpersisted_store_invisible() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        let img = nvm_image_at(&t, 100, 64);
        assert!(img.is_empty());
    }

    #[test]
    fn persist_snapshots_line_contents() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_store(st(6, 0x108, 2));
        t.record_store(st(7, 0x140, 3)); // different line
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x100,
        });
        let img = nvm_image_at(&t, 10, 64);
        assert_eq!(img.get(&0x100), Some(&1));
        assert_eq!(img.get(&0x108), Some(&2));
        assert_eq!(img.get(&0x140), None);
    }

    #[test]
    fn later_store_not_included_in_earlier_persist() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x100,
        });
        t.record_store(st(15, 0x100, 2));
        // Crash after the second store but before any re-persist.
        let img = nvm_image_at(&t, 20, 64);
        assert_eq!(img.get(&0x100), Some(&1));
    }

    #[test]
    fn repersist_updates_image() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x100,
        });
        t.record_store(st(15, 0x100, 2));
        t.record_persist(PersistEvent {
            cycle: 20,
            line: 0x100,
        });
        assert_eq!(nvm_image_at(&t, 19, 64).get(&0x100), Some(&1));
        assert_eq!(nvm_image_at(&t, 20, 64).get(&0x100), Some(&2));
    }

    #[test]
    fn same_cycle_store_then_persist() {
        let mut t = PersistTrace::default();
        t.record_store(st(10, 0x100, 7));
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x100,
        });
        assert_eq!(nvm_image_at(&t, 10, 64).get(&0x100), Some(&7));
    }

    #[test]
    fn stp_persists_both_words() {
        let mut t = PersistTrace::default();
        t.record_store(StoreEvent {
            cycle: 1,
            addr: 0x200,
            width: 16,
            value: [11, 22],
        });
        t.record_persist(PersistEvent {
            cycle: 2,
            line: 0x200,
        });
        let img = nvm_image_at(&t, 2, 64);
        assert_eq!(img.get(&0x200), Some(&11));
        assert_eq!(img.get(&0x208), Some(&22));
    }

    #[test]
    fn persist_cycles_cover_every_distinct_image() {
        let mut t = PersistTrace::default();
        t.record_store(st(5, 0x100, 1));
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x100,
        });
        t.record_persist(PersistEvent {
            cycle: 10,
            line: 0x140,
        });
        t.record_store(st(15, 0x100, 2));
        t.record_persist(PersistEvent {
            cycle: 20,
            line: 0x100,
        });
        // 0 (empty), 10 (dedup of the two same-cycle persists), 20, and
        // one past the horizon.
        assert_eq!(t.persist_cycles(), vec![0, 10, 20, 21]);
        assert_eq!(PersistTrace::default().persist_cycles(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "moved back")]
    fn cursor_only_moves_forward() {
        let t = PersistTrace::default();
        let mut cursor = ImageCursor::new(&t, 64);
        cursor.advance_to(10);
        cursor.advance_to(9);
    }

    #[test]
    fn crash_before_everything_is_empty() {
        let mut t = PersistTrace::default();
        t.record_store(st(10, 0x100, 1));
        t.record_persist(PersistEvent {
            cycle: 11,
            line: 0x100,
        });
        assert!(nvm_image_at(&t, 9, 64).is_empty());
        assert_eq!(t.horizon(), 11);
    }
}
