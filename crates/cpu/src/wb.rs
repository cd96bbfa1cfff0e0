//! The post-retirement write buffer.
//!
//! Retired stores and `DC CVAP`s sit here until the memory system accepts
//! them; this is where the *WB* design enforces EDE ordering (§V-D):
//!
//! * every entry carries up to two `srcID` tags naming the producers it
//!   must wait for; a tag is cleared when that producer completes;
//! * `JOIN` occupies a dataless entry that leaves once both tags clear;
//! * a `DMB ST` barrier token keeps younger *stores* (not `DC CVAP`s —
//!   the SU configuration's unsafety) from draining until every older
//!   store has drained;
//! * entries to the same cache line drain in program order, preserving
//!   the memory dependence between a store and the `DC CVAP` that
//!   persists it (Figure 5, lines 6→7).

use ede_isa::InstId;

/// What a write-buffer entry represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WbKind {
    /// A retired store's data.
    Store {
        /// Destination address.
        addr: u64,
        /// Width in bytes (8 or 16).
        width: u8,
        /// The stored word(s).
        value: [u64; 2],
    },
    /// A retired `DC CVAP` awaiting its persist acknowledgement.
    Cvap {
        /// The line address to clean.
        addr: u64,
    },
    /// A `JOIN` control entry (dataless; completes when tags clear).
    Join,
    /// A `DMB ST` store-ordering token.
    StBarrier,
}

impl WbKind {
    /// The memory address the entry touches, if any.
    pub fn addr(&self) -> Option<u64> {
        match *self {
            WbKind::Store { addr, .. } | WbKind::Cvap { addr } => Some(addr),
            WbKind::Join | WbKind::StBarrier => None,
        }
    }

    fn is_store(&self) -> bool {
        matches!(self, WbKind::Store { .. })
    }

    /// Whether the entry is a control entry (`JOIN` or `DMB ST` token),
    /// which leaves through [`WriteBuffer::take_finished_controls`].
    fn is_control(&self) -> bool {
        matches!(self, WbKind::Join | WbKind::StBarrier)
    }
}

/// Drain state of an entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WbState {
    Waiting,
    Draining,
}

/// One write-buffer entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WbEntry {
    /// The retired instruction this entry belongs to.
    pub id: InstId,
    /// Payload.
    pub kind: WbKind,
    /// Outstanding `srcID` tags (§V-D); drain is held until both are
    /// `None`.
    pub srcs: [Option<InstId>; 2],
    state: WbState,
}

/// The write buffer: a bounded, program-ordered queue with out-of-order
/// drain subject to the ordering rules above.
///
/// The drain-eligible list is cached and recomputed only after a change
/// that can alter it: a push, a cleared tag, a drain start or a removal.
/// A count of live tags lets [`clear_src`](Self::clear_src) return at
/// once when no entry waits on anything, and a count of control entries
/// lets [`take_finished_controls`](Self::take_finished_controls) return
/// at once when there are none.
///
/// # Example
///
/// ```
/// use ede_cpu::wb::{WbKind, WriteBuffer};
/// use ede_isa::InstId;
///
/// let mut wb = WriteBuffer::new(4);
/// wb.push(InstId(1), WbKind::Store { addr: 0x40, width: 8, value: [1, 0] }, [None, None]);
/// wb.push(
///     InstId(2),
///     WbKind::Store { addr: 0x80, width: 8, value: [2, 0] },
///     [Some(InstId(1)), None], // consumer of instruction 1
/// );
/// // Only the first store may drain; the second waits on its srcID.
/// let mut ready = Vec::new();
/// wb.drainable(64, &mut ready);
/// assert_eq!(ready, [InstId(1)]);
/// wb.clear_src(InstId(1));
/// wb.drainable(64, &mut ready);
/// assert_eq!(ready, [InstId(1), InstId(2)]);
/// ```
#[derive(Clone, Debug)]
pub struct WriteBuffer {
    entries: Vec<WbEntry>,
    capacity: usize,
    reorder_same_line: bool,
    /// `srcID` tags still set, over every entry.
    live_tags: usize,
    /// `JOIN` and `DMB ST` entries in the buffer.
    controls: usize,
    /// The drain-eligible entries as of the last scan, in buffer order.
    drain: Vec<InstId>,
    /// The line shift `drain` was computed with, if it is still current.
    drain_shift: Option<u32>,
    /// The lines of the memory entries a scan has passed (reused).
    lines: Vec<u64>,
}

impl WriteBuffer {
    /// A buffer with `capacity` entries.
    pub fn new(capacity: usize) -> WriteBuffer {
        let mut wb = WriteBuffer {
            entries: Vec::new(),
            capacity: 0,
            reorder_same_line: false,
            live_tags: 0,
            controls: 0,
            drain: Vec::new(),
            drain_shift: None,
            lines: Vec::new(),
        };
        wb.reset(capacity);
        wb
    }

    /// Empties the buffer and gives it `capacity` entries and the
    /// program-order same-line drain rule, keeping its storage.
    pub fn reset(&mut self, capacity: usize) {
        let WriteBuffer {
            entries,
            capacity: cap,
            reorder_same_line,
            live_tags,
            controls,
            drain,
            drain_shift,
            lines,
        } = self;
        entries.clear();
        *cap = capacity;
        *reorder_same_line = false;
        *live_tags = 0;
        *controls = 0;
        drain.clear();
        *drain_shift = None;
        lines.clear();
    }

    /// Fault injection (`ReorderWriteBuffer`): disable the same-line
    /// program-order drain rule, letting a `DC CVAP` overtake the store
    /// it is supposed to persist. Only the conformance self-tests set
    /// this.
    pub fn set_reorder_same_line(&mut self, on: bool) {
        self.reorder_same_line = on;
        self.drain_shift = None;
    }

    /// Whether another entry fits.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Deposits a retired instruction's entry.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full (the caller must check
    /// [`has_space`](Self::has_space) before retiring the instruction).
    pub fn push(&mut self, id: InstId, kind: WbKind, srcs: [Option<InstId>; 2]) {
        assert!(self.has_space(), "write buffer overflow");
        self.live_tags += srcs.iter().flatten().count();
        self.controls += usize::from(kind.is_control());
        self.drain_shift = None;
        self.entries.push(WbEntry {
            id,
            kind,
            srcs,
            state: WbState::Waiting,
        });
    }

    /// Clears every `srcID` tag naming `producer` — the broadcast the
    /// paper performs when an entry is pushed to memory or otherwise
    /// completes.
    pub fn clear_src(&mut self, producer: InstId) {
        if self.live_tags == 0 {
            return;
        }
        for e in &mut self.entries {
            for s in &mut e.srcs {
                if *s == Some(producer) {
                    *s = None;
                    self.live_tags -= 1;
                    self.drain_shift = None;
                }
            }
        }
    }

    fn srcs_clear(e: &WbEntry) -> bool {
        e.srcs.iter().all(Option::is_none)
    }

    /// Replaces `out` with the entries (IDs, in buffer order) eligible to
    /// start draining now: memory entries whose tags are clear, not
    /// blocked by an older `DMB ST` token (stores only) or an older
    /// same-line entry.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn drainable(&mut self, line_bytes: u64, out: &mut Vec<InstId>) {
        assert!(
            line_bytes.is_power_of_two(),
            "line size {line_bytes} is not a power of two"
        );
        let shift = line_bytes.trailing_zeros();
        if self.drain_shift != Some(shift) {
            self.scan(shift);
        }
        out.clear();
        out.extend_from_slice(&self.drain);
    }

    /// Recomputes the drain-eligible list for lines of `1 << shift` bytes.
    fn scan(&mut self, shift: u32) {
        // The lines of every older memory entry, draining or not: an
        // entry may not overtake any of them.
        self.lines.clear();
        let mut barrier_seen = false;
        self.drain.clear();
        for e in &self.entries {
            let addr = match e.kind {
                WbKind::StBarrier => {
                    barrier_seen = true;
                    continue;
                }
                WbKind::Join => continue,
                WbKind::Store { addr, .. } | WbKind::Cvap { addr } => addr,
            };
            let line = addr >> shift;
            let blocked = e.state != WbState::Waiting
                || !Self::srcs_clear(e)
                || (barrier_seen && e.kind.is_store())
                || (!self.reorder_same_line && self.lines.contains(&line));
            if !blocked {
                self.drain.push(e.id);
            }
            self.lines.push(line);
        }
        self.drain_shift = Some(shift);
    }

    /// Marks an entry as draining (request sent to memory).
    ///
    /// # Panics
    ///
    /// Panics if the entry is unknown.
    pub fn mark_draining(&mut self, id: InstId) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.id == id)
            .expect("unknown write-buffer entry");
        e.state = WbState::Draining;
        self.drain_shift = None;
    }

    /// Removes a completed memory entry (its drain response arrived).
    ///
    /// # Panics
    ///
    /// Panics if the entry is unknown.
    pub fn complete(&mut self, id: InstId) {
        let pos = self
            .entries
            .iter()
            .position(|e| e.id == id)
            .expect("unknown write-buffer entry");
        self.remove(pos);
    }

    /// Removes the entry at `pos`, keeping the tag and control counts.
    fn remove(&mut self, pos: usize) -> WbEntry {
        let e = self.entries.remove(pos);
        self.live_tags -= e.srcs.iter().flatten().count();
        self.controls -= usize::from(e.kind.is_control());
        self.drain_shift = None;
        e
    }

    /// Removes the control entries that have become complete — `JOIN`s
    /// with clear tags and `DMB ST` tokens with no older store — and
    /// replaces `finished` with their IDs, in removal order.
    pub fn take_finished_controls(&mut self, finished: &mut Vec<InstId>) {
        finished.clear();
        debug_assert_eq!(
            self.controls,
            self.entries.iter().filter(|e| e.kind.is_control()).count(),
            "control count drifted from the entries"
        );
        while self.controls > 0 {
            let mut idx = None;
            for (i, e) in self.entries.iter().enumerate() {
                match e.kind {
                    WbKind::Join if Self::srcs_clear(e) => {
                        idx = Some(i);
                        break;
                    }
                    WbKind::StBarrier => {
                        let older_store = self.entries[..i].iter().any(|o| o.kind.is_store());
                        if !older_store {
                            idx = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match idx {
                Some(i) => finished.push(self.remove(i).id),
                None => break,
            }
        }
    }

    /// The entries, oldest first (for inspection/tests).
    pub fn entries(&self) -> &[WbEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drainable(wb: &mut WriteBuffer) -> Vec<InstId> {
        let mut out = vec![InstId(99)];
        wb.drainable(64, &mut out);
        out
    }

    fn finished(wb: &mut WriteBuffer) -> Vec<InstId> {
        let mut out = vec![InstId(99)];
        wb.take_finished_controls(&mut out);
        out
    }

    fn store(addr: u64) -> WbKind {
        WbKind::Store {
            addr,
            width: 8,
            value: [0, 0],
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut wb = WriteBuffer::new(1);
        wb.push(InstId(0), store(0x40), [None, None]);
        assert!(!wb.has_space());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut wb = WriteBuffer::new(1);
        wb.push(InstId(0), store(0x40), [None, None]);
        wb.push(InstId(1), store(0x80), [None, None]);
    }

    #[test]
    fn independent_entries_drain_out_of_order() {
        let mut wb = WriteBuffer::new(4);
        wb.push(InstId(0), store(0x000), [Some(InstId(9)), None]);
        wb.push(InstId(1), store(0x100), [None, None]);
        // Entry 0 is blocked on a srcID, entry 1 is free: out-of-order OK.
        assert_eq!(drainable(&mut wb), vec![InstId(1)]);
    }

    #[test]
    fn same_line_drains_in_order() {
        let mut wb = WriteBuffer::new(4);
        wb.push(InstId(0), store(0x40), [None, None]);
        wb.push(InstId(1), WbKind::Cvap { addr: 0x48 }, [None, None]);
        assert_eq!(drainable(&mut wb), vec![InstId(0)]);
        wb.mark_draining(InstId(0));
        // Still blocked: the older store hasn't completed.
        assert_eq!(drainable(&mut wb), Vec::<InstId>::new());
        wb.complete(InstId(0));
        assert_eq!(drainable(&mut wb), vec![InstId(1)]);
    }

    #[test]
    fn st_barrier_blocks_stores_not_cvaps() {
        let mut wb = WriteBuffer::new(8);
        wb.push(InstId(0), store(0x40), [None, None]);
        wb.push(InstId(1), WbKind::StBarrier, [None, None]);
        wb.push(InstId(2), store(0x100), [None, None]);
        wb.push(InstId(3), WbKind::Cvap { addr: 0x200 }, [None, None]);
        // The younger store is held; the CVAP sails past (SU's unsafety).
        assert_eq!(drainable(&mut wb), vec![InstId(0), InstId(3)]);
        wb.mark_draining(InstId(0));
        wb.complete(InstId(0));
        // Barrier token now completes, releasing the younger store.
        assert_eq!(finished(&mut wb), vec![InstId(1)]);
        assert!(drainable(&mut wb).contains(&InstId(2)));
    }

    #[test]
    fn reorder_fault_breaks_same_line_order() {
        let mut wb = WriteBuffer::new(4);
        wb.set_reorder_same_line(true);
        wb.push(InstId(0), store(0x40), [None, None]);
        wb.push(InstId(1), WbKind::Cvap { addr: 0x48 }, [None, None]);
        // The faulty buffer lets the CVAP overtake its own store.
        assert_eq!(drainable(&mut wb), vec![InstId(0), InstId(1)]);
    }

    #[test]
    fn join_completes_when_tags_clear() {
        let mut wb = WriteBuffer::new(4);
        wb.push(InstId(5), WbKind::Join, [Some(InstId(1)), Some(InstId(2))]);
        assert!(finished(&mut wb).is_empty());
        wb.clear_src(InstId(1));
        assert!(finished(&mut wb).is_empty());
        wb.clear_src(InstId(2));
        assert_eq!(finished(&mut wb), vec![InstId(5)]);
        assert!(wb.is_empty());
    }

    #[test]
    fn src_tag_holds_drain_until_cleared() {
        let mut wb = WriteBuffer::new(4);
        wb.push(
            InstId(3),
            WbKind::Cvap { addr: 0x40 },
            [Some(InstId(1)), None],
        );
        assert!(drainable(&mut wb).is_empty());
        wb.clear_src(InstId(1));
        assert_eq!(drainable(&mut wb), vec![InstId(3)]);
    }

    #[test]
    fn chained_controls_finish_in_one_call() {
        let mut wb = WriteBuffer::new(4);
        wb.push(InstId(0), WbKind::StBarrier, [None, None]);
        wb.push(InstId(1), WbKind::Join, [None, None]);
        let done = finished(&mut wb);
        assert_eq!(done.len(), 2);
        assert!(wb.is_empty());
    }
}
