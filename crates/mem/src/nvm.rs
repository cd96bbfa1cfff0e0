//! The NVM device model: a persistent on-DIMM buffer in front of slow
//! media.
//!
//! Writes that reach the buffer are *persistent* (the ADR domain of
//! §VI-A): the persist acknowledgement that completes a `DC CVAP` is sent
//! at buffer insertion, while the expensive media write (500 ns per
//! 256-byte device line) drains asynchronously. The buffer *coalesces*:
//! a write to a device line that already has a waiting slot merges into
//! it. When all 128 slots are occupied, new writes queue and their persist
//! acknowledgements are delayed — the back-pressure that lets a fence-free
//! configuration fill the buffer (Figure 10).

use std::collections::VecDeque;

/// Outcome of offering a cache-line write to the persist buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The write is persistent as of now (new slot or coalesced into an
    /// existing waiting slot).
    Persisted,
    /// The buffer is full; the write is queued and will persist when a
    /// slot frees.
    Queued,
}

/// A queued write waiting for buffer space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PendingWrite {
    /// Cache-line-aligned source address (64-byte granularity).
    pub cache_line: u64,
    /// Opaque token the caller uses to resume its bookkeeping (e.g. the
    /// memory request to acknowledge). `u64::MAX` conventionally marks
    /// "no token" (evictions).
    pub token: u64,
}

/// Result of a media-write completion.
#[derive(Clone, Debug, Default)]
pub struct DrainResult {
    /// Queued writes that became persistent because slots freed, in queue
    /// order.
    pub newly_persisted: Vec<PendingWrite>,
    /// Media writes started as a consequence; the caller must schedule a
    /// [`PersistBuffer::media_write_done`] for each, `write_latency`
    /// cycles from now.
    pub writes_started: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// Waiting for a media writer; still accepts coalescing merges.
    Waiting,
    /// Being written to media; merges must allocate a fresh slot.
    Draining,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    nvm_line: u64,
    state: SlotState,
}

/// The persistent on-DIMM write buffer (Table I: 128 slots, 256-byte
/// lines).
///
/// The owner supplies the clock and the event queue: every media write
/// this type *starts* (reported via return values) must be completed by
/// calling [`media_write_done`](Self::media_write_done) exactly
/// `write_latency` cycles later.
///
/// # Example
///
/// ```
/// use ede_mem::nvm::{InsertOutcome, PersistBuffer};
///
/// let mut buf = PersistBuffer::new(2, 1, 256);
/// let (o1, started) = buf.try_insert(0x1_0000_0000, 1);
/// assert_eq!(o1, InsertOutcome::Persisted);
/// assert_eq!(started, 1); // one media writer went busy
/// // Same device line coalesces while waiting… but this one is draining,
/// // so a second line fills the second slot:
/// let (o2, _) = buf.try_insert(0x1_0000_0100, 2);
/// assert_eq!(o2, InsertOutcome::Persisted);
/// // Buffer full: the third write queues.
/// let (o3, _) = buf.try_insert(0x1_0000_0200, 3);
/// assert_eq!(o3, InsertOutcome::Queued);
/// ```
#[derive(Clone, Debug)]
pub struct PersistBuffer {
    capacity: usize,
    media_writers: usize,
    nvm_line_bytes: u64,
    /// Occupied slots in insertion order (drain is FIFO).
    slots: VecDeque<Slot>,
    pending: VecDeque<PendingWrite>,
    busy_writers: usize,
    /// Histogram of occupancy sampled at each media-write completion
    /// (Figure 10's measurement): index = occupied slots, value = samples.
    occupancy_hist: Vec<u64>,
    inserts: u64,
    merges: u64,
    media_writes: u64,
}

impl PersistBuffer {
    /// Creates a buffer with `capacity` slots drained by `media_writers`
    /// concurrent writers, coalescing at `nvm_line_bytes` granularity.
    pub fn new(capacity: usize, media_writers: usize, nvm_line_bytes: u64) -> PersistBuffer {
        let mut buffer = PersistBuffer {
            capacity: 0,
            media_writers: 0,
            nvm_line_bytes: 0,
            slots: VecDeque::new(),
            pending: VecDeque::new(),
            busy_writers: 0,
            occupancy_hist: Vec::new(),
            inserts: 0,
            merges: 0,
            media_writes: 0,
        };
        buffer.reset(capacity, media_writers, nvm_line_bytes);
        buffer
    }

    /// Empties the buffer, zeroes its counters and histogram and gives it
    /// a new shape, keeping the storage of its queues.
    pub fn reset(&mut self, capacity: usize, media_writers: usize, nvm_line_bytes: u64) {
        let PersistBuffer {
            capacity: slots_cap,
            media_writers: writers,
            nvm_line_bytes: line_bytes,
            slots,
            pending,
            busy_writers,
            occupancy_hist,
            inserts,
            merges,
            media_writes,
        } = self;
        *slots_cap = capacity;
        *writers = media_writers;
        *line_bytes = nvm_line_bytes;
        slots.clear();
        pending.clear();
        *busy_writers = 0;
        occupancy_hist.clear();
        occupancy_hist.resize(capacity + 1, 0);
        *inserts = 0;
        *merges = 0;
        *media_writes = 0;
    }

    fn nvm_line_of(&self, addr: u64) -> u64 {
        addr & !(self.nvm_line_bytes - 1)
    }

    /// Starts media writes while writers and waiting slots are available;
    /// returns how many were started.
    fn start_writes(&mut self) -> usize {
        let mut started = 0;
        while self.busy_writers < self.media_writers {
            let Some(slot) = self
                .slots
                .iter_mut()
                .find(|s| s.state == SlotState::Waiting)
            else {
                break;
            };
            slot.state = SlotState::Draining;
            self.busy_writers += 1;
            started += 1;
        }
        started
    }

    /// Offers the 64-byte cache line at `cache_line` to the buffer with an
    /// opaque completion `token`.
    ///
    /// Returns the outcome and the number of media writes started (each
    /// needs a `media_write_done` scheduled `write_latency` cycles out).
    pub fn try_insert(&mut self, cache_line: u64, token: u64) -> (InsertOutcome, usize) {
        self.inserts += 1;
        let nvm_line = self.nvm_line_of(cache_line);
        // Coalesce into a waiting slot for the same device line.
        if self
            .slots
            .iter()
            .any(|s| s.nvm_line == nvm_line && s.state == SlotState::Waiting)
        {
            self.merges += 1;
            return (InsertOutcome::Persisted, 0);
        }
        if self.slots.len() < self.capacity {
            self.slots.push_back(Slot {
                nvm_line,
                state: SlotState::Waiting,
            });
            let started = self.start_writes();
            (InsertOutcome::Persisted, started)
        } else {
            self.pending.push_back(PendingWrite { cache_line, token });
            (InsertOutcome::Queued, 0)
        }
    }

    /// Completes one media write: frees the oldest draining slot, samples
    /// occupancy, admits queued writes, and starts more media writes.
    ///
    /// # Panics
    ///
    /// Panics if no media write was in flight.
    pub fn media_write_done(&mut self) -> DrainResult {
        let pos = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Draining)
            .expect("media_write_done with no draining slot");
        self.slots.remove(pos);
        self.busy_writers -= 1;
        self.media_writes += 1;
        self.occupancy_hist[self.slots.len().min(self.capacity)] += 1;

        let mut result = DrainResult::default();
        // Admit queued writes while space remains; a queued write whose
        // device line already has a waiting slot coalesces even when full.
        while let Some(p) = self.pending.front().copied() {
            let nvm_line = self.nvm_line_of(p.cache_line);
            let coalesces = self
                .slots
                .iter()
                .any(|s| s.nvm_line == nvm_line && s.state == SlotState::Waiting);
            if !coalesces && self.slots.len() >= self.capacity {
                break;
            }
            self.pending.pop_front();
            if coalesces {
                self.merges += 1;
            } else {
                self.slots.push_back(Slot {
                    nvm_line,
                    state: SlotState::Waiting,
                });
            }
            result.newly_persisted.push(p);
        }
        result.writes_started = self.start_writes();
        result
    }

    /// Whether the buffer holds a slot for the device line at `nvm_line`
    /// (used by the read path: a buffered line is served from the DIMM
    /// buffer, not the slow media array).
    pub fn contains_line(&self, nvm_line: u64) -> bool {
        self.slots.iter().any(|s| s.nvm_line == nvm_line)
    }

    /// Occupied slots right now (waiting + draining).
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Queued writes awaiting space.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Whether any media write is in flight.
    pub fn draining(&self) -> bool {
        self.busy_writers > 0
    }

    /// The occupancy histogram sampled at media-write completions
    /// (Figure 10). `hist[n]` = samples observing `n` pending writes.
    pub fn occupancy_histogram(&self) -> &[u64] {
        &self.occupancy_hist
    }

    /// `(inserts, coalescing merges, media writes)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.inserts, self.merges, self.media_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NVM: u64 = 0x1_0000_0000;

    #[test]
    fn insert_persists_and_starts_writer() {
        let mut b = PersistBuffer::new(128, 4, 256);
        let (o, started) = b.try_insert(NVM, 0);
        assert_eq!(o, InsertOutcome::Persisted);
        assert_eq!(started, 1);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn coalescing_same_device_line() {
        let mut b = PersistBuffer::new(128, 1, 256);
        // First insert starts draining (writer free), so it can't merge…
        b.try_insert(NVM, 0);
        // …second one allocates a waiting slot for the same device line.
        let (o, s) = b.try_insert(NVM + 64, 1);
        assert_eq!((o, s), (InsertOutcome::Persisted, 0));
        assert_eq!(b.occupancy(), 2);
        // Third to the same device line merges into the waiting slot.
        let (o, s) = b.try_insert(NVM + 128, 2);
        assert_eq!((o, s), (InsertOutcome::Persisted, 0));
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.counters().1, 1); // one merge
    }

    #[test]
    fn full_buffer_queues_and_drains_fifo() {
        let mut b = PersistBuffer::new(2, 1, 256);
        b.try_insert(NVM, 0);
        b.try_insert(NVM + 0x100, 1);
        let (o, _) = b.try_insert(NVM + 0x200, 2);
        assert_eq!(o, InsertOutcome::Queued);
        let (o, _) = b.try_insert(NVM + 0x300, 3);
        assert_eq!(o, InsertOutcome::Queued);
        assert_eq!(b.queued(), 2);

        let r = b.media_write_done();
        // One slot freed: exactly one queued write admitted, in order.
        assert_eq!(r.newly_persisted.len(), 1);
        assert_eq!(r.newly_persisted[0].token, 2);
        assert_eq!(r.writes_started, 1);
        assert_eq!(b.queued(), 1);
    }

    #[test]
    fn occupancy_sampled_at_media_writes() {
        let mut b = PersistBuffer::new(4, 1, 256);
        b.try_insert(NVM, 0);
        b.try_insert(NVM + 0x100, 1);
        b.try_insert(NVM + 0x200, 2);
        b.media_write_done();
        let hist = b.occupancy_histogram();
        // After freeing one of three slots, two remain.
        assert_eq!(hist[2], 1);
        assert_eq!(hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn writers_capped() {
        let mut b = PersistBuffer::new(128, 2, 256);
        let mut started = 0;
        for i in 0..5 {
            started += b.try_insert(NVM + i * 0x100, i).1;
        }
        assert_eq!(started, 2);
        let r = b.media_write_done();
        assert_eq!(r.writes_started, 1); // a writer freed, picks next slot
    }

    #[test]
    fn queued_write_coalesces_on_admission() {
        let mut b = PersistBuffer::new(1, 1, 256);
        b.try_insert(NVM, 0); // slot 0, draining
        b.try_insert(NVM + 0x100, 1); // queued
        b.try_insert(NVM + 0x100, 2); // queued, same device line
        let r = b.media_write_done();
        // Both queued writes persist: first allocates, second merges.
        assert_eq!(r.newly_persisted.len(), 2);
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.counters().1, 1);
    }

    #[test]
    #[should_panic(expected = "no draining slot")]
    fn spurious_completion_panics() {
        let mut b = PersistBuffer::new(2, 1, 256);
        b.media_write_done();
    }
}
