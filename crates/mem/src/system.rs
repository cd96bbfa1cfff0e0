//! The memory system: caches + controller + DRAM/NVM devices.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::fault::FaultInjection;
use crate::nvm::{InsertOutcome, PersistBuffer};
use crate::stats::MemStats;
use crate::trace::{PersistEvent, PersistTrace, StoreEvent};
use ede_util::obs::IndexedNames;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::LazyLock;

/// Identifies one in-flight memory request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

/// A request offered to [`MemSystem::try_access`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// A demand load.
    Load,
    /// A retired store draining from the core's write buffer; carries its
    /// data for the persist trace. `width` is 8 or 16 bytes.
    StoreDrain {
        /// Stored word(s).
        value: [u64; 2],
        /// Width in bytes (8 or 16).
        width: u8,
    },
    /// A `DC CVAP` clean-to-point-of-persistence; the response is the
    /// persist acknowledgement.
    Cvap,
}

/// A completed request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemResp {
    /// The request this completes.
    pub id: ReqId,
    /// The request's address.
    pub addr: u64,
    /// The cycle the response is delivered.
    pub cycle: u64,
}

/// A memory system that cannot go idle: requests are still counted
/// outstanding, but no scheduled event is left to answer them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DrainError {
    /// The cycle the drain stopped at.
    pub at: u64,
    /// Requests still counted outstanding.
    pub outstanding: usize,
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory system stuck at cycle {}: {} requests outstanding and no event pending",
            self.at, self.outstanding
        )
    }
}

impl std::error::Error for DrainError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    Resp(ReqId, u64),
    MediaDone,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Event {
    cycle: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cycle, self.seq).cmp(&(other.cycle, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The full memory system of Table I.
///
/// Drive it by calling [`try_access`](Self::try_access) to submit requests
/// and [`tick`](Self::tick) once per cycle to collect completions. State
/// (cache contents, persist-buffer slots) updates eagerly at request time;
/// responses are delivered after the modeled latency.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    buffer: PersistBuffer,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    next_req: u64,
    outstanding: usize,
    /// Cvap requests whose persist is queued on a full buffer:
    /// token → (request, line address).
    waiting_cvaps: HashMap<u64, (ReqId, u64)>,
    next_token: u64,
    trace: PersistTrace,
    stats: MemStats,
    /// `DC CVAP` requests seen so far (occurrence index for
    /// [`FaultInjection::StuckCvap`]).
    cvap_count: u32,
    /// Persist events recorded so far (occurrence index for
    /// [`FaultInjection::DropPersist`]).
    persist_count: u32,
    /// Times the configured fault actually fired (a campaign that never
    /// hits its fault site proves nothing — see `ede-check`'s coverage
    /// accounting).
    fault_hits: u64,
}

/// Token marking persist-buffer writes with no waiting requester
/// (dirty-eviction writebacks).
const EVICTION_TOKEN: u64 = u64::MAX;

/// Occupancy buckets tabled by name: one per depth of the default 128
/// persist slots.
const OCCUPANCY_BUCKETS: usize = 129;

/// `mem.pb.occupancy_hist.<n>`, tabled up to the default 128 persist
/// slots.
static OCCUPANCY_NAMES: IndexedNames =
    IndexedNames::new("mem.pb.occupancy_hist.", OCCUPANCY_BUCKETS);

/// The tabled occupancy buckets in the order of their names
/// (`…occupancy_hist.10` sorts before `….2`), so [`MemSystem::report`]
/// appends each to its registry. Sorted once per process, not once per
/// run.
static OCCUPANCY_ORDER: LazyLock<Vec<usize>> = LazyLock::new(|| {
    let mut order: Vec<usize> = (0..OCCUPANCY_BUCKETS).collect();
    order.sort_unstable_by_key(|&n| OCCUPANCY_NAMES.get(n));
    order
});

impl MemSystem {
    /// Builds the system from a configuration.
    pub fn new(cfg: MemConfig) -> MemSystem {
        let mut mem = MemSystem {
            l1: Cache::new(&cfg.l1d, cfg.line_bytes),
            l2: Cache::new(&cfg.l2, cfg.line_bytes),
            l3: Cache::new(&cfg.l3, cfg.line_bytes),
            buffer: PersistBuffer::new(0, 0, 0),
            events: BinaryHeap::new(),
            next_seq: 0,
            next_req: 0,
            outstanding: 0,
            waiting_cvaps: HashMap::new(),
            next_token: 0,
            trace: PersistTrace::default(),
            stats: MemStats::default(),
            cvap_count: 0,
            persist_count: 0,
            fault_hits: 0,
            cfg,
        };
        let cfg = mem.cfg.clone();
        mem.reset(&cfg);
        mem
    }

    /// Returns the system to the state [`new`](Self::new) builds for
    /// `cfg`: empty caches, an empty persist buffer, no request in
    /// flight, an empty trace and zeroed counters. Storage is kept, and a
    /// cache is reshaped only when its geometry changes.
    pub fn reset(&mut self, cfg: &MemConfig) {
        let MemSystem {
            cfg: own,
            l1,
            l2,
            l3,
            buffer,
            events,
            next_seq,
            next_req,
            outstanding,
            waiting_cvaps,
            next_token,
            trace,
            stats,
            cvap_count,
            persist_count,
            fault_hits,
        } = self;
        l1.reset(&cfg.l1d, cfg.line_bytes);
        l2.reset(&cfg.l2, cfg.line_bytes);
        l3.reset(&cfg.l3, cfg.line_bytes);
        buffer.reset(cfg.persist_slots, cfg.media_writers, cfg.nvm_line_bytes);
        events.clear();
        *next_seq = 0;
        *next_req = 0;
        *outstanding = 0;
        waiting_cvaps.clear();
        *next_token = 0;
        trace.stores.clear();
        trace.persists.clear();
        *stats = MemStats::default();
        *cvap_count = 0;
        *persist_count = 0;
        *fault_hits = 0;
        own.clone_from(cfg);
    }

    /// Records a persist event, applying the persist-stream faults
    /// ([`FaultInjection::DropPersist`] suppresses the `nth` event but
    /// the requester is still acknowledged;
    /// [`FaultInjection::DuplicatePersist`] records every event twice).
    fn note_persist(&mut self, cycle: u64, line: u64) {
        let n = self.persist_count;
        self.persist_count += 1;
        match self.cfg.fault {
            Some(FaultInjection::DropPersist { nth }) if nth == n => {
                self.fault_hits += 1;
                return;
            }
            Some(FaultInjection::DuplicatePersist) => {
                self.fault_hits += 1;
                self.trace.record_persist(PersistEvent { cycle, line });
            }
            _ => {}
        }
        self.trace.record_persist(PersistEvent { cycle, line });
    }

    /// Whether a new request would currently be accepted.
    pub fn can_accept(&self) -> bool {
        self.outstanding < self.cfg.max_outstanding
    }

    fn schedule(&mut self, cycle: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { cycle, seq, kind }));
    }

    /// Submits a request at cycle `now`. Returns `None` if the system is
    /// saturated (MSHR budget exhausted) — the caller retries later.
    pub fn try_access(&mut self, kind: ReqKind, addr: u64, now: u64) -> Option<ReqId> {
        if !self.can_accept() {
            return None;
        }
        let id = ReqId(self.next_req);
        self.next_req += 1;
        self.outstanding += 1;
        match kind {
            ReqKind::Load => {
                self.stats.loads += 1;
                let lat = self.walk(addr, false, now);
                self.schedule(now + lat, EventKind::Resp(id, addr));
            }
            ReqKind::StoreDrain { value, width } => {
                self.stats.store_drains += 1;
                let lat = self.walk(addr, true, now);
                // TornStp: only the first half of a 16-byte store pair
                // becomes visible (and thus persistable).
                let (width, value) =
                    if width == 16 && self.cfg.fault == Some(FaultInjection::TornStp) {
                        self.fault_hits += 1;
                        (8, [value[0], 0])
                    } else {
                        (width, value)
                    };
                self.trace.record_store(StoreEvent {
                    cycle: now + lat,
                    addr,
                    width,
                    value,
                });
                self.schedule(now + lat, EventKind::Resp(id, addr));
            }
            ReqKind::Cvap => {
                self.stats.cvaps += 1;
                let n = self.cvap_count;
                self.cvap_count += 1;
                if self.cfg.fault == Some(FaultInjection::StuckCvap { nth: n }) {
                    self.fault_hits += 1;
                    // The request vanishes in the controller: never
                    // acknowledged, never persisted. The requester waits
                    // forever — the pipeline watchdog's job. It no longer
                    // counts as outstanding here: no response will retire
                    // it, and the memory system itself stays drainable.
                    self.outstanding -= 1;
                    return Some(id);
                }
                let line = self.cfg.line_of(addr);
                let was_dirty = {
                    let d1 = self.l1.clean_line(line);
                    let d2 = self.l2.clean_line(line);
                    let d3 = self.l3.clean_line(line);
                    d1 || d2 || d3
                };
                let ack_at = now + self.cfg.controller_latency;
                if was_dirty && self.cfg.is_nvm(line) {
                    let token = self.next_token;
                    self.next_token += 1;
                    let (outcome, started) = self.buffer.try_insert(line, token);
                    for _ in 0..started {
                        self.schedule(ack_at + self.cfg.nvm_write_latency, EventKind::MediaDone);
                    }
                    match outcome {
                        InsertOutcome::Persisted => {
                            // EarlyCleanAck: the acknowledgement leaves at
                            // ack_at regardless, but the line only reaches
                            // the persistent domain a media write later.
                            let persist_at =
                                if self.cfg.fault == Some(FaultInjection::EarlyCleanAck) {
                                    self.fault_hits += 1;
                                    ack_at + self.cfg.nvm_write_latency
                                } else {
                                    ack_at
                                };
                            self.note_persist(persist_at, line);
                            self.schedule(ack_at, EventKind::Resp(id, addr));
                        }
                        InsertOutcome::Queued => {
                            self.waiting_cvaps.insert(token, (id, line));
                        }
                    }
                } else {
                    // Clean, absent, or DRAM line: nothing to push; the
                    // acknowledgement still travels to the controller.
                    self.schedule(ack_at, EventKind::Resp(id, addr));
                }
            }
        }
        Some(id)
    }

    /// One cache walk with write-allocate fills; returns the access
    /// latency and updates hit counters and cache state.
    fn walk(&mut self, addr: u64, is_write: bool, now: u64) -> u64 {
        let line = self.cfg.line_of(addr);
        let mut lat = self.cfg.l1d.latency;
        if self.l1.access(line) {
            self.stats.l1_hits += 1;
            if is_write {
                self.l1.mark_dirty(line);
            }
            return lat;
        }
        lat += self.cfg.l2.latency;
        if self.l2.access(line) {
            self.stats.l2_hits += 1;
            self.fill_l1(line, is_write, now);
            return lat;
        }
        lat += self.cfg.l3.latency;
        if self.l3.access(line) {
            self.stats.l3_hits += 1;
            self.fill_l2(line, false, now);
            self.fill_l1(line, is_write, now);
            return lat;
        }
        // Memory access.
        if self.cfg.is_nvm(line) {
            self.stats.nvm_reads += 1;
            // A line still sitting in the persist buffer is served from
            // the DIMM buffer, much faster than the media array.
            lat += if self.buffer.contains_line(self.cfg.nvm_line_of(line)) {
                self.cfg.controller_latency * 2
            } else {
                self.cfg.nvm_read_latency
            };
        } else {
            self.stats.dram_accesses += 1;
            lat += self.cfg.dram_latency;
        }
        self.fill_l3(line, false, now);
        self.fill_l2(line, false, now);
        self.fill_l1(line, is_write, now);
        // Next-line prefetch into the L2 on a demand miss to memory.
        for i in 1..=self.cfg.prefetch_next_lines {
            let pline = line + i as u64 * self.cfg.line_bytes;
            if !self.l2.contains(pline) && !self.l3.contains(pline) {
                self.stats.prefetches += 1;
                self.fill_l3(pline, false, now);
                self.fill_l2(pline, false, now);
            }
        }
        lat
    }

    fn fill_l1(&mut self, line: u64, dirty: bool, now: u64) {
        if let Some(ev) = self.l1.fill(line, dirty) {
            if ev.dirty {
                self.fill_l2(ev.addr, true, now);
            }
        }
    }

    fn fill_l2(&mut self, line: u64, dirty: bool, now: u64) {
        if let Some(ev) = self.l2.fill(line, dirty) {
            if ev.dirty {
                self.fill_l3(ev.addr, true, now);
            }
        }
    }

    fn fill_l3(&mut self, line: u64, dirty: bool, now: u64) {
        if let Some(ev) = self.l3.fill(line, dirty) {
            if ev.dirty && self.cfg.is_nvm(ev.addr) {
                // Dirty NVM line leaves the cache hierarchy: it becomes
                // persistent via the on-DIMM buffer, like a CVAP push but
                // with nobody waiting for the acknowledgement.
                self.stats.nvm_evictions += 1;
                let (outcome, started) = self.buffer.try_insert(ev.addr, EVICTION_TOKEN);
                for _ in 0..started {
                    self.schedule(now + self.cfg.nvm_write_latency, EventKind::MediaDone);
                }
                if outcome == InsertOutcome::Persisted {
                    self.note_persist(now, ev.addr);
                }
                // Queued evictions persist on admission (handled in tick).
            }
            // Dirty DRAM evictions are absorbed by the controller; their
            // timing does not feed back into the core in this model.
        }
    }

    /// Advances to cycle `now`, appending every response due at or before
    /// it to `resps`.
    pub fn tick(&mut self, now: u64, resps: &mut Vec<MemResp>) {
        while let Some(Reverse(ev)) = self.events.peek().copied() {
            if ev.cycle > now {
                break;
            }
            self.events.pop();
            match ev.kind {
                EventKind::Resp(id, addr) => {
                    self.outstanding -= 1;
                    resps.push(MemResp {
                        id,
                        addr,
                        cycle: ev.cycle,
                    });
                }
                EventKind::MediaDone => {
                    let result = self.buffer.media_write_done();
                    for p in result.newly_persisted {
                        let line = self.cfg.line_of(p.cache_line);
                        self.note_persist(ev.cycle, line);
                        if p.token != EVICTION_TOKEN {
                            if let Some((id, addr)) = self.waiting_cvaps.remove(&p.token) {
                                self.outstanding -= 1;
                                resps.push(MemResp {
                                    id,
                                    addr,
                                    cycle: ev.cycle,
                                });
                            }
                        }
                    }
                    for _ in 0..result.writes_started {
                        self.schedule(ev.cycle + self.cfg.nvm_write_latency, EventKind::MediaDone);
                    }
                }
            }
        }
    }

    /// Whether any request or media write is still in flight.
    pub fn idle(&self) -> bool {
        self.events.is_empty() && self.outstanding == 0
    }

    /// Runs the system on from cycle `now` until it is [`idle`](Self::idle),
    /// discarding the responses (nothing waits for them any more). With
    /// `jump` the clock moves from event to event, otherwise one cycle at
    /// a time; both pop the same events at the same cycles, since between
    /// events [`tick`](Self::tick) pops nothing.
    ///
    /// # Errors
    ///
    /// [`DrainError`] when requests are still counted outstanding but no
    /// event is pending: the count leaked, and the system would never go
    /// idle.
    pub fn drain(&mut self, mut now: u64, jump: bool) -> Result<(), DrainError> {
        let mut resps = Vec::new();
        while !self.idle() {
            let Some(next) = self.next_event_cycle() else {
                return Err(DrainError {
                    at: now,
                    outstanding: self.outstanding,
                });
            };
            now = if jump { next.max(now + 1) } else { now + 1 };
            self.tick(now, &mut resps);
            resps.clear();
        }
        Ok(())
    }

    /// The cycle of the earliest scheduled event (response delivery or
    /// media-write completion), if any is pending.
    ///
    /// Between scheduled events the system's externally observable state
    /// is frozen: [`tick`](Self::tick) pops nothing,
    /// [`can_accept`](Self::can_accept) cannot change, and no persist is
    /// recorded.
    /// That freeze is what lets a caller that is itself quiescent jump
    /// its clock straight to this cycle (the fast-forward kernel in
    /// `ede-cpu`).
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(ev)| ev.cycle)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Reports the system's counters into a metrics registry under
    /// `mem.*`: cache/device traffic, persist-stream event counts,
    /// fault-injection hits, and persist-buffer depth/throughput.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        // In name order, so the registry appends every name. Only the
        // buckets of a buffer over 128 slots, past the name table, follow
        // in numeric order: still placed right, at the cost of an insert.
        let s = &self.stats;
        let (inserts, merges, media_writes) = self.buffer.counters();
        reg.inc("mem.cvaps", s.cvaps);
        reg.inc("mem.dram_accesses", s.dram_accesses);
        reg.inc("mem.fault_hits", self.fault_hits);
        reg.inc("mem.l1_hits", s.l1_hits);
        reg.inc("mem.l2_hits", s.l2_hits);
        reg.inc("mem.l3_hits", s.l3_hits);
        reg.inc("mem.loads", s.loads);
        reg.inc("mem.nvm_evictions", s.nvm_evictions);
        reg.inc("mem.nvm_reads", s.nvm_reads);
        reg.inc("mem.pb.inserts", inserts);
        reg.inc("mem.pb.media_writes", media_writes);
        reg.inc("mem.pb.merges", merges);
        reg.set_gauge_max("mem.pb.occupancy", self.buffer.occupancy() as i64);
        let hist = self.buffer.occupancy_histogram();
        let tabled = OCCUPANCY_ORDER.iter().copied().filter(|&n| n < hist.len());
        for n in tabled.chain(OCCUPANCY_BUCKETS..hist.len()) {
            if hist[n] > 0 {
                reg.inc(OCCUPANCY_NAMES.get(n), hist[n]);
            }
        }
        reg.set_gauge_max("mem.pb.queued", self.buffer.queued() as i64);
        reg.inc("mem.persist_events", self.trace.persists.len() as u64);
        reg.inc("mem.prefetches", s.prefetches);
        reg.inc("mem.store_drains", s.store_drains);
        reg.inc("mem.store_events", self.trace.stores.len() as u64);
    }

    /// The persist buffer (for occupancy inspection).
    pub fn persist_buffer(&self) -> &PersistBuffer {
        &self.buffer
    }

    /// Finishes the run and hands over the persist trace, sorted by cycle
    /// (stores stably before persists recorded later at equal cycles).
    /// The system's own trace is left empty.
    pub fn take_trace(&mut self) -> PersistTrace {
        let mut t = std::mem::take(&mut self.trace);
        t.stores.sort_by_key(|e| e.cycle);
        t.persists.sort_by_key(|e| e.cycle);
        t
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_names_are_their_format_spelling() {
        for n in 0..300 {
            assert_eq!(OCCUPANCY_NAMES.get(n), format!("mem.pb.occupancy_hist.{n}"));
        }
    }

    #[test]
    fn occupancy_order_is_every_tabled_bucket_in_name_order() {
        let names: Vec<_> = OCCUPANCY_ORDER
            .iter()
            .map(|&n| OCCUPANCY_NAMES.get(n))
            .collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        let mut buckets = OCCUPANCY_ORDER.clone();
        buckets.sort_unstable();
        assert_eq!(buckets, (0..OCCUPANCY_BUCKETS).collect::<Vec<_>>());
        assert_eq!(&OCCUPANCY_ORDER[..4], &[0, 1, 10, 100]);
    }

    fn tick(mem: &mut MemSystem, now: u64) -> Vec<MemResp> {
        let mut resps = Vec::new();
        mem.tick(now, &mut resps);
        resps
    }

    fn run_until<F: Fn(&[MemResp]) -> bool>(
        mem: &mut MemSystem,
        start: u64,
        pred: F,
    ) -> (u64, Vec<MemResp>) {
        let mut now = start;
        loop {
            now += 1;
            let r = tick(mem, now);
            if pred(&r) {
                return (now, r);
            }
            assert!(now < start + 1_000_000, "memory system hung");
        }
    }

    fn cfg() -> MemConfig {
        MemConfig::a72_hybrid()
    }

    #[test]
    fn load_miss_then_hit_latency() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x40;
        let id = mem.try_access(ReqKind::Load, addr, 0).unwrap();
        let (t1, r) = run_until(&mut mem, 0, |r| !r.is_empty());
        assert_eq!(r[0].id, id);
        // Cold NVM read: l1+l2+l3+nvm_read.
        assert_eq!(
            t1,
            c.l1d.latency + c.l2.latency + c.l3.latency + c.nvm_read_latency
        );
        // Now it hits in L1.
        mem.try_access(ReqKind::Load, addr, t1).unwrap();
        let (t2, _) = run_until(&mut mem, t1, |r| !r.is_empty());
        assert_eq!(t2 - t1, c.l1d.latency);
    }

    #[test]
    fn dram_vs_nvm_latency() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        mem.try_access(ReqKind::Load, c.dram_base + 0x80, 0)
            .unwrap();
        let (t, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        assert_eq!(
            t,
            c.l1d.latency + c.l2.latency + c.l3.latency + c.dram_latency
        );
        assert!(t < c.nvm_read_latency);
    }

    #[test]
    fn store_drain_records_store_event() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x100;
        mem.try_access(
            ReqKind::StoreDrain {
                value: [99, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        run_until(&mut mem, 0, |r| !r.is_empty());
        let t = mem.take_trace();
        assert_eq!(t.stores.len(), 1);
        assert_eq!(t.stores[0].addr, addr);
        assert_eq!(t.stores[0].value[0], 99);
        assert!(t.persists.is_empty(), "store alone must not persist");
    }

    #[test]
    fn cvap_of_dirty_nvm_line_persists_and_acks() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x100;
        mem.try_access(
            ReqKind::StoreDrain {
                value: [7, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        let (t1, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t1).unwrap();
        let (t2, _) = run_until(&mut mem, t1, |r| !r.is_empty());
        assert_eq!(t2 - t1, c.controller_latency);
        let trace = mem.take_trace();
        assert_eq!(trace.persists.len(), 1);
        assert_eq!(trace.persists[0].line, c.line_of(addr));
        assert_eq!(trace.persists[0].cycle, t2);
    }

    #[test]
    fn cvap_of_clean_line_acks_without_persist() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x100;
        mem.try_access(ReqKind::Cvap, addr, 0).unwrap();
        let (t, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        assert_eq!(t, c.controller_latency);
        assert!(mem.take_trace().persists.is_empty());
    }

    #[test]
    fn second_cvap_after_clean_is_cheap_no_duplicate_persist() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x100;
        mem.try_access(
            ReqKind::StoreDrain {
                value: [7, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        let (t1, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t1).unwrap();
        let (t2, _) = run_until(&mut mem, t1, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t2).unwrap();
        run_until(&mut mem, t2, |r| !r.is_empty());
        assert_eq!(mem.take_trace().persists.len(), 1);
    }

    #[test]
    fn full_buffer_delays_ack() {
        let mut c = cfg();
        c.persist_slots = 2;
        c.media_writers = 1;
        let mut mem = MemSystem::new(c.clone());
        // Dirty three distinct device lines, then cvap all three.
        let mut now = 0;
        for i in 0..3u64 {
            let addr = c.nvm_base + i * c.nvm_line_bytes;
            mem.try_access(
                ReqKind::StoreDrain {
                    value: [i, 0],
                    width: 8,
                },
                addr,
                now,
            )
            .unwrap();
            let (t, _) = run_until(&mut mem, now, |r| !r.is_empty());
            now = t;
        }
        let mut acks = 0;
        for i in 0..3u64 {
            let addr = c.nvm_base + i * c.nvm_line_bytes;
            mem.try_access(ReqKind::Cvap, addr, now).unwrap();
        }
        let mut last_ack = 0;
        while acks < 3 {
            now += 1;
            let r = tick(&mut mem, now);
            acks += r.len();
            if !r.is_empty() {
                last_ack = now;
            }
            assert!(now < 1_000_000);
        }
        // The third ack had to wait for a media write (~1500 cycles).
        assert!(
            last_ack >= c.nvm_write_latency,
            "expected a delayed ack, got {last_ack}"
        );
        let trace = mem.take_trace();
        assert_eq!(trace.persists.len(), 3);
    }

    #[test]
    fn next_event_cycle_tracks_the_heap_head() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        assert_eq!(mem.next_event_cycle(), None, "idle system has no horizon");
        mem.try_access(ReqKind::Load, c.dram_base, 0).unwrap();
        let due = mem.next_event_cycle().expect("a response is scheduled");
        assert!(due > 0);
        // Ticking short of the horizon delivers nothing and moves it
        // nowhere; ticking exactly to it drains the event.
        assert!(tick(&mut mem, due - 1).is_empty());
        assert_eq!(mem.next_event_cycle(), Some(due));
        assert_eq!(tick(&mut mem, due).len(), 1);
        assert_eq!(mem.next_event_cycle(), None);
    }

    #[test]
    fn mshr_backpressure() {
        let mut c = cfg();
        c.max_outstanding = 2;
        let mut mem = MemSystem::new(c.clone());
        assert!(mem.try_access(ReqKind::Load, c.dram_base, 0).is_some());
        assert!(mem
            .try_access(ReqKind::Load, c.dram_base + 0x40, 0)
            .is_some());
        assert!(mem
            .try_access(ReqKind::Load, c.dram_base + 0x80, 0)
            .is_none());
        run_until(&mut mem, 0, |r| !r.is_empty());
        assert!(mem.can_accept());
    }

    #[test]
    fn prefetcher_warms_sequential_lines() {
        let mut c = cfg();
        c.prefetch_next_lines = 2;
        let mut mem = MemSystem::new(c.clone());
        // First access misses to DRAM and prefetches the next two lines.
        mem.try_access(ReqKind::Load, c.dram_base, 0).unwrap();
        let (t1, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        assert_eq!(mem.stats().prefetches, 2);
        // The next line now hits in L2 instead of going to memory.
        mem.try_access(ReqKind::Load, c.dram_base + c.line_bytes, t1)
            .unwrap();
        let (t2, _) = run_until(&mut mem, t1, |r| !r.is_empty());
        assert_eq!(t2 - t1, c.l1d.latency + c.l2.latency);
    }

    #[test]
    fn prefetcher_disabled_by_default() {
        let c = cfg();
        assert_eq!(c.prefetch_next_lines, 0);
        let mut mem = MemSystem::new(c.clone());
        mem.try_access(ReqKind::Load, c.dram_base, 0).unwrap();
        run_until(&mut mem, 0, |r| !r.is_empty());
        assert_eq!(mem.stats().prefetches, 0);
    }

    /// Dirty an NVM line, then cvap it; returns the ack cycle.
    fn dirty_and_cvap(mem: &mut MemSystem, addr: u64) -> u64 {
        mem.try_access(
            ReqKind::StoreDrain {
                value: [7, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        let (t1, _) = run_until(mem, 0, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t1).unwrap();
        let (t2, _) = run_until(mem, t1, |r| !r.is_empty());
        t2
    }

    #[test]
    fn torn_stp_drops_second_half() {
        let mut c = cfg();
        c.fault = Some(FaultInjection::TornStp);
        let mut mem = MemSystem::new(c.clone());
        mem.try_access(
            ReqKind::StoreDrain {
                value: [11, 22],
                width: 16,
            },
            c.nvm_base + 0x100,
            0,
        )
        .unwrap();
        run_until(&mut mem, 0, |r| !r.is_empty());
        let t = mem.take_trace();
        assert_eq!(t.stores.len(), 1);
        assert_eq!(t.stores[0].width, 8);
        assert_eq!(t.stores[0].value, [11, 0]);
    }

    #[test]
    fn stuck_cvap_swallows_request_but_stays_drainable() {
        let mut c = cfg();
        c.fault = Some(FaultInjection::StuckCvap { nth: 0 });
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base + 0x100;
        mem.try_access(
            ReqKind::StoreDrain {
                value: [7, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        let (t1, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t1).unwrap();
        // No acknowledgement ever arrives, yet the system reports idle:
        // the caller's instruction hangs, not the memory model.
        let mut now = t1;
        while !mem.idle() {
            now += 1;
            assert!(tick(&mut mem, now).is_empty());
            assert!(now < t1 + 100_000);
        }
        assert!(mem.take_trace().persists.is_empty());
    }

    #[test]
    fn drop_persist_acks_without_persist_event() {
        let mut c = cfg();
        c.fault = Some(FaultInjection::DropPersist { nth: 0 });
        let mut mem = MemSystem::new(c.clone());
        let t2 = dirty_and_cvap(&mut mem, c.nvm_base + 0x100);
        assert!(t2 > 0, "the requester is still acknowledged");
        assert!(mem.take_trace().persists.is_empty());
    }

    #[test]
    fn duplicate_persist_records_twice() {
        let mut c = cfg();
        c.fault = Some(FaultInjection::DuplicatePersist);
        let mut mem = MemSystem::new(c.clone());
        dirty_and_cvap(&mut mem, c.nvm_base + 0x100);
        assert_eq!(mem.take_trace().persists.len(), 2);
    }

    #[test]
    fn early_clean_ack_defers_persist_past_ack() {
        let mut c = cfg();
        c.fault = Some(FaultInjection::EarlyCleanAck);
        let mut mem = MemSystem::new(c.clone());
        let ack = dirty_and_cvap(&mut mem, c.nvm_base + 0x100);
        let trace = mem.take_trace();
        assert_eq!(trace.persists.len(), 1);
        assert!(
            trace.persists[0].cycle > ack,
            "persist {} must land after the ack {}",
            trace.persists[0].cycle,
            ack
        );
    }

    #[test]
    fn drain_reports_a_leaked_outstanding_count() {
        let c = cfg();
        for jump in [false, true] {
            let mut mem = MemSystem::new(c.clone());
            let addr = c.nvm_base;
            mem.try_access(
                ReqKind::StoreDrain {
                    value: [1, 0],
                    width: 8,
                },
                addr,
                0,
            )
            .unwrap();
            // A request the count holds that no event will ever answer.
            mem.outstanding += 1;
            let err = mem.drain(0, jump).expect_err("a leaked count never drains");
            assert_eq!(err.outstanding, 1);
            assert!(mem.events.is_empty(), "the real response was delivered");
            assert!(err.at > 0);
            assert!(err.to_string().contains("1 requests outstanding"), "{err}");
        }
    }

    #[test]
    fn media_done_eventually_idles() {
        let c = cfg();
        let mut mem = MemSystem::new(c.clone());
        let addr = c.nvm_base;
        mem.try_access(
            ReqKind::StoreDrain {
                value: [1, 0],
                width: 8,
            },
            addr,
            0,
        )
        .unwrap();
        let (t, _) = run_until(&mut mem, 0, |r| !r.is_empty());
        mem.try_access(ReqKind::Cvap, addr, t).unwrap();
        let mut now = t;
        while !mem.idle() {
            now += 1;
            tick(&mut mem, now);
            assert!(now < 1_000_000);
        }
        // Exactly one media write happened and was sampled.
        assert_eq!(mem.persist_buffer().counters().2, 1);
        assert_eq!(
            mem.persist_buffer()
                .occupancy_histogram()
                .iter()
                .sum::<u64>(),
            1
        );
    }
}
