//! The core's memory interface.

use ede_mem::{MemResp, MemSystem, ReqId, ReqKind};

/// What the core needs from a memory system.
///
/// [`MemSystem`] is the production implementation;
/// [`FixedLatencyMem`] is a deterministic test double.
pub trait MemPort {
    /// Whether a request would currently be accepted.
    fn can_accept(&self) -> bool;
    /// Submits a request; `None` under back-pressure.
    fn try_access(&mut self, kind: ReqKind, addr: u64, now: u64) -> Option<ReqId>;
    /// Advances to `now`, appending the responses due to `out`.
    fn tick(&mut self, now: u64, out: &mut Vec<MemResp>);
    /// The cycle of the earliest pending event (response delivery or
    /// internal media completion), if any.
    ///
    /// The contract backing the core's fast-forward kernel: between the
    /// current cycle and the returned one, `tick` must deliver nothing
    /// and every core-observable query (notably [`can_accept`]
    /// (Self::can_accept)) must return the same answer every cycle, so
    /// a fully blocked core may skip its clock straight to this cycle.
    fn next_event_cycle(&self) -> Option<u64>;
}

impl MemPort for MemSystem {
    fn can_accept(&self) -> bool {
        MemSystem::can_accept(self)
    }

    fn try_access(&mut self, kind: ReqKind, addr: u64, now: u64) -> Option<ReqId> {
        MemSystem::try_access(self, kind, addr, now)
    }

    fn tick(&mut self, now: u64, out: &mut Vec<MemResp>) {
        MemSystem::tick(self, now, out);
    }

    fn next_event_cycle(&self) -> Option<u64> {
        MemSystem::next_event_cycle(self)
    }
}

/// A test memory: every request completes after a fixed latency,
/// `Cvap` requests after a separately configurable latency.
///
/// # Example
///
/// ```
/// use ede_cpu::{FixedLatencyMem, MemPort};
/// use ede_mem::ReqKind;
///
/// let mut mem = FixedLatencyMem::new(5, 20);
/// let id = mem.try_access(ReqKind::Load, 0x40, 0).unwrap();
/// let mut r = Vec::new();
/// mem.tick(4, &mut r);
/// assert!(r.is_empty());
/// mem.tick(5, &mut r);
/// assert_eq!(r[0].id, id);
/// ```
#[derive(Clone, Debug)]
pub struct FixedLatencyMem {
    latency: u64,
    cvap_latency: u64,
    next: u64,
    inflight: Vec<(u64, ReqId, u64)>, // (due, id, addr)
}

impl FixedLatencyMem {
    /// A memory with the given load/store latency and persist-ack latency.
    pub fn new(latency: u64, cvap_latency: u64) -> FixedLatencyMem {
        FixedLatencyMem {
            latency,
            cvap_latency,
            next: 0,
            inflight: Vec::new(),
        }
    }

    /// Requests still in flight.
    pub fn outstanding(&self) -> usize {
        self.inflight.len()
    }
}

impl MemPort for FixedLatencyMem {
    fn can_accept(&self) -> bool {
        true
    }

    fn try_access(&mut self, kind: ReqKind, addr: u64, now: u64) -> Option<ReqId> {
        let id = ReqId(self.next);
        self.next += 1;
        let lat = match kind {
            ReqKind::Cvap => self.cvap_latency,
            _ => self.latency,
        };
        self.inflight.push((now + lat, id, addr));
        Some(id)
    }

    fn tick(&mut self, now: u64, out: &mut Vec<MemResp>) {
        self.inflight.retain(|&(due, id, addr)| {
            if due <= now {
                out.push(MemResp {
                    id,
                    addr,
                    cycle: due,
                });
            }
            due > now
        });
    }

    fn next_event_cycle(&self) -> Option<u64> {
        self.inflight.iter().map(|&(due, _, _)| due).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_orders_by_due_time() {
        let mut mem = FixedLatencyMem::new(10, 30);
        let a = mem.try_access(ReqKind::Load, 0, 0).unwrap();
        let b = mem.try_access(ReqKind::Cvap, 64, 0).unwrap();
        assert_eq!(mem.outstanding(), 2);
        let mut r = Vec::new();
        mem.tick(10, &mut r);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, a);
        r.clear();
        mem.tick(30, &mut r);
        assert_eq!(r[0].id, b);
        assert_eq!(mem.outstanding(), 0);
    }

    #[test]
    fn mem_system_satisfies_port() {
        fn takes_port<M: MemPort>(_: &M) {}
        let mem = MemSystem::new(ede_mem::MemConfig::a72_hybrid());
        takes_port(&mem);
    }
}
