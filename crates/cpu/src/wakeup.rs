//! Wakeup lists: for each producer, the dispatched instructions waiting
//! on it (a register value or an execution dependence), and the map from
//! memory requests to the instructions that sent them.
//!
//! A producer's list head is indexed by its [`InstId`], like the core's
//! per-instruction slots; the request map, keyed by `ReqId`, hashes with
//! one multiply (`IdMap`). The edges are bounded by the in-flight window:
//! a producer's list is dropped when it wakes and its edges go back to a
//! free list for the next dispatch.

use ede_isa::InstId;

/// End of a list.
const NIL: u32 = u32::MAX;

/// One waiter on one producer: the waiter, the epoch of the incarnation
/// that waited, and the next edge of the producer's list.
#[derive(Clone, Copy)]
struct Edge {
    waiter: InstId,
    epoch: u32,
    next: u32,
}

/// Every producer's waiters, as linked lists in one edge pool.
pub(crate) struct Wakeups {
    /// The newest edge of each producer, by program index (`NIL` when it
    /// has no waiters).
    heads: Vec<u32>,
    edges: Vec<Edge>,
    /// Freed edges, chained through `next`.
    free: u32,
}

impl Wakeups {
    /// Lists for the producers of a program of `len` instructions.
    pub(crate) fn new(len: usize) -> Wakeups {
        Wakeups {
            heads: vec![NIL; len],
            edges: Vec::new(),
            free: NIL,
        }
    }

    /// Records that incarnation `epoch` of `waiter` waits on `producer`.
    pub(crate) fn push(&mut self, producer: InstId, waiter: InstId, epoch: u32) {
        let head = &mut self.heads[producer.index()];
        let edge = Edge {
            waiter,
            epoch,
            next: *head,
        };
        *head = if self.free == NIL {
            self.edges.push(edge);
            (self.edges.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.edges[at as usize].next;
            self.edges[at as usize] = edge;
            at
        };
    }

    /// Empties `producer`'s list, calling `wake(waiter, epoch)` for each
    /// entry, newest first. An entry whose waiter has since been squashed
    /// carries that incarnation's epoch; `wake` must ignore it.
    pub(crate) fn wake(&mut self, producer: InstId, mut wake: impl FnMut(InstId, u32)) {
        let mut at = std::mem::replace(&mut self.heads[producer.index()], NIL);
        while at != NIL {
            let edge = self.edges[at as usize];
            wake(edge.waiter, edge.epoch);
            self.edges[at as usize].next = self.free;
            self.free = at;
            at = edge.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn woken(w: &mut Wakeups, producer: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        w.wake(InstId(producer), |id, epoch| out.push((id.0, epoch)));
        out.sort();
        out
    }

    #[test]
    fn wake_returns_each_waiter_once_and_empties_the_list() {
        let mut w = Wakeups::new(8);
        w.push(InstId(1), InstId(4), 1);
        w.push(InstId(1), InstId(5), 2);
        w.push(InstId(2), InstId(5), 2);
        assert_eq!(woken(&mut w, 1), [(4, 1), (5, 2)]);
        assert_eq!(woken(&mut w, 1), []);
        assert_eq!(woken(&mut w, 2), [(5, 2)]);
    }

    #[test]
    fn freed_edges_are_reused() {
        let mut w = Wakeups::new(100);
        for round in 0..100u64 {
            for waiter in 0..8 {
                w.push(InstId(round), InstId(round + 1 + waiter), 0);
            }
            assert_eq!(woken(&mut w, round).len(), 8);
        }
        assert_eq!(w.edges.len(), 8);
    }
}
