//! The persist partial order the exhaustive explorer enumerates.
//!
//! A [`PersistDag`] closes the must-order edges of
//! [`ordering::for_each_edge`](crate::ordering::for_each_edge) — the same
//! edges conformance checks observed timings against — over a program's
//! persist events.

use crate::ordering::{for_each_edge, OrderRelaxation};
use ede_isa::{InstId, Op, Program};
use std::collections::HashMap;

/// Cache-line size used to match stores to the persist events of their
/// line, matching the cache hierarchy's 64-byte lines.
const LINE_BYTES: u64 = 64;

/// Hard cap on persist events a [`PersistDag`] can model: predecessor sets
/// are `u64` bitmasks, so programs with more persists than this are
/// reported as out of budget rather than silently mis-modeled.
pub const MAX_PERSIST_EVENTS: usize = 64;

/// A must-order partial order over a program's persist events, derived
/// from the ordering axioms conformance enforces plus NVM same-line
/// persist FIFO.
///
/// Event `i` is a *predecessor* of event `j` when every admissible
/// execution persists `i`'s line image before `j`'s. Two events with no
/// predecessor relation either way *commute*: the crash states reachable
/// through `i;j` and `j;i` are the same set, which is exactly the
/// independence relation the explorer's sleep-set pruning exploits.
#[derive(Clone, Debug)]
pub struct PersistDag {
    /// `preds[j]` bit `i` set ⇔ event `i` must persist before event `j`.
    /// Transitively closed; only bits `< j` can be set (all edge families
    /// point forward in program order).
    preds: Vec<u64>,
}

impl PersistDag {
    /// Builds the must-order DAG for `events` (the program's persist
    /// events in program order, as `(cvap instruction, line address)`
    /// pairs) under `relax`. Returns `None` when the program has more
    /// than [`MAX_PERSIST_EVENTS`] persists.
    ///
    /// The instruction-level edges are the ordering axioms
    /// ([`for_each_edge`] under `relax`) plus *content* edges: a store →
    /// the next persist event of its line (the cleaner snapshots the line
    /// after the store hit it). Event-level predecessors are forward
    /// reachability over those edges, plus same-line persist FIFO (the
    /// persist buffer drains a line's cleans in order), transitively
    /// closed.
    pub fn build(
        program: &Program,
        events: &[(InstId, u64)],
        relax: OrderRelaxation,
    ) -> Option<PersistDag> {
        if events.len() > MAX_PERSIST_EVENTS {
            return None;
        }
        let n = program.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for_each_edge(program, relax, |e| {
            adj[e.from.index()].push(e.to.index() as u32)
        });

        // Content edges: each store feeds the next persist event of its
        // line.
        let line_of = |a: u64| a & !(LINE_BYTES - 1);
        let mut pending: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut next_event = 0usize;
        for (id, inst) in program.iter() {
            match inst.op {
                Op::Str { addr, .. } => {
                    pending.entry(line_of(addr)).or_default().push(id.index());
                }
                Op::Stp { addr, .. } => {
                    pending.entry(line_of(addr)).or_default().push(id.index());
                    let hi = line_of(addr + 8);
                    if hi != line_of(addr) {
                        pending.entry(hi).or_default().push(id.index());
                    }
                }
                _ => {}
            }
            if next_event < events.len() && events[next_event].0 == id {
                let line = events[next_event].1;
                for s in pending.remove(&line).into_iter().flatten() {
                    adj[s].push(id.index() as u32);
                }
                next_event += 1;
            }
        }

        // Lift to event level: forward reachability per event.
        let mut event_of_inst: HashMap<usize, usize> = HashMap::new();
        for (e, &(id, _)) in events.iter().enumerate() {
            event_of_inst.insert(id.index(), e);
        }
        let mut preds = vec![0u64; events.len()];
        let mut visited = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        for (e, &(id, _)) in events.iter().enumerate() {
            stack.push(id.index());
            visited[id.index()] = e;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    let w = w as usize;
                    if visited[w] != e {
                        visited[w] = e;
                        stack.push(w);
                        if let Some(&succ) = event_of_inst.get(&w) {
                            preds[succ] |= 1u64 << e;
                        }
                    }
                }
            }
        }

        // Same-line persist FIFO.
        for j in 0..events.len() {
            for i in 0..j {
                if events[i].1 == events[j].1 {
                    preds[j] |= 1u64 << i;
                }
            }
        }

        // Transitive closure. All predecessors of `j` are earlier events,
        // so an ascending pass sees each `preds[i]` already closed.
        for j in 0..events.len() {
            let mut mask = preds[j];
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                mask |= preds[i];
            }
            preds[j] = mask;
        }

        Some(PersistDag { preds })
    }

    /// Number of persist events.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the program persists nothing.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The transitively-closed predecessor mask of event `i`.
    pub fn preds(&self, i: usize) -> u64 {
        self.preds[i]
    }

    /// The events that may persist next from a crash state: every event
    /// not yet in `persisted` whose predecessors all are. Returned as a
    /// bitmask.
    pub fn enabled(&self, persisted: u64) -> u64 {
        let mut out = 0u64;
        for (j, &p) in self.preds.iter().enumerate() {
            let bit = 1u64 << j;
            if persisted & bit == 0 && p & !persisted == 0 {
                out |= bit;
            }
        }
        out
    }

    /// Checks that `order` (event indices) is a linearization this DAG
    /// admits: each event's predecessors appear before it. Returns the
    /// first violation as `(missing predecessor, event)`.
    pub fn check_linearization(&self, order: &[usize]) -> Result<(), (usize, usize)> {
        let mut seen = 0u64;
        for &e in order {
            let missing = self.preds[e] & !seen;
            if missing != 0 {
                return Err((missing.trailing_zeros() as usize, e));
            }
            seen |= 1 << e;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{Edk, EdkPair, TraceBuilder};

    /// Whether events `i` and `j` commute (neither must precede the
    /// other), so `i;j` and `j;i` reach the same crash states.
    fn commutes(dag: &PersistDag, i: usize, j: usize) -> bool {
        dag.preds(i) & (1 << j) == 0 && dag.preds(j) & (1 << i) == 0
    }

    const LINE_A: u64 = 0x1_0000_0000;
    const LINE_B: u64 = 0x1_0000_0040;
    const LINE_C: u64 = 0x1_0000_0080;
    const LINE_F: u64 = 0x1_0000_0800;

    /// Two stores + cvaps to distinct lines with no ordering between them.
    fn unfenced_pair() -> (Program, Vec<(InstId, u64)>) {
        let mut b = TraceBuilder::new();
        b.store(LINE_A, 1);
        let p0 = b.cvap(LINE_A);
        b.store(LINE_B, 2);
        let p1 = b.cvap(LINE_B);
        (b.finish(), vec![(p0, LINE_A), (p1, LINE_B)])
    }

    #[test]
    fn unfenced_persists_commute() {
        let (p, ev) = unfenced_pair();
        let dag = PersistDag::build(&p, &ev, OrderRelaxation::NONE).unwrap();
        assert_eq!(dag.len(), 2);
        assert!(commutes(&dag, 0, 1));
        // Both enabled from the empty state; both orders are admissible.
        assert_eq!(dag.enabled(0), 0b11);
        assert!(dag.check_linearization(&[0, 1]).is_ok());
        assert!(dag.check_linearization(&[1, 0]).is_ok());
    }

    /// Figure 5's `stp → dc cvap`: a persist producing k1, then a store
    /// pair consuming k1 to `pair_line`, then a cvap of `cvap_line`.
    /// Returns the program and its two persist events.
    fn stp_then_cvap(pair_line: u64, cvap_line: u64) -> (Program, Vec<(InstId, u64)>) {
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.store(LINE_A, 1);
        let p0 = b.cvap_producing(LINE_A, k);
        let base = b.lea(pair_line);
        b.store_pair_to_edk(base, pair_line, [1, 2], EdkPair::consumer(k));
        b.release(base);
        let p1 = b.cvap(cvap_line);
        (b.finish(), vec![(p0, LINE_A), (p1, cvap_line)])
    }

    #[test]
    fn same_line_store_then_cvap_is_memory_dep() {
        // The store pair's content edge carries the execution dependence
        // on to the persist of its line.
        let (p, ev) = stp_then_cvap(LINE_B, LINE_B);
        let dag = PersistDag::build(&p, &ev, OrderRelaxation::NONE).unwrap();
        assert_eq!(dag.preds(1), 0b01);
    }

    #[test]
    fn different_lines_no_memory_dep() {
        // The store pair hits another line, so the cvap carries none of
        // its content and the two persists commute.
        let (p, ev) = stp_then_cvap(LINE_C, LINE_B);
        let dag = PersistDag::build(&p, &ev, OrderRelaxation::NONE).unwrap();
        assert!(commutes(&dag, 0, 1));
    }

    #[test]
    fn dsb_orders_persists_and_weak_dsb_relaxes() {
        let mut b = TraceBuilder::new();
        b.store(LINE_A, 1);
        let p0 = b.cvap(LINE_A);
        b.dsb_sy();
        b.store(LINE_F, 1);
        let p1 = b.cvap(LINE_F);
        let prog = b.finish();
        let ev = vec![(p0, LINE_A), (p1, LINE_F)];

        let strict = PersistDag::build(&prog, &ev, OrderRelaxation::NONE).unwrap();
        assert!(!commutes(&strict, 0, 1));
        assert_eq!(strict.preds(1), 0b01);
        assert_eq!(strict.enabled(0), 0b01);
        assert_eq!(strict.enabled(0b01), 0b10);
        assert_eq!(strict.check_linearization(&[1, 0]), Err((0, 1)));

        let weak = OrderRelaxation {
            weak_dsb: true,
            ..OrderRelaxation::NONE
        };
        let relaxed = PersistDag::build(&prog, &ev, weak).unwrap();
        // Without the drain edge the flag persist may overtake the data.
        assert!(commutes(&relaxed, 0, 1));
    }

    #[test]
    fn execution_dependence_orders_persists_and_drop_relaxes() {
        // hazard shape: cvap A producing k1, consuming store to F, cvap F.
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.store(LINE_A, 1);
        let p0 = b.cvap_producing(LINE_A, k);
        b.store_consuming(LINE_F, 1, k);
        let p1 = b.cvap(LINE_F);
        let prog = b.finish();
        let ev = vec![(p0, LINE_A), (p1, LINE_F)];

        let strict = PersistDag::build(&prog, &ev, OrderRelaxation::NONE).unwrap();
        // p0 → consuming store (execution dep) → p1 (content edge).
        assert_eq!(strict.preds(1), 0b01);

        let drop = OrderRelaxation {
            drop_execution: true,
            ..OrderRelaxation::NONE
        };
        let relaxed = PersistDag::build(&prog, &ev, drop).unwrap();
        assert!(commutes(&relaxed, 0, 1));
    }

    #[test]
    fn wait_all_keys_is_a_persist_barrier_unless_dropped() {
        let mut b = TraceBuilder::new();
        let k1 = Edk::new(1).unwrap();
        let k2 = Edk::new(2).unwrap();
        b.store(LINE_A, 1);
        let p0 = b.cvap_producing(LINE_A, k1);
        b.store(LINE_B, 2);
        let p1 = b.cvap_producing(LINE_B, k2);
        b.wait_all_keys();
        b.store(LINE_F, 1);
        let p2 = b.cvap(LINE_F);
        let prog = b.finish();
        let ev = vec![(p0, LINE_A), (p1, LINE_B), (p2, LINE_F)];

        let strict = PersistDag::build(&prog, &ev, OrderRelaxation::NONE).unwrap();
        // Flag persist waits for both data persists; data persists commute.
        assert_eq!(strict.preds(2), 0b011);
        assert!(commutes(&strict, 0, 1));

        let drop = OrderRelaxation {
            drop_execution: true,
            ..OrderRelaxation::NONE
        };
        let relaxed = PersistDag::build(&prog, &ev, drop).unwrap();
        assert_eq!(relaxed.preds(2), 0);
    }

    #[test]
    fn same_line_persists_stay_fifo_even_relaxed() {
        let mut b = TraceBuilder::new();
        b.store(LINE_A, 1);
        let p0 = b.cvap(LINE_A);
        b.store(LINE_A + 8, 2);
        let p1 = b.cvap(LINE_A);
        let prog = b.finish();
        let ev = vec![(p0, LINE_A), (p1, LINE_A)];
        let relax = OrderRelaxation {
            drop_execution: true,
            weak_dsb: true,
        };
        let dag = PersistDag::build(&prog, &ev, relax).unwrap();
        assert_eq!(dag.preds(1), 0b01);
        assert!(!commutes(&dag, 0, 1));
    }

    #[test]
    fn dmb_st_orders_store_content_but_not_loads() {
        // store A; dmb st; store B — content edges route through the
        // fence, so the persists are ordered via their stores.
        let mut b = TraceBuilder::new();
        b.store(LINE_A, 1);
        b.dmb_st();
        b.store(LINE_B, 2);
        let p1 = b.cvap(LINE_B);
        let p0 = b.cvap(LINE_A);
        let prog = b.finish();
        // Events in program order: B persists first in the event list.
        let ev = vec![(p1, LINE_B), (p0, LINE_A)];
        let dag = PersistDag::build(&prog, &ev, OrderRelaxation::NONE).unwrap();
        // store A → dmb st → store B → cvap B: event 0 (line B) must wait
        // for nothing persist-side... but event 1 (line A) only needs its
        // own store. Neither event reaches the other through the fence:
        // cvaps are not DMB ST-ordered, so the two *persists* commute.
        assert!(commutes(&dag, 0, 1));
    }

    #[test]
    fn too_many_events_is_out_of_budget() {
        let mut b = TraceBuilder::new();
        let mut ev = Vec::new();
        for i in 0..65u64 {
            let addr = 0x1_0000_0000 + i * 64;
            b.store(addr, i);
            ev.push((b.cvap(addr), addr));
        }
        let prog = b.finish();
        assert!(PersistDag::build(&prog, &ev, OrderRelaxation::NONE).is_none());
    }
}
