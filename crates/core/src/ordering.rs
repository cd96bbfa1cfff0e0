//! The ordering axioms, enumerated once.
//!
//! [`for_each_edge`] enumerates every must-order edge an instruction
//! trace encodes — EDE execution dependences, `WAIT_*` barriers, and the
//! `DSB SY` / `DMB ST` / `DMB SY` fence windows. Both consumers read that
//! one enumeration:
//!
//! * [`check`] — conformance: the *observed* timing of a simulated
//!   execution must respect every edge. It is the master invariant used
//!   by the simulator's tests and the fuzzer: whatever the pipeline did,
//!   a producer must have completed before its consumer's effects became
//!   observable.
//! * [`PersistDag`](crate::depgraph::PersistDag) — the explorer's
//!   persist partial order closes the same edges.
//!
//! An [`OrderRelaxation`] is applied here, at the enumerator, so an
//! injected fault relaxes both consumers the same way.

use ede_isa::{Edk, InstId, InstKind, Op, Program, NUM_EDKS};

/// Observed timing of one dynamic instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstTiming {
    /// Cycle at which the instruction's effects first became observable:
    /// execution for ALU/loads, the push to the memory system for stores,
    /// the persist request for writebacks.
    pub effect: u64,
    /// Cycle at which the instruction completed in the EDE sense (§IV-B1):
    /// stores when globally visible, writebacks when persistence is
    /// guaranteed, others at writeback.
    pub complete: u64,
}

/// The ordering axiom an [`Edge`] encodes (and a [`Violation`] breaks).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Axiom {
    /// An EDE execution dependence (key link, `JOIN`, `WAIT_KEY`, or
    /// `WAIT_ALL_KEYS`): producer → consumer.
    Execution,
    /// A `WAIT_KEY`/`WAIT_ALL_KEYS` barrier: the wait → every younger
    /// store and writeback (the wait retires only once its tracker side
    /// drains, and stores leave the write buffer only after retiring
    /// behind it in the in-order ROB).
    WaitBarrier,
    /// A `DSB SY` window: every older instruction → fence → every younger
    /// instruction (retire-time drain, dispatch block).
    FullFence,
    /// A `DMB ST` window: older store → fence → younger store. `DC CVAP`
    /// persists are deliberately *not* covered — that is exactly the
    /// unsafety of the SU configuration.
    StoreFence,
    /// A `DMB SY` window: older load/store → fence → younger
    /// load/store/writeback. Writebacks are held on the younger side
    /// (they issue behind the barrier) but not required on the older
    /// side: requiring persist completion would make it a `DSB SY`.
    MemFence,
}

impl Axiom {
    /// The fence whose window this axiom describes, if any.
    fn fence(self) -> Option<InstKind> {
        match self {
            Axiom::FullFence => Some(InstKind::FenceFull),
            Axiom::StoreFence => Some(InstKind::FenceStore),
            Axiom::MemFence => Some(InstKind::FenceMem),
            Axiom::Execution | Axiom::WaitBarrier => None,
        }
    }
}

/// One must-order edge: `from` must be honored before `to` takes effect.
/// All edges point forward in program order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// The earlier instruction.
    pub from: InstId,
    /// The later instruction.
    pub to: InstId,
    /// The axiom the edge encodes.
    pub axiom: Axiom,
}

/// Which must-order edges a fault injection removes.
///
/// Injected faults weaken the pipeline, so the axioms must be weakened
/// the same way: otherwise the explorer (`ede-sim explore`) would wrongly
/// prove faulted runs impossible. Two faults are statically modelable:
///
/// * `drop_execution` — the `DropEdeps` fault clears execution dependences
///   at dispatch and skips the `WAIT_KEY`/`WAIT_ALL_KEYS` tracker checks,
///   so both the [`Axiom::Execution`] and [`Axiom::WaitBarrier`] edges
///   disappear;
/// * `weak_dsb` — the `WeakDsb` fault lets a `DSB SY` retire without
///   draining older persists, so the older→fence edges disappear (the
///   fence still blocks younger dispatch, so fence→younger edges remain).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OrderRelaxation {
    /// Remove execution-dependence and wait-barrier edges (`DropEdeps`).
    pub drop_execution: bool,
    /// Remove older→`DSB SY` drain edges (`WeakDsb`).
    pub weak_dsb: bool,
}

impl OrderRelaxation {
    /// No relaxation: the full ordering axioms of a fault-free pipeline.
    pub const NONE: OrderRelaxation = OrderRelaxation {
        drop_execution: false,
        weak_dsb: false,
    };
}

/// Computes the execution dependences a trace encodes, in architectural
/// (program-order) terms: each consumer is paired with every producer it
/// must wait for.
///
/// For key-pair variants and `JOIN` this is the most recent prior producer
/// of each consumed key; for `WAIT_KEY` it is *all* older producers of the
/// key; for `WAIT_ALL_KEYS`, all older EDE instructions.
///
/// # Example
///
/// ```
/// use ede_core::ordering::execution_deps;
/// use ede_isa::{Edk, InstId, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let k = Edk::new(1).unwrap();
/// b.cvap_producing(0x40, k);          // lea + cvap → producer is #1
/// b.store_consuming(0x80, 7, k);      // lea + mov + str → consumer is #4
/// let deps = execution_deps(&b.finish());
/// assert_eq!(deps, vec![(InstId(1), InstId(4))]);
/// ```
pub fn execution_deps(program: &Program) -> Vec<(InstId, InstId)> {
    let mut deps = Vec::new();
    // Most recent producer per key, by program order (never cleared:
    // completion only relaxes orderings, it cannot add them).
    let mut latest: [Option<InstId>; NUM_EDKS] = [None; NUM_EDKS];
    // All producers per key, for WAIT_KEY.
    let mut all_producers: Vec<Vec<InstId>> = vec![Vec::new(); NUM_EDKS];
    // All EDE instructions, for WAIT_ALL_KEYS.
    let mut all_ede: Vec<InstId> = Vec::new();

    let consume = |key: Edk,
                   id: InstId,
                   latest: &[Option<InstId>; NUM_EDKS],
                   deps: &mut Vec<(InstId, InstId)>| {
        if let Some(p) = latest[key.index() as usize] {
            if !key.is_zero() {
                deps.push((p, id));
            }
        }
    };

    for (id, inst) in program.iter() {
        match inst.op {
            Op::Join { use2 } => {
                consume(inst.edks.use_, id, &latest, &mut deps);
                consume(use2, id, &latest, &mut deps);
            }
            Op::WaitKey { key } => {
                for &p in &all_producers[key.index() as usize] {
                    deps.push((p, id));
                }
            }
            Op::WaitAllKeys => {
                for &p in &all_ede {
                    deps.push((p, id));
                }
            }
            _ => {
                consume(inst.edks.use_, id, &latest, &mut deps);
            }
        }
        // Record this instruction's produced key.
        let produced = match inst.op {
            Op::WaitKey { key } => key,
            _ => inst.edks.def,
        };
        if !produced.is_zero() {
            latest[produced.index() as usize] = Some(id);
            all_producers[produced.index() as usize].push(id);
        }
        if inst.is_ede() {
            all_ede.push(id);
        }
    }
    deps
}

/// Calls `visit` on every must-order edge of `program` that survives
/// `relax`: first the [`execution_deps`], then, instruction by
/// instruction, each fence's and wait's window — for a fence, the edges
/// *into* it from the older instructions it orders before the edges *out*
/// of it to the younger instructions it holds back.
///
/// The windows mirror the pipeline model (`crates/cpu/src/core.rs`):
/// `DSB SY` orders everything except other `DSB SY`s, whose windows
/// already cover the same instructions; `DMB ST` is an LSQ barrier for
/// stores; `DMB SY` holds every memory operation at issue; a wait holds
/// younger stores and writebacks at the write buffer.
pub fn for_each_edge(program: &Program, relax: OrderRelaxation, mut visit: impl FnMut(Edge)) {
    use InstKind::*;
    if !relax.drop_execution {
        for (from, to) in execution_deps(program) {
            visit(Edge {
                from,
                to,
                axiom: Axiom::Execution,
            });
        }
    }
    let kinds: Vec<InstKind> = program.iter().map(|(_, i)| i.kind()).collect();
    type Orders = fn(InstKind) -> bool;
    for (f, inst) in program.iter() {
        let (axiom, older, younger): (Axiom, Orders, Orders) = match inst.op {
            Op::DsbSy => (Axiom::FullFence, |k| k != FenceFull, |k| k != FenceFull),
            Op::DmbSt => (Axiom::StoreFence, |k| k == Store, |k| k == Store),
            Op::DmbSy => (
                Axiom::MemFence,
                |k| matches!(k, Load | Store),
                |k| matches!(k, Load | Store | Writeback),
            ),
            Op::WaitKey { .. } | Op::WaitAllKeys if !relax.drop_execution => (
                Axiom::WaitBarrier,
                |_| false,
                |k| matches!(k, Store | Writeback),
            ),
            _ => continue,
        };
        let drained = !(axiom == Axiom::FullFence && relax.weak_dsb);
        for (o, &k) in kinds[..f.index()].iter().enumerate() {
            if drained && older(k) {
                visit(Edge {
                    from: InstId(o as u64),
                    to: f,
                    axiom,
                });
            }
        }
        for (y, &k) in kinds.iter().enumerate().skip(f.index() + 1) {
            if younger(k) {
                visit(Edge {
                    from: f,
                    to: InstId(y as u64),
                    axiom,
                });
            }
        }
    }
}

/// A violated ordering requirement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The instruction (or fence) that had to be honored first.
    pub producer: InstId,
    /// The instruction whose effect had to wait.
    pub consumer: InstId,
    /// Which axiom was violated.
    pub kind: Axiom,
}

/// Checks that an execution with the given per-instruction timing
/// respected every edge of `program` under `relax`: each edge's source
/// must be *released* no later than its target's effect.
///
/// An instruction is released when it completes. A fence has no
/// observable effect of its own, so its window passes through it: the
/// fence is released once every instruction ordered into it has
/// completed, and the edges into it only set that release time.
///
/// `times[i]` describes instruction `InstId(i)`. Returns all violations
/// in consumer order per axiom (empty means the execution was correct).
///
/// # Panics
///
/// Panics if `times` is shorter than the program.
pub fn check(program: &Program, times: &[InstTiming], relax: OrderRelaxation) -> Vec<Violation> {
    assert!(times.len() >= program.len(), "missing timing entries");
    let mut release = vec![0u64; program.len()];
    let mut violations = Vec::new();
    for_each_edge(program, relax, |e| {
        let fence = e.axiom.fence();
        if fence == Some(program[e.to].kind()) {
            release[e.to.index()] = release[e.to.index()].max(times[e.from.index()].complete);
            return;
        }
        let ready = if fence == Some(program[e.from].kind()) {
            release[e.from.index()]
        } else {
            times[e.from.index()].complete
        };
        if ready > times[e.to.index()].effect {
            violations.push(Violation {
                producer: e.from,
                consumer: e.to,
                kind: e.axiom,
            });
        }
    });
    violations.sort_by_key(|v| (v.kind, v.consumer));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{Edk, TraceBuilder};

    fn k(n: u8) -> Edk {
        Edk::new(n).unwrap()
    }

    fn edges(program: &Program, relax: OrderRelaxation) -> Vec<Edge> {
        let mut out = Vec::new();
        for_each_edge(program, relax, |e| out.push(e));
        out
    }

    fn honored(effect_p: u64, complete_p: u64, effect_c: u64) -> bool {
        let mut b = TraceBuilder::new();
        b.cvap_producing(0x40, k(1)); // ids 0 (lea), 1 (cvap)
        b.store_consuming(0x80, 7, k(1)); // ids 2 (lea), 3 (mov), 4 (str)
        let p = b.finish();
        let mut times = vec![InstTiming::default(); p.len()];
        times[1] = InstTiming {
            effect: effect_p,
            complete: complete_p,
        };
        times[4] = InstTiming {
            effect: effect_c,
            complete: effect_c + 1,
        };
        check(&p, &times, OrderRelaxation::NONE).is_empty()
    }

    #[test]
    fn detects_violation_and_accepts_correct_order() {
        assert!(honored(5, 10, 10)); // consumer effect at producer completion: ok
        assert!(honored(5, 10, 50));
        assert!(!honored(5, 10, 9)); // consumer visible before producer done
    }

    #[test]
    fn wait_key_requires_all_older_producers() {
        let mut b = TraceBuilder::new();
        b.cvap_producing(0x40, k(2)); // producer A = id 1
        b.cvap_producing(0x80, k(2)); // producer B = id 3 (overwrites EDM)
        b.wait_key(k(2)); // id 4
        let p = b.finish();
        let deps = execution_deps(&p);
        assert!(deps.contains(&(InstId(1), InstId(4))));
        assert!(deps.contains(&(InstId(3), InstId(4))));
    }

    #[test]
    fn wait_all_keys_covers_consumers() {
        let mut b = TraceBuilder::new();
        b.cvap_producing(0x40, k(1)); // id 1 producer
        b.store_consuming(0x80, 7, k(1)); // id 4 consumer
        b.wait_all_keys(); // id 5
        let p = b.finish();
        let deps = execution_deps(&p);
        assert!(deps.contains(&(InstId(1), InstId(5))));
        assert!(deps.contains(&(InstId(4), InstId(5))));
    }

    #[test]
    fn key_reuse_links_to_most_recent_producer_only() {
        let mut b = TraceBuilder::new();
        b.cvap_producing(0x40, k(1)); // id 1
        b.store_consuming(0x80, 1, k(1)); // id 4 ← id 1
        b.cvap_producing(0xc0, k(1)); // id 6
        b.store_consuming(0x100, 2, k(1)); // id 9 ← id 6
        let p = b.finish();
        let deps = execution_deps(&p);
        assert_eq!(deps, vec![(InstId(1), InstId(4)), (InstId(6), InstId(9))]);
    }

    #[test]
    fn consumer_with_no_prior_producer_has_no_dep() {
        let mut b = TraceBuilder::new();
        b.store_consuming(0x80, 7, k(9));
        let deps = execution_deps(&b.finish());
        assert!(deps.is_empty());
    }

    #[test]
    fn dsb_check_flags_early_younger_effect() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1); // ids 0,1,2 (lea,mov,str)
        b.dsb_sy(); // id 3
        b.store(0x80, 2); // ids 4,5,6
        let p = b.finish();
        let mut times = vec![InstTiming::default(); p.len()];
        // Older store completes at 100; younger store's effect at 50.
        times[2] = InstTiming {
            effect: 20,
            complete: 100,
        };
        for i in [4usize, 5, 6] {
            times[i] = InstTiming {
                effect: 50,
                complete: 60,
            };
        }
        let v = check(&p, &times, OrderRelaxation::NONE);
        assert_eq!(v.len(), 3);
        assert!(v
            .iter()
            .all(|x| x.kind == Axiom::FullFence && x.producer == InstId(3)));
        // WeakDsb drops the drain edges, and with them every violation.
        let weak = OrderRelaxation {
            weak_dsb: true,
            ..OrderRelaxation::NONE
        };
        assert!(check(&p, &times, weak).is_empty());

        // Fix the timing: younger effects at/after 100.
        for i in [4usize, 5, 6] {
            times[i] = InstTiming {
                effect: 100,
                complete: 120,
            };
        }
        assert!(check(&p, &times, OrderRelaxation::NONE).is_empty());
    }

    #[test]
    fn dmb_st_orders_stores_but_not_persists() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1); // ids 0,1,2 (lea,mov,str)
        b.dmb_st(); // id 3
        b.store(0x80, 2); // ids 4,5,6
        b.cvap_producing(0xc0, k(1)); // ids 7,8 (lea,cvap)
        let p = b.finish();
        let mut times = vec![InstTiming::default(); p.len()];
        // Older store becomes visible (completes) at 100.
        times[2] = InstTiming {
            effect: 20,
            complete: 100,
        };
        // Younger store visible at 50: a DMB ST violation.
        times[6] = InstTiming {
            effect: 50,
            complete: 60,
        };
        // Writeback effect before the floor must NOT be flagged: DMB ST
        // deliberately leaves persists unordered (the SU gap).
        times[8] = InstTiming {
            effect: 10,
            complete: 30,
        };
        let v = check(&p, &times, OrderRelaxation::NONE);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, Axiom::StoreFence);
        assert_eq!(v[0].producer, InstId(3));
        assert_eq!(v[0].consumer, InstId(6));

        // Younger store at/after the floor: clean.
        times[6] = InstTiming {
            effect: 100,
            complete: 110,
        };
        assert!(check(&p, &times, OrderRelaxation::NONE).is_empty());
    }

    #[test]
    fn dmb_sy_orders_loads_stores_and_holds_writebacks() {
        let mut b = TraceBuilder::new();
        b.load(0x40, 7); // ids 0,1 (lea,ldr)
        b.dmb_sy(); // id 2
        b.store(0x80, 2); // ids 3,4,5
        b.cvap_producing(0xc0, k(1)); // ids 6,7
        let p = b.finish();
        let mut times = vec![InstTiming::default(); p.len()];
        // Older load completes at 100.
        times[1] = InstTiming {
            effect: 90,
            complete: 100,
        };
        // Younger store and writeback both take effect early.
        times[5] = InstTiming {
            effect: 50,
            complete: 60,
        };
        times[7] = InstTiming {
            effect: 40,
            complete: 80,
        };
        let v = check(&p, &times, OrderRelaxation::NONE);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.kind == Axiom::MemFence));
        assert!(v.iter().any(|x| x.consumer == InstId(5)));
        assert!(v.iter().any(|x| x.consumer == InstId(7)));

        // Both at/after the floor: clean.
        times[5].effect = 100;
        times[7].effect = 100;
        assert!(check(&p, &times, OrderRelaxation::NONE).is_empty());
    }

    #[test]
    fn wait_barrier_holds_younger_stores_unless_dropped() {
        let mut b = TraceBuilder::new();
        b.cvap_producing(0x40, k(1)); // ids 0,1 (lea,cvap)
        b.wait_all_keys(); // id 2
        b.store(0x80, 2); // ids 3,4,5
        let p = b.finish();
        let mut times = vec![InstTiming::default(); p.len()];
        times[1] = InstTiming {
            effect: 10,
            complete: 100,
        };
        // The wait completes behind its producer, but the younger store
        // takes effect before the wait completes.
        times[2] = InstTiming {
            effect: 100,
            complete: 100,
        };
        times[5] = InstTiming {
            effect: 60,
            complete: 70,
        };
        let v = check(&p, &times, OrderRelaxation::NONE);
        assert_eq!(
            v,
            vec![Violation {
                producer: InstId(2),
                consumer: InstId(5),
                kind: Axiom::WaitBarrier,
            }]
        );
        let drop = OrderRelaxation {
            drop_execution: true,
            ..OrderRelaxation::NONE
        };
        assert!(check(&p, &times, drop).is_empty());
        assert!(edges(&p, drop).is_empty());
    }

    #[test]
    fn edges_point_forward_and_fences_pass_through() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1); // ids 0,1,2
        b.dsb_sy(); // id 3
        b.dsb_sy(); // id 4
        b.store(0x80, 2); // ids 5,6,7
        let p = b.finish();
        let all = edges(&p, OrderRelaxation::NONE);
        assert!(all.iter().all(|e| e.from < e.to));
        // Neither DSB orders the other: their windows cover the same
        // instructions.
        assert!(!all.iter().any(|e| e.from == InstId(3) && e.to == InstId(4)));
        assert_eq!(all.iter().filter(|e| e.to == InstId(4)).count(), 3);
        assert_eq!(all.iter().filter(|e| e.from == InstId(3)).count(), 3);
    }

    #[test]
    #[should_panic(expected = "missing timing entries")]
    fn short_times_panics() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1);
        let p = b.finish();
        check(&p, &[], OrderRelaxation::NONE);
    }
}
