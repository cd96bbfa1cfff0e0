//! Pipeline property tests: arbitrary programs must terminate (no
//! deadlock), retire completely, and honor every architectural ordering —
//! under both EDE enforcement points, and with both the fixed-latency
//! test memory and the full memory hierarchy.
//!
//! Ported from proptest to `ede_util::check`; the historical regression
//! entry lives on as `regression_store_key0_then_wait_all`.

use ede_core::ordering::{check, OrderRelaxation};
use ede_core::EnforcementPoint;
use ede_cpu::{Core, CpuConfig, FixedLatencyMem};
use ede_isa::{Edk, EdkPair, Program, TraceBuilder};
use ede_mem::{MemConfig, MemSystem};
use ede_util::check::{self, any, Just, Strategy};
use ede_util::{prop_assert_eq, prop_oneof, property};

#[derive(Clone, Copy, Debug)]
enum Step {
    Store { a: u8, key_def: u8, key_use: u8 },
    Stp { a: u8 },
    Load { a: u8, key_use: u8 },
    Cvap { a: u8, key_def: u8 },
    Dsb,
    DmbSt,
    DmbSy,
    Join { d: u8, u1: u8, u2: u8 },
    WaitKey { k: u8 },
    WaitAll,
    Alu { n: u8 },
    Branch { mispredict: bool },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..12, 0u8..16, 0u8..16).prop_map(|(a, key_def, key_use)| Step::Store {
            a,
            key_def,
            key_use
        }),
        (0u8..12).prop_map(|a| Step::Stp { a }),
        (0u8..12, 0u8..16).prop_map(|(a, key_use)| Step::Load { a, key_use }),
        (0u8..12, 0u8..16).prop_map(|(a, key_def)| Step::Cvap { a, key_def }),
        Just(Step::Dsb),
        Just(Step::DmbSt),
        Just(Step::DmbSy),
        (0u8..16, 0u8..16, 0u8..16).prop_map(|(d, u1, u2)| Step::Join { d, u1, u2 }),
        (1u8..16).prop_map(|k| Step::WaitKey { k }),
        Just(Step::WaitAll),
        (1u8..6).prop_map(|n| Step::Alu { n }),
        any::<bool>().prop_map(|mispredict| Step::Branch { mispredict }),
    ]
}

fn addr(a: u8) -> u64 {
    // Half DRAM, half NVM; distinct 16-byte-aligned slots across a few
    // cache lines so same-line and cross-line interactions both occur.
    let base = if a.is_multiple_of(2) {
        0x4000
    } else {
        0x1_0000_0000
    };
    base + u64::from(a / 2) * 48 * 16
}

fn k(x: u8) -> Edk {
    Edk::new(x % 16).expect("in range")
}

fn build(steps: &[Step]) -> Program {
    let mut b = TraceBuilder::new();
    for (i, s) in steps.iter().enumerate() {
        match *s {
            Step::Store {
                a,
                key_def,
                key_use,
            } => {
                let base = b.lea(addr(a));
                b.store_to_edk(
                    base,
                    addr(a),
                    i as u64,
                    EdkPair::new(k(key_def), k(key_use)),
                );
                b.release(base);
            }
            Step::Stp { a } => {
                let base = b.lea(addr(a));
                b.store_pair_to(base, addr(a), [i as u64, i as u64 + 1]);
                b.release(base);
            }
            Step::Load { a, key_use } => {
                let base = b.lea(addr(a));
                b.load_from_edk(base, addr(a), 0, EdkPair::consumer(k(key_use)));
                b.release(base);
            }
            Step::Cvap { a, key_def } => {
                let base = b.lea(addr(a));
                b.cvap_to_edk(base, addr(a), EdkPair::producer(k(key_def)));
                b.release(base);
            }
            Step::Dsb => {
                b.dsb_sy();
            }
            Step::DmbSt => {
                b.dmb_st();
            }
            Step::DmbSy => {
                b.dmb_sy();
            }
            Step::Join { d, u1, u2 } => {
                b.join(k(d), k(u1), k(u2));
            }
            Step::WaitKey { k: key } => {
                b.wait_key(k(key));
            }
            Step::WaitAll => {
                b.wait_all_keys();
            }
            Step::Alu { n } => {
                b.compute_chain(n as usize);
            }
            Step::Branch { mispredict } => {
                let l = b.mov_imm(1);
                let r = b.mov_imm(2);
                b.cmp_branch(l, r, mispredict);
            }
        }
    }
    b.finish()
}

fn check_run(program: &Program, enforcement: Option<EnforcementPoint>, full_mem: bool) {
    let mut cfg = CpuConfig::a72();
    cfg.enforcement = enforcement;
    let stats = if full_mem {
        let mem = MemSystem::new(MemConfig::a72_hybrid());
        Core::new(cfg, program.clone(), mem)
            .run(5_000_000)
            .expect("no deadlock with the full memory hierarchy")
    } else {
        let mem = FixedLatencyMem::new(7, 40);
        Core::new(cfg, program.clone(), mem)
            .run(5_000_000)
            .expect("no deadlock with fixed-latency memory")
    };
    assert_eq!(
        stats.retired,
        program.len() as u64,
        "all instructions retire"
    );
    let v = check(program, &stats.timings, OrderRelaxation::NONE);
    assert!(v.is_empty(), "ordering axioms violated: {v:?}");
}

fn all_points_hold(steps: &[Step], full_mem: bool) {
    let program = build(steps);
    let points: &[Option<EnforcementPoint>] = if full_mem {
        &[
            Some(EnforcementPoint::IssueQueue),
            Some(EnforcementPoint::WriteBuffer),
        ]
    } else {
        &[
            None,
            Some(EnforcementPoint::IssueQueue),
            Some(EnforcementPoint::WriteBuffer),
        ]
    };
    for &enforcement in points {
        check_run(&program, enforcement, full_mem);
    }
}

property! {
    #![cases(64)]

    fn no_deadlock_and_orderings_hold_fixed_mem(
        steps in check::vec(step_strategy(), 1..50)
    ) {
        all_points_hold(&steps, false);
    }

    fn no_deadlock_and_orderings_hold_full_mem(
        steps in check::vec(step_strategy(), 1..40)
    ) {
        all_points_hold(&steps, true);
    }

    fn tiny_queues_still_make_progress(
        steps in check::vec(step_strategy(), 1..30)
    ) {
        // Starved structural resources must cause slowdown, never
        // deadlock.
        let program = build(&steps);
        let mut cfg = CpuConfig::a72();
        cfg.rob_entries = 4;
        cfg.iq_entries = 4;
        cfg.lq_entries = 2;
        cfg.sq_entries = 2;
        cfg.wb_entries = 2;
        cfg.enforcement = Some(EnforcementPoint::WriteBuffer);
        let mem = FixedLatencyMem::new(3, 9);
        let stats = Core::new(cfg, program.clone(), mem)
            .run(5_000_000)
            .expect("no deadlock with tiny queues");
        prop_assert_eq!(stats.retired, program.len() as u64);
    }
}

/// Historical proptest counterexample (from the retired
/// `prop_pipeline.proptest-regressions` file): a store whose use-key is
/// never produced, followed by `WAIT_ALL_KEYS`, must neither deadlock
/// nor violate orderings anywhere.
#[test]
fn regression_store_key0_then_wait_all() {
    let steps = [
        Step::Store {
            a: 0,
            key_def: 0,
            key_use: 1,
        },
        Step::WaitAll,
    ];
    all_points_hold(&steps, false);
    all_points_hold(&steps, true);
}
