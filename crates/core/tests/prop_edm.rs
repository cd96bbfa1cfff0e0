//! Property tests for the Execution Dependence Map (ported from
//! proptest to the in-repo `ede_util::check` harness; historical
//! proptest regression entries are the named `regression_*` tests at
//! the bottom).

use ede_core::{Edm, SpeculativeEdm};
use ede_isa::{Edk, EdkPair, Inst, InstId, Op, Reg};
use ede_util::check::{self, any, CaseResult, Just, Strategy};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};

#[derive(Clone, Copy, Debug)]
enum EdmOp {
    DecodeProducer { key: u8 },
    DecodeConsumer { key: u8 },
    RetireNext,
    Complete { which: u8 },
    Squash,
}

fn op_strategy() -> impl Strategy<Value = EdmOp> {
    prop_oneof![
        (1u8..16).prop_map(|key| EdmOp::DecodeProducer { key }),
        (1u8..16).prop_map(|key| EdmOp::DecodeConsumer { key }),
        Just(EdmOp::RetireNext),
        any::<u8>().prop_map(|which| EdmOp::Complete { which }),
        Just(EdmOp::Squash),
    ]
}

fn producer(key: u8) -> Inst {
    Inst::with_edks(
        Op::DcCvap {
            base: Reg::x(0).expect("register"),
            addr: 0,
        },
        EdkPair::producer(Edk::new(key).expect("key")),
    )
}

fn consumer(key: u8) -> Inst {
    Inst::with_edks(
        Op::Str {
            src: Reg::x(1).expect("register"),
            base: Reg::x(2).expect("register"),
            addr: 0,
            value: 0,
        },
        EdkPair::consumer(Edk::new(key).expect("key")),
    )
}

/// Whatever sequence of decodes, retires, completions and squashes
/// happens, the EDM's invariants hold: consumers link only to older
/// instructions, completed producers impose no dependences, and a
/// squash restores exactly the retired state.
fn edm_state_machine_impl(ops: &[EdmOp]) -> CaseResult {
    let mut edm = SpeculativeEdm::new();
    let mut next = 0u64;
    let mut decoded: Vec<(Inst, InstId)> = Vec::new(); // not yet retired
    let mut completed: Vec<InstId> = Vec::new();
    let mut nonspec_shadow: Edm = Edm::new();

    for op in ops {
        match *op {
            EdmOp::DecodeProducer { key } => {
                let id = InstId(next);
                next += 1;
                let inst = producer(key);
                let deps = edm.decode(&inst, id);
                for s in deps.sources() {
                    prop_assert!(s < id);
                    prop_assert!(!completed.contains(&s));
                }
                decoded.push((inst, id));
            }
            EdmOp::DecodeConsumer { key } => {
                let id = InstId(next);
                next += 1;
                let inst = consumer(key);
                let deps = edm.decode(&inst, id);
                for s in deps.sources() {
                    prop_assert!(s < id);
                    prop_assert!(!completed.contains(&s));
                }
                decoded.push((inst, id));
            }
            EdmOp::RetireNext => {
                if !decoded.is_empty() {
                    let (inst, id) = decoded.remove(0);
                    // Pipelines skip the non-speculative replay for
                    // already-completed instructions (see
                    // `SpeculativeEdm::retire`'s contract).
                    if !completed.contains(&id) {
                        edm.retire(&inst, id);
                        nonspec_shadow.define(inst.edks.def, id);
                    }
                }
            }
            EdmOp::Complete { which } => {
                // Complete an arbitrary known instruction id.
                if next > 0 {
                    let id = InstId(u64::from(which) % next);
                    edm.complete(id);
                    nonspec_shadow.clear_matching(id);
                    if !completed.contains(&id) {
                        completed.push(id);
                    }
                }
            }
            EdmOp::Squash => {
                edm.squash();
                decoded.clear(); // squashed instructions never retire
                                 // After a squash, the speculative map equals the
                                 // non-speculative map.
                for k in Edk::live_keys() {
                    prop_assert_eq!(edm.spec().lookup(k), edm.nonspec().lookup(k));
                }
            }
        }
        // The shadow tracks the non-speculative copy exactly.
        for k in Edk::live_keys() {
            prop_assert_eq!(edm.nonspec().lookup(k), nonspec_shadow.lookup(k));
        }
    }
    Ok(())
}

property! {
    fn edm_state_machine(ops in check::vec(op_strategy(), 1..80)) {
        edm_state_machine_impl(&ops)?;
    }
}

/// Historical proptest counterexample (from the retired
/// `prop_edm.proptest-regressions` file): a completed-then-squashed
/// producer must not leave a stale speculative mapping behind.
#[test]
fn regression_complete_then_squash_consumer() {
    use EdmOp::*;
    edm_state_machine_impl(&[
        DecodeProducer { key: 3 },
        Complete { which: 0 },
        DecodeProducer { key: 1 },
        DecodeProducer { key: 1 },
        DecodeProducer { key: 1 },
        RetireNext,
        DecodeProducer { key: 1 },
        DecodeProducer { key: 1 },
        DecodeProducer { key: 1 },
        Squash,
        DecodeConsumer { key: 3 },
    ])
    .expect("regression case holds");
}
