//! Multi-threaded-coordination kernels (§VIII), modeled as the
//! single-core instruction streams their fences/EDE annotations produce.
//!
//! The paper's future-work section argues EDE eliminates fences well
//! beyond NVM: announcement-based reclamation (hazard pointers,
//! Figure 12), lock-free circular buffers, and seqlock-style publication
//! all need one specific ordering that today costs a full barrier. These
//! three kernels generate both lowerings:
//!
//! | config | lowering |
//! |--------|----------|
//! | B, SU  | the fence the algorithm needs today (`DMB SY` / `DMB ST`) |
//! | IQ, WB | the EDE store→load / store→store dependence (§VIII-A/-C) |
//! | U      | no ordering at all (what the fence costs, as a bound)     |
//!
//! They return an empty transaction record — there is no persistence
//! here, only ordering — so they plug into the same experiment harness.

use crate::{mispredict, rng_for, Workload, WorkloadParams};
use ede_isa::{ArchConfig, Edk, EdkPair, Inst, Op, TraceBuilder};
use ede_nvm::codegen::raw_output;
use ede_nvm::TxOutput;

/// Ordering flavor a lock-free kernel should emit for a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Flavor {
    Fenced,
    Ede,
    None,
}

fn flavor(arch: ArchConfig) -> Flavor {
    match arch {
        ArchConfig::Baseline | ArchConfig::StoreBarrierUnsafe => Flavor::Fenced,
        ArchConfig::IssueQueue | ArchConfig::WriteBuffer => Flavor::Ede,
        ArchConfig::Unsafe => Flavor::None,
    }
}

/// The Figure 12 hazard-pointer announcement loop: load the element's
/// location, announce it, and revalidate — with the revalidating load
/// ordered after the announcement.
#[derive(Clone, Copy, Debug, Default)]
pub struct HazardPointer;

impl Workload for HazardPointer {
    fn name(&self) -> &'static str {
        "hazptr"
    }

    fn description(&self) -> &'static str {
        "Hazard-pointer announcement (Figure 12): store -> load ordering."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut rng = rng_for(params, 0x4a5a);
        let mut b = TraceBuilder::new();
        let elem_ptr = 0x2000u64;
        let hazard = 0x3000u64;
        let elem = 0x1_0000_0040u64;
        let k = Edk::new(1).expect("key 1");
        for _ in 0..params.ops {
            let x1 = b.lea(elem_ptr);
            let x2 = b.lea(hazard);
            let x3 = b.load_from(x1, elem_ptr, elem);
            match flavor(arch) {
                Flavor::Fenced => {
                    b.push_raw(Inst::plain(Op::Str {
                        src: x3,
                        base: x2,
                        addr: hazard,
                        value: elem,
                    }));
                    b.dmb_sy();
                    b.load_from(x1, elem_ptr, elem);
                }
                Flavor::Ede => {
                    b.push_raw(Inst::with_edks(
                        Op::Str {
                            src: x3,
                            base: x2,
                            addr: hazard,
                            value: elem,
                        },
                        EdkPair::producer(k),
                    ));
                    b.load_from_edk(x1, elem_ptr, elem, EdkPair::consumer(k));
                }
                Flavor::None => {
                    b.push_raw(Inst::plain(Op::Str {
                        src: x3,
                        base: x2,
                        addr: hazard,
                        value: elem,
                    }));
                    b.load_from(x1, elem_ptr, elem);
                }
            }
            let l = b.mov_imm(elem);
            let r = b.mov_imm(elem);
            b.cmp_branch(l, r, mispredict(&mut rng, params));
            b.release(x1);
            b.release(x2);
            // Use the protected element: independent loads a fence would
            // needlessly serialize.
            for j in 0..3u64 {
                b.load(elem + 0x80 + j * 0x40, j);
            }
            b.compute_chain(4);
        }
        raw_output(b.finish())
    }
}

/// A single-producer circular-buffer push loop: write the payload, then
/// publish the head index — the store→store ordering kernels use `DMB
/// ST` for today (§VIII-B's tracing/logging buffers).
#[derive(Clone, Copy, Debug, Default)]
pub struct CircularBuffer;

impl Workload for CircularBuffer {
    fn name(&self) -> &'static str {
        "circbuf"
    }

    fn description(&self) -> &'static str {
        "Circular-buffer publication: payload store -> index store ordering."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut rng = rng_for(params, 0xc14c);
        let mut b = TraceBuilder::new();
        let slots = 64u64;
        let data = 0x8000u64;
        let head_ptr = 0x7000u64;
        let k = Edk::new(2).expect("key 2");
        for i in 0..params.ops as u64 {
            let slot = data + (i % slots) * 64;
            // Produce the payload (two words).
            b.compute_chain(3);
            let base = b.lea(slot);
            b.store_pair_to(base, slot, [i, i * 3]);
            b.release(base);
            match flavor(arch) {
                Flavor::Fenced => {
                    b.dmb_st();
                    b.store(head_ptr, i + 1);
                }
                Flavor::Ede => {
                    // Re-emit the payload store pair's publication edge:
                    // the head store consumes the key the payload store
                    // produced. (The STP above cannot carry the key and
                    // the data at once in this builder flow, so tag a
                    // byte-sized completion marker store instead.)
                    let mbase = b.lea(slot + 16);
                    b.store_to_edk(mbase, slot + 16, i, EdkPair::producer(k));
                    b.release(mbase);
                    b.store_consuming(head_ptr, i + 1, k);
                }
                Flavor::None => {
                    b.store(head_ptr, i + 1);
                }
            }
            let l = b.mov_imm(i);
            let r = b.mov_imm(i);
            b.cmp_branch(l, r, mispredict(&mut rng, params));
            // Unrelated work between pushes.
            b.load(0x9000 + (i % 8) * 0x40, i);
            b.compute_chain(3);
        }
        raw_output(b.finish())
    }
}

/// A seqlock-style writer: bump the sequence word, perform the data
/// stores, bump it again — two orderings per critical section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Seqlock;

impl Workload for Seqlock {
    fn name(&self) -> &'static str {
        "seqlock"
    }

    fn description(&self) -> &'static str {
        "Seqlock writer: seq++ -> data stores -> seq++ orderings."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut rng = rng_for(params, 0x5e9a);
        let mut b = TraceBuilder::new();
        let seq_ptr = 0x6000u64;
        let data = 0x6100u64;
        let k1 = Edk::new(3).expect("key 3");
        let k2 = Edk::new(4).expect("key 4");
        for i in 0..params.ops as u64 {
            match flavor(arch) {
                Flavor::Fenced => {
                    b.store(seq_ptr, 2 * i + 1);
                    b.dmb_st();
                    for w in 0..4u64 {
                        b.store(data + w * 8, i ^ w);
                    }
                    b.dmb_st();
                    b.store(seq_ptr, 2 * i + 2);
                }
                Flavor::Ede => {
                    let sbase = b.lea(seq_ptr);
                    b.store_to_edk(sbase, seq_ptr, 2 * i + 1, EdkPair::producer(k1));
                    b.release(sbase);
                    // The first data store consumes the odd-seq key and
                    // the last one produces the closing key.
                    let d0 = b.lea(data);
                    b.store_to_edk(d0, data, i, EdkPair::consumer(k1));
                    b.release(d0);
                    for w in 1..3u64 {
                        b.store(data + w * 8, i ^ w);
                    }
                    let d3 = b.lea(data + 24);
                    b.store_to_edk(d3, data + 24, i ^ 3, EdkPair::producer(k2));
                    b.release(d3);
                    b.store_consuming(seq_ptr, 2 * i + 2, k2);
                }
                Flavor::None => {
                    b.store(seq_ptr, 2 * i + 1);
                    for w in 0..4u64 {
                        b.store(data + w * 8, i ^ w);
                    }
                    b.store(seq_ptr, 2 * i + 2);
                }
            }
            let l = b.mov_imm(i);
            let r = b.mov_imm(i);
            b.cmp_branch(l, r, mispredict(&mut rng, params));
            b.load(0xa000 + (i % 16) * 0x40, i);
            b.compute_chain(5);
        }
        raw_output(b.finish())
    }
}

/// The §VIII kernel suite.
pub fn lockfree_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(HazardPointer),
        Box::new(CircularBuffer),
        Box::new(Seqlock),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::InstKind;

    fn params() -> WorkloadParams {
        WorkloadParams {
            ops: 20,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn fenced_flavors_contain_fences_ede_do_not() {
        for w in lockfree_suite() {
            let fenced = w.generate(&params(), ArchConfig::Baseline).program;
            let ede = w.generate(&params(), ArchConfig::WriteBuffer).program;
            let fences = |p: &ede_isa::Program| {
                p.iter()
                    .filter(|(_, i)| matches!(i.kind(), InstKind::FenceMem | InstKind::FenceStore))
                    .count()
            };
            assert!(fences(&fenced) >= 20, "{}", w.name());
            assert_eq!(fences(&ede), 0, "{}", w.name());
            assert!(
                ede.iter().any(|(_, i)| i.is_ede()),
                "{}: EDE flavor must use keys",
                w.name()
            );
        }
    }

    #[test]
    fn ede_flavors_encode_the_required_orderings() {
        use ede_core::ordering::execution_deps;
        for w in lockfree_suite() {
            let p = w.generate(&params(), ArchConfig::IssueQueue).program;
            let deps = execution_deps(&p);
            assert!(
                deps.len() >= 20,
                "{}: one dependence per round, got {}",
                w.name(),
                deps.len()
            );
        }
    }

    #[test]
    fn unsafe_flavor_has_no_ordering() {
        for w in lockfree_suite() {
            let p = w.generate(&params(), ArchConfig::Unsafe).program;
            assert!(p.iter().all(|(_, i)| !i.is_ede()));
            assert!(p.iter().all(|(_, i)| !matches!(
                i.kind(),
                InstKind::FenceMem | InstKind::FenceStore | InstKind::FenceFull
            )));
        }
    }

    #[test]
    fn traces_validate() {
        for w in lockfree_suite() {
            for arch in ArchConfig::ALL {
                assert!(w.generate(&params(), arch).program.validate().is_ok());
            }
        }
    }
}
