//! Trace instructions: an AArch64 subset plus the EDE variants.

use crate::edk::{Edk, EdkPair};
use crate::reg::Reg;
use crate::VAddr;

/// The operation performed by an [`Inst`].
///
/// Memory operations carry their *resolved* virtual address and data values:
/// the simulator is trace driven, so dynamic resolution happened when the
/// workload generated the trace. Register operands still describe the
/// dataflow the out-of-order core must respect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// `mov dst, #imm` — materialize a constant.
    Mov {
        /// Destination register.
        dst: Reg,
        /// The immediate value.
        imm: u64,
    },
    /// `add dst, lhs, #imm` — address arithmetic / general ALU work.
    Add {
        /// Destination register.
        dst: Reg,
        /// Source register.
        lhs: Reg,
        /// Immediate addend.
        imm: u64,
    },
    /// `cmp lhs, rhs` — sets flags (modeled as a 1-cycle ALU op whose
    /// result feeds the next branch).
    Cmp {
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
    },
    /// `ldr dst, [base]` — 64-bit load. Supports the EDE load-consumer
    /// variant of §VIII-C (an extension beyond the paper's store/writeback
    /// variants, used by the hazard-pointer example).
    Ldr {
        /// Destination register.
        dst: Reg,
        /// Base address register (dataflow source).
        base: Reg,
        /// Resolved virtual address.
        addr: VAddr,
        /// The value the load observes (trace-resolved).
        value: u64,
    },
    /// `str src, [base]` — 64-bit store.
    Str {
        /// Data register (dataflow source).
        src: Reg,
        /// Base address register (dataflow source).
        base: Reg,
        /// Resolved virtual address.
        addr: VAddr,
        /// The value stored (feeds the crash-consistency checker).
        value: u64,
    },
    /// `stp src1, src2, [base]` — store pair, 16-byte aligned.
    Stp {
        /// First data register.
        src1: Reg,
        /// Second data register.
        src2: Reg,
        /// Base address register.
        base: Reg,
        /// Resolved virtual address (16-byte aligned).
        addr: VAddr,
        /// The two values stored at `addr` and `addr + 8`.
        values: [u64; 2],
    },
    /// `dc cvap, base` — Data or unified Cache line Clean by Virtual
    /// Address to the Point of Persistence (§II-A). Pushes the line to the
    /// NVM persistence domain; completes when persistence is guaranteed.
    DcCvap {
        /// Register holding the address (dataflow source).
        base: Reg,
        /// Resolved virtual address of the line to clean.
        addr: VAddr,
    },
    /// `dsb sy` — full data synchronization barrier: no younger instruction
    /// may execute until every older instruction (including `DC CVAP`
    /// persists) has completed.
    DsbSy,
    /// `dmb st` — store barrier: orders the visibility of stores relative
    /// to other stores only. Does **not** order `DC CVAP`, which is why the
    /// paper's `SU` configuration is crash-*unsafe* (§VI-C).
    DmbSt,
    /// `dmb sy` — full memory barrier: orders memory accesses (loads and
    /// stores) but, unlike `DSB`, not arbitrary instructions.
    DmbSy,
    /// `JOIN (EDK_def, EDK_use1, EDK_use2)` — waits on up to two producers;
    /// completes when both complete (§IV-B2). `EDK_def` and `EDK_use1`
    /// travel in the instruction's [`EdkPair`]; `use2` is the extra operand.
    Join {
        /// The second consumed key (`EDK_use2`).
        use2: Edk,
    },
    /// `WAIT_KEY (EDK)` — producer *and* consumer of `key`; completes only
    /// when **all** older producers of the key have completed (§IV-B2).
    /// Used at function-call boundaries (§IX-B).
    WaitKey {
        /// The key to synchronize on.
        key: Edk,
    },
    /// `WAIT_ALL_KEYS` — no younger consumer executes until all older
    /// producers and consumers complete (§IV-B2).
    WaitAllKeys,
    /// A conditional branch, trace-resolved. `mispredicted` branches
    /// trigger a pipeline squash (and an EDM repair) when they
    /// execute; the front end then re-fetches the correct (same) path.
    Branch {
        /// Whether the branch direction was mispredicted at fetch.
        mispredicted: bool,
    },
    /// No operation.
    Nop,
}

/// Coarse classification of an instruction, used by the pipeline model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstKind {
    /// Single-cycle integer ALU operation (`MOV`, `ADD`, `CMP`).
    Alu,
    /// A load (`LDR`).
    Load,
    /// A store (`STR`, `STP`).
    Store,
    /// A cache-line writeback to the persistence point (`DC CVAP`).
    Writeback,
    /// `DSB SY`.
    FenceFull,
    /// `DMB ST`.
    FenceStore,
    /// `DMB SY`.
    FenceMem,
    /// An EDE control instruction (`JOIN`, `WAIT_KEY`, `WAIT_ALL_KEYS`).
    EdeControl,
    /// A conditional branch.
    Branch,
    /// `NOP`.
    Nop,
}

/// A fully-described trace instruction: an operation plus its EDE key pair.
///
/// # Example
///
/// ```
/// use ede_isa::{Edk, EdkPair, Inst, InstKind, Op, Reg};
///
/// // str (0, 1), x3, [x0]  — the consumer store from Figure 7(b).
/// let i = Inst::with_edks(
///     Op::Str { src: Reg::x(3).unwrap(), base: Reg::x(0).unwrap(), addr: 0x2000, value: 6 },
///     EdkPair::consumer(Edk::new(1).unwrap()),
/// );
/// assert_eq!(i.kind(), InstKind::Store);
/// assert!(i.is_edk_consumer());
/// assert!(!i.is_edk_producer());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// The `(EDK_def, EDK_use)` pair; [`EdkPair::NONE`] for plain variants.
    pub edks: EdkPair,
}

impl Inst {
    /// A plain (non-EDE) instruction.
    pub fn plain(op: Op) -> Inst {
        Inst {
            op,
            edks: EdkPair::NONE,
        }
    }

    /// An EDE instruction variant carrying the given key pair.
    pub fn with_edks(op: Op, edks: EdkPair) -> Inst {
        Inst { op, edks }
    }

    /// The instruction's coarse kind.
    pub fn kind(&self) -> InstKind {
        match self.op {
            Op::Mov { .. } | Op::Add { .. } | Op::Cmp { .. } => InstKind::Alu,
            Op::Ldr { .. } => InstKind::Load,
            Op::Str { .. } | Op::Stp { .. } => InstKind::Store,
            Op::DcCvap { .. } => InstKind::Writeback,
            Op::DsbSy => InstKind::FenceFull,
            Op::DmbSt => InstKind::FenceStore,
            Op::DmbSy => InstKind::FenceMem,
            Op::Join { .. } | Op::WaitKey { .. } | Op::WaitAllKeys => InstKind::EdeControl,
            Op::Branch { .. } => InstKind::Branch,
            Op::Nop => InstKind::Nop,
        }
    }

    /// The destination register, if the instruction writes one.
    pub fn dst_reg(&self) -> Option<Reg> {
        match self.op {
            Op::Mov { dst, .. } | Op::Add { dst, .. } | Op::Ldr { dst, .. } => {
                if dst.is_zero() {
                    None
                } else {
                    Some(dst)
                }
            }
            _ => None,
        }
    }

    /// The source registers the instruction reads, in operand order.
    ///
    /// The zero register is omitted (it is always ready).
    pub fn src_regs(&self) -> SrcRegs {
        let raw: [Option<Reg>; 3] = match self.op {
            Op::Mov { .. }
            | Op::DsbSy
            | Op::DmbSt
            | Op::DmbSy
            | Op::Join { .. }
            | Op::WaitKey { .. }
            | Op::WaitAllKeys
            | Op::Branch { .. }
            | Op::Nop => [None, None, None],
            Op::Add { lhs, .. } => [Some(lhs), None, None],
            Op::Cmp { lhs, rhs } => [Some(lhs), Some(rhs), None],
            Op::Ldr { base, .. } => [Some(base), None, None],
            Op::Str { src, base, .. } => [Some(src), Some(base), None],
            Op::Stp {
                src1, src2, base, ..
            } => [Some(src1), Some(src2), Some(base)],
            Op::DcCvap { base, .. } => [Some(base), None, None],
        };
        SrcRegs { raw, next: 0 }
    }

    /// Whether this instruction is a dependence producer (defines a live
    /// key, or is a `WAIT_KEY`, which produces its own key).
    pub fn is_edk_producer(&self) -> bool {
        if self.edks.is_producer() {
            return true;
        }
        matches!(self.op, Op::WaitKey { .. })
    }

    /// Whether this instruction consumes at least one key.
    pub fn is_edk_consumer(&self) -> bool {
        if self.edks.is_consumer() {
            return true;
        }
        match self.op {
            Op::Join { use2 } => !use2.is_zero(),
            Op::WaitKey { .. } | Op::WaitAllKeys => true,
            _ => false,
        }
    }

    /// Whether the instruction takes any part in EDE (producer, consumer,
    /// or control).
    pub fn is_ede(&self) -> bool {
        self.is_edk_producer()
            || self.is_edk_consumer()
            || matches!(self.op, Op::WaitAllKeys | Op::Join { .. })
    }

    /// Whether EDE key operands are architecturally permitted on this
    /// opcode.
    ///
    /// The paper adds the `(EDK_def, EDK_use)` variant to stores and
    /// cache-line writebacks (§IV-B1); this implementation also permits it
    /// on loads, the §VIII-C extension. Control instructions carry keys by
    /// definition.
    pub fn edks_permitted(&self) -> bool {
        match self.kind() {
            InstKind::Store | InstKind::Writeback | InstKind::Load | InstKind::EdeControl => true,
            _ => self.edks.is_plain(),
        }
    }
}

/// Iterator over an instruction's source registers.
///
/// Returned by [`Inst::src_regs`]; yields at most three registers and skips
/// the zero register.
#[derive(Clone, Copy, Debug)]
pub struct SrcRegs {
    raw: [Option<Reg>; 3],
    next: usize,
}

impl Iterator for SrcRegs {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        while self.next < 3 {
            let slot = self.raw[self.next];
            self.next += 1;
            match slot {
                Some(r) if !r.is_zero() => return Some(r),
                _ => continue,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(n: u8) -> Reg {
        Reg::x(n).unwrap()
    }

    #[test]
    fn kinds() {
        assert_eq!(
            Inst::plain(Op::Mov { dst: x(1), imm: 4 }).kind(),
            InstKind::Alu
        );
        assert_eq!(Inst::plain(Op::DsbSy).kind(), InstKind::FenceFull);
        assert_eq!(Inst::plain(Op::DmbSt).kind(), InstKind::FenceStore);
        assert_eq!(Inst::plain(Op::WaitAllKeys).kind(), InstKind::EdeControl);
        assert_eq!(
            Inst::plain(Op::DcCvap {
                base: x(2),
                addr: 0x40
            })
            .kind(),
            InstKind::Writeback
        );
    }

    #[test]
    fn dst_and_src_regs() {
        let i = Inst::plain(Op::Str {
            src: x(3),
            base: x(0),
            addr: 0,
            value: 0,
        });
        assert_eq!(i.dst_reg(), None);
        let srcs: Vec<Reg> = i.src_regs().collect();
        assert_eq!(srcs, vec![x(3), x(0)]);

        let l = Inst::plain(Op::Ldr {
            dst: x(1),
            base: x(0),
            addr: 0,
            value: 9,
        });
        assert_eq!(l.dst_reg(), Some(x(1)));
        assert_eq!(l.src_regs().collect::<Vec<_>>(), vec![x(0)]);
    }

    #[test]
    fn zero_register_skipped() {
        let i = Inst::plain(Op::Str {
            src: Reg::XZR,
            base: x(0),
            addr: 0,
            value: 0,
        });
        assert_eq!(i.src_regs().collect::<Vec<_>>(), vec![x(0)]);

        let m = Inst::plain(Op::Mov {
            dst: Reg::XZR,
            imm: 1,
        });
        assert_eq!(m.dst_reg(), None);
    }

    #[test]
    fn stp_reports_three_sources() {
        let i = Inst::plain(Op::Stp {
            src1: x(0),
            src2: x(1),
            base: x(2),
            addr: 0x100,
            values: [1, 2],
        });
        assert_eq!(i.src_regs().count(), 3);
    }

    #[test]
    fn producer_consumer_classification() {
        let k = Edk::new(2).unwrap();
        let p = Inst::with_edks(
            Op::DcCvap {
                base: x(0),
                addr: 0,
            },
            EdkPair::producer(k),
        );
        assert!(p.is_edk_producer());
        assert!(!p.is_edk_consumer());
        assert!(p.is_ede());

        let c = Inst::with_edks(
            Op::Str {
                src: x(1),
                base: x(0),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(k),
        );
        assert!(c.is_edk_consumer());
        assert!(!c.is_edk_producer());
    }

    #[test]
    fn wait_key_is_both_producer_and_consumer() {
        let w = Inst::plain(Op::WaitKey {
            key: Edk::new(4).unwrap(),
        });
        assert!(w.is_edk_producer());
        assert!(w.is_edk_consumer());
        assert!(w.is_ede());
    }

    #[test]
    fn join_consumes_via_use2() {
        let j = Inst::with_edks(
            Op::Join {
                use2: Edk::new(2).unwrap(),
            },
            EdkPair::producer(Edk::new(3).unwrap()),
        );
        assert!(j.is_edk_consumer());
        assert!(j.is_edk_producer());
    }

    #[test]
    fn edks_permitted_only_on_memory_and_control() {
        let bad = Inst::with_edks(
            Op::Mov { dst: x(1), imm: 0 },
            EdkPair::producer(Edk::new(1).unwrap()),
        );
        assert!(!bad.edks_permitted());

        let ok = Inst::with_edks(
            Op::Ldr {
                dst: x(1),
                base: x(0),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(Edk::new(1).unwrap()),
        );
        assert!(ok.edks_permitted());

        let plain_alu = Inst::plain(Op::Add {
            dst: x(1),
            lhs: x(2),
            imm: 8,
        });
        assert!(plain_alu.edks_permitted());
    }
}
