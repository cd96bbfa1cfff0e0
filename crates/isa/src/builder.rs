//! A tiny assembler for building instruction traces.

use crate::edk::{Edk, EdkPair};
use crate::inst::{Inst, Op};
use crate::program::{InstId, Program};
use crate::reg::Reg;
use crate::VAddr;

/// Builds instruction traces with realistic register dataflow.
///
/// The builder plays the role of the compiler back end in the paper's
/// toolchain (§VI-A): the NVM framework and the workloads call its methods
/// to lower high-level operations (log writes, element updates, fences,
/// EDE-annotated persists) into AArch64-like instruction sequences.
///
/// A rotating register allocator hands out destination registers. Because
/// the core model renames at decode, register reuse after rotation is
/// harmless for correctness; what matters is that each emitted sequence
/// carries the same *true* dependences the paper's Figure 5 shows (value
/// and address materialization feeding stores, etc.). Long-lived base
/// registers can be pinned so rotation never hands them out while a caller
/// still holds them.
///
/// # Example
///
/// Building the heart of Figure 4 — log a value with `STP` + `DC CVAP`,
/// then update it:
///
/// ```
/// use ede_isa::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let slot = b.lea(0x1_0000_0040);            // x_slot = &log slot
/// b.store_pair_to(slot, 0x1_0000_0040, [0xdead, 6]); // stp addr,val -> slot
/// b.cvap_to(slot, 0x1_0000_0040);             // dc cvap, x_slot
/// b.dsb_sy();                                  // wait for slot to persist
/// b.release(slot);
/// let p = b.finish();
/// assert!(p.len() >= 5);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    program: Program,
    /// Next rotation candidate among the allocatable registers.
    cursor: u8,
    /// Registers currently pinned (excluded from rotation).
    pinned: Vec<bool>,
}

/// Registers handed out by rotation: `X1`..=`X28`. `X0`, `X29`, `X30` are
/// left out to mirror their conventional roles (argument/frame/link).
const ROTATION_FIRST: u8 = 1;
const ROTATION_LAST: u8 = 28;

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder {
            program: Program::new(),
            cursor: ROTATION_FIRST,
            pinned: vec![false; Reg::NUM_GPRS as usize],
        }
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// The id the *next* emitted instruction will receive.
    pub fn next_id(&self) -> InstId {
        InstId(self.program.len() as u64)
    }

    /// Finishes the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace fails static validation (EDE keys on an opcode
    /// that does not admit them) — this is a bug in the calling lowering
    /// code, not a runtime condition.
    pub fn finish(self) -> Program {
        if let Err(id) = self.program.validate() {
            panic!("malformed trace: instruction {id} carries EDE keys on a non-EDE opcode");
        }
        self.program
    }

    /// Appends a raw instruction (escape hatch for tests and examples).
    pub fn push_raw(&mut self, inst: Inst) -> InstId {
        self.program.push(inst)
    }

    fn alloc(&mut self) -> Reg {
        // Rotate over X1..=X28, skipping pinned registers. With at most a
        // handful of pins live at once this always terminates.
        for _ in 0..=(ROTATION_LAST - ROTATION_FIRST + 1) {
            let idx = self.cursor;
            self.cursor = if self.cursor >= ROTATION_LAST {
                ROTATION_FIRST
            } else {
                self.cursor + 1
            };
            if !self.pinned[idx as usize] {
                return Reg::x(idx).expect("rotation stays in bounds");
            }
        }
        panic!("all rotation registers are pinned");
    }

    /// Releases a pinned register back to the rotation pool. No-op for
    /// unpinned registers.
    pub fn release(&mut self, reg: Reg) {
        if !reg.is_zero() {
            self.pinned[reg.index() as usize] = false;
        }
    }

    // ---- value / address materialization -------------------------------

    /// `mov dst, #imm` into a fresh register.
    pub fn mov_imm(&mut self, imm: u64) -> Reg {
        let dst = self.alloc();
        self.program.push(Inst::plain(Op::Mov { dst, imm }));
        dst
    }

    /// Materializes an address into a fresh *pinned* register, which stays
    /// out of the rotation pool until [`release`](Self::release)d.
    pub fn lea(&mut self, addr: VAddr) -> Reg {
        let dst = self.alloc();
        self.pinned[dst.index() as usize] = true;
        self.program.push(Inst::plain(Op::Mov { dst, imm: addr }));
        dst
    }

    // ---- loads ----------------------------------------------------------

    /// `ldr dst, [base]`: loads `value` (trace-resolved) from `addr`.
    pub fn load_from(&mut self, base: Reg, addr: VAddr, value: u64) -> Reg {
        self.load_from_edk(base, addr, value, EdkPair::NONE)
    }

    /// EDE load variant (§VIII-C extension): `ldr (def, use), dst, [base]`.
    pub fn load_from_edk(&mut self, base: Reg, addr: VAddr, value: u64, edks: EdkPair) -> Reg {
        let dst = self.alloc();
        self.program.push(Inst::with_edks(
            Op::Ldr {
                dst,
                base,
                addr,
                value,
            },
            edks,
        ));
        dst
    }

    /// Materializes the address and loads from it.
    pub fn load(&mut self, addr: VAddr, value: u64) -> Reg {
        let base = self.lea(addr);
        let dst = self.load_from(base, addr, value);
        self.release(base);
        dst
    }

    // ---- stores ---------------------------------------------------------

    /// `mov` + `str src, [base]` with explicit EDE keys.
    pub fn store_to_edk(&mut self, base: Reg, addr: VAddr, value: u64, edks: EdkPair) -> InstId {
        let src = self.mov_imm(value);
        self.program.push(Inst::with_edks(
            Op::Str {
                src,
                base,
                addr,
                value,
            },
            edks,
        ))
    }

    /// `mov` + plain `str src, [base]`.
    pub fn store_to(&mut self, base: Reg, addr: VAddr, value: u64) -> InstId {
        self.store_to_edk(base, addr, value, EdkPair::NONE)
    }

    /// Materializes the address and stores to it (plain variant).
    pub fn store(&mut self, addr: VAddr, value: u64) -> InstId {
        let base = self.lea(addr);
        let id = self.store_to(base, addr, value);
        self.release(base);
        id
    }

    /// Store consuming an EDK: `str (0, k), …` — the Figure 7(b) pattern.
    pub fn store_consuming(&mut self, addr: VAddr, value: u64, key: Edk) -> InstId {
        let base = self.lea(addr);
        let id = self.store_to_edk(base, addr, value, EdkPair::consumer(key));
        self.release(base);
        id
    }

    /// `stp src1, src2, [base]` with explicit keys; `addr` must be
    /// 16-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 16-byte aligned (AArch64 `STP` alignment,
    /// which Figure 4 relies on to keep both stored words in one line).
    pub fn store_pair_to_edk(
        &mut self,
        base: Reg,
        addr: VAddr,
        values: [u64; 2],
        edks: EdkPair,
    ) -> InstId {
        assert_eq!(
            addr % 16,
            0,
            "STP address {addr:#x} must be 16-byte aligned"
        );
        let src1 = self.mov_imm(values[0]);
        let src2 = self.mov_imm(values[1]);
        self.program.push(Inst::with_edks(
            Op::Stp {
                src1,
                src2,
                base,
                addr,
                values,
            },
            edks,
        ))
    }

    /// Plain store pair.
    pub fn store_pair_to(&mut self, base: Reg, addr: VAddr, values: [u64; 2]) -> InstId {
        self.store_pair_to_edk(base, addr, values, EdkPair::NONE)
    }

    // ---- cache-line writebacks ------------------------------------------

    /// `dc cvap, base` with explicit keys.
    pub fn cvap_to_edk(&mut self, base: Reg, addr: VAddr, edks: EdkPair) -> InstId {
        self.program
            .push(Inst::with_edks(Op::DcCvap { base, addr }, edks))
    }

    /// Plain `dc cvap, base`.
    pub fn cvap_to(&mut self, base: Reg, addr: VAddr) -> InstId {
        self.cvap_to_edk(base, addr, EdkPair::NONE)
    }

    /// Materializes the address and cleans its line (plain variant).
    pub fn cvap(&mut self, addr: VAddr) -> InstId {
        let base = self.lea(addr);
        let id = self.cvap_to(base, addr);
        self.release(base);
        id
    }

    /// `dc cvap (k, 0), …` — a writeback producing a key, the Figure 7(a)
    /// pattern.
    pub fn cvap_producing(&mut self, addr: VAddr, key: Edk) -> InstId {
        let base = self.lea(addr);
        let id = self.cvap_to_edk(base, addr, EdkPair::producer(key));
        self.release(base);
        id
    }

    // ---- fences ---------------------------------------------------------

    /// `dsb sy` — full data synchronization barrier.
    pub fn dsb_sy(&mut self) -> InstId {
        self.program.push(Inst::plain(Op::DsbSy))
    }

    /// `dmb st` — store barrier.
    pub fn dmb_st(&mut self) -> InstId {
        self.program.push(Inst::plain(Op::DmbSt))
    }

    /// `dmb sy` — full memory barrier.
    pub fn dmb_sy(&mut self) -> InstId {
        self.program.push(Inst::plain(Op::DmbSy))
    }

    // ---- EDE control instructions ---------------------------------------

    /// `JOIN (def, use1, use2)`.
    pub fn join(&mut self, def: Edk, use1: Edk, use2: Edk) -> InstId {
        self.program
            .push(Inst::with_edks(Op::Join { use2 }, EdkPair::new(def, use1)))
    }

    /// `WAIT_KEY (key)`.
    pub fn wait_key(&mut self, key: Edk) -> InstId {
        self.program.push(Inst::plain(Op::WaitKey { key }))
    }

    /// `WAIT_ALL_KEYS`.
    pub fn wait_all_keys(&mut self) -> InstId {
        self.program.push(Inst::plain(Op::WaitAllKeys))
    }

    // ---- control flow & filler compute ----------------------------------

    /// `cmp lhs, rhs` followed by a conditional branch with the given
    /// (trace-resolved) misprediction outcome.
    pub fn cmp_branch(&mut self, lhs: Reg, rhs: Reg, mispredicted: bool) -> InstId {
        self.program.push(Inst::plain(Op::Cmp { lhs, rhs }));
        self.program.push(Inst::plain(Op::Branch { mispredicted }))
    }

    /// Emits `n` dependent `add` instructions (a serial compute chain), as
    /// filler work between memory operations.
    pub fn compute_chain(&mut self, n: usize) -> Option<Reg> {
        if n == 0 {
            return None;
        }
        let mut r = self.mov_imm(1);
        for _ in 1..n {
            let dst = self.alloc();
            self.program.push(Inst::plain(Op::Add {
                dst,
                lhs: r,
                imm: 3,
            }));
            r = dst;
        }
        Some(r)
    }

    /// `nop`.
    pub fn nop(&mut self) -> InstId {
        self.program.push(Inst::plain(Op::Nop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstKind;

    #[test]
    fn figure4_sequence_shape() {
        // p_array[0] = 6 from Figure 4: ldr, stp, cvap, dsb, mov, str, cvap.
        let elem = 0x1_0000_1000u64;
        let slot = 0x1_0000_2000u64;
        let mut b = TraceBuilder::new();
        let xp = b.lea(elem);
        let old = b.load_from(xp, elem, 9);
        let _ = old;
        let xs = b.lea(slot);
        b.store_pair_to(xs, slot, [elem, 9]);
        b.cvap_to(xs, slot);
        b.dsb_sy();
        b.store_to(xp, elem, 6);
        b.cvap_to(xp, elem);
        b.release(xp);
        b.release(xs);
        let p = b.finish();
        let kinds: Vec<InstKind> = p.iter().map(|(_, i)| i.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                InstKind::Alu,       // lea elem
                InstKind::Load,      // ldr old
                InstKind::Alu,       // lea slot
                InstKind::Alu,       // mov addr
                InstKind::Alu,       // mov val
                InstKind::Store,     // stp
                InstKind::Writeback, // cvap slot
                InstKind::FenceFull, // dsb
                InstKind::Alu,       // mov 6
                InstKind::Store,     // str
                InstKind::Writeback, // cvap elem
            ]
        );
    }

    #[test]
    fn figure7_ede_sequence_has_no_fence() {
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.cvap_producing(0x1_0000_2000, k);
        b.store_consuming(0x1_0000_1000, 6, k);
        let p = b.finish();
        assert!(p.iter().all(|(_, i)| i.kind() != InstKind::FenceFull));
        let cvap = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Writeback)
            .unwrap()
            .1;
        assert!(cvap.is_edk_producer());
        let store = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Store)
            .unwrap()
            .1;
        assert!(store.is_edk_consumer());
    }

    #[test]
    fn store_dataflow_links_value_and_address() {
        let mut b = TraceBuilder::new();
        b.store(0x1_0000_0000, 77);
        let p = b.finish();
        // lea (mov), mov value, str reading both.
        assert_eq!(p.len(), 3);
        let str_inst = &p[crate::program::InstId(2)];
        let srcs: Vec<Reg> = str_inst.src_regs().collect();
        assert_eq!(srcs.len(), 2);
        let lea_dst = p[crate::program::InstId(0)].dst_reg().unwrap();
        let val_dst = p[crate::program::InstId(1)].dst_reg().unwrap();
        assert!(srcs.contains(&lea_dst));
        assert!(srcs.contains(&val_dst));
    }

    #[test]
    fn pinning_protects_base_registers() {
        let mut b = TraceBuilder::new();
        let base = b.lea(0x1000);
        // Allocate enough temporaries to wrap the rotation.
        for i in 0..64 {
            b.mov_imm(i);
        }
        // The base register must never have been handed out again.
        let p_len = b.len();
        b.store_to(base, 0x1000, 1);
        b.release(base);
        let p = b.finish();
        let mut defs_of_base = 0;
        for (id, inst) in p.iter() {
            if id.index() < p_len && inst.dst_reg() == Some(base) {
                defs_of_base += 1;
            }
        }
        assert_eq!(defs_of_base, 1, "pinned base redefined by rotation");
    }

    #[test]
    #[should_panic(expected = "16-byte aligned")]
    fn stp_rejects_unaligned() {
        let mut b = TraceBuilder::new();
        let base = b.lea(0x1008);
        b.store_pair_to(base, 0x1008, [1, 2]);
    }

    #[test]
    fn compute_chain_is_serial() {
        let mut b = TraceBuilder::new();
        let out = b.compute_chain(5).unwrap();
        let p = b.finish();
        assert_eq!(p.len(), 5);
        // Each add reads the previous destination.
        let mut prev = p[crate::program::InstId(0)].dst_reg().unwrap();
        for i in 1..5 {
            let inst = &p[crate::program::InstId(i)];
            assert_eq!(inst.src_regs().collect::<Vec<_>>(), vec![prev]);
            prev = inst.dst_reg().unwrap();
        }
        assert_eq!(prev, out);
        assert!(b"x".len() == 1); // keep clippy quiet about unused mut heuristics
    }

    #[test]
    fn cmp_branch_emits_two_instructions() {
        let mut b = TraceBuilder::new();
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
        let p = b.finish();
        assert_eq!(p.len(), 4);
        assert_eq!(p[crate::program::InstId(2)].kind(), InstKind::Alu);
        assert_eq!(p[crate::program::InstId(3)].kind(), InstKind::Branch);
    }

    #[test]
    fn join_and_waits() {
        let mut b = TraceBuilder::new();
        let k1 = Edk::new(1).unwrap();
        let k2 = Edk::new(2).unwrap();
        let k3 = Edk::new(3).unwrap();
        b.join(k3, k1, k2);
        b.wait_key(k3);
        b.wait_all_keys();
        let p = b.finish();
        assert!(p.iter().all(|(_, i)| i.kind() == InstKind::EdeControl));
    }
}
