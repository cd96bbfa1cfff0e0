//! The golden model: an architectural in-order interpreter.
//!
//! Executes a trace-resolved [`Program`] one instruction at a time, in
//! program order, with no pipeline, no speculation, and no buffering.
//! Because every EDE mechanism (keys, `JOIN`, `WAIT_*`) and every fence
//! is a *relaxation* of sequential execution, the in-order semantics are
//! trivially correct — which is exactly what makes this a usable oracle:
//! any observable divergence between a pipeline run and the golden run on
//! final state, per-address store sequences, or persist counts is a
//! pipeline bug (or a generator bug, which the interpreter also flags by
//! validating the trace-resolved values against its own dataflow).

use ede_isa::{InstId, Op, Program, Reg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Interpreter parameters: where NVM begins and the persist granularity.
/// Defaults match `MemConfig::a72_hybrid` / `Layout::standard`.
#[derive(Clone, Debug)]
pub struct GoldenConfig {
    /// First NVM address; stores below it are volatile-only.
    pub nvm_base: u64,
    /// Cache-line (persist) granularity in bytes.
    pub line_bytes: u64,
    /// Whether to validate that base/source registers hold the resolved
    /// address/value of each memory instruction. True for `TraceBuilder`
    /// programs (where `lea` materializes exact addresses); disable for
    /// generators that form addresses with pointer arithmetic the
    /// interpreter cannot reconstruct.
    pub strict_registers: bool,
}

impl Default for GoldenConfig {
    fn default() -> Self {
        GoldenConfig {
            nvm_base: 0x1_0000_0000,
            line_bytes: 64,
            strict_registers: true,
        }
    }
}

/// Trace inconsistency found while interpreting: the instruction's
/// resolved address/value disagrees with sequential dataflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GoldenError {
    /// A load's trace-resolved value differs from sequential memory.
    LoadMismatch {
        /// The load.
        id: InstId,
        /// The word address read.
        addr: u64,
        /// What the trace says the load observed.
        trace: u64,
        /// What sequential execution holds at `addr`.
        model: u64,
    },
    /// A memory instruction's base register does not hold its resolved
    /// address.
    BaseMismatch {
        /// The memory instruction.
        id: InstId,
        /// Its base register.
        reg: Reg,
        /// The register's sequential value.
        model: u64,
        /// The trace-resolved address.
        addr: u64,
    },
    /// A store's source register does not hold its trace-resolved value.
    SrcMismatch {
        /// The store.
        id: InstId,
        /// Its data register.
        reg: Reg,
        /// The register's sequential value.
        model: u64,
        /// The trace-resolved stored value.
        value: u64,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::LoadMismatch {
                id,
                addr,
                trace,
                model,
            } => write!(
                f,
                "{id}: load of {addr:#x} resolved to {trace} but sequential memory holds {model}"
            ),
            GoldenError::BaseMismatch {
                id,
                reg,
                model,
                addr,
            } => write!(
                f,
                "{id}: base {reg} holds {model:#x} but the resolved address is {addr:#x}"
            ),
            GoldenError::SrcMismatch {
                id,
                reg,
                model,
                value,
            } => write!(
                f,
                "{id}: source {reg} holds {model} but the resolved store value is {value}"
            ),
        }
    }
}

impl std::error::Error for GoldenError {}

/// Everything sequential execution of a program produces.
#[derive(Clone, Debug, Default)]
pub struct GoldenRun {
    /// Final register file (`x31` is the always-zero register).
    pub regs: [u64; 32],
    /// Final volatile memory: word address → value. Addresses a load
    /// touched before any store are *learned* from the trace (they
    /// represent initial memory) and thereafter enforced.
    pub mem: BTreeMap<u64, u64>,
    /// Final persisted NVM image: word address → value, built by applying
    /// each `DC CVAP` of a dirty NVM line in program order. Words never
    /// persisted are absent.
    pub nvm_image: BTreeMap<u64, u64>,
    /// `DC CVAP` persists in program order: `(instruction, line)`. Clean
    /// and non-NVM cvaps do not appear (they persist nothing).
    pub persist_order: Vec<(InstId, u64)>,
    /// Committed stores in program order: `(id, addr, values, width)`.
    pub stores: Vec<(InstId, u64, [u64; 2], u8)>,
}

impl GoldenRun {
    /// Per-word-address store value sequences, in program order. A
    /// coherent pipeline must make same-address stores visible in exactly
    /// this order (same-address coherence), whatever it does across
    /// addresses.
    pub fn value_seqs(&self) -> BTreeMap<u64, Vec<u64>> {
        let mut seqs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(_, addr, values, width) in &self.stores {
            seqs.entry(addr).or_default().push(values[0]);
            if width == 16 {
                seqs.entry(addr + 8).or_default().push(values[1]);
            }
        }
        seqs
    }

    /// Number of persist events per line.
    pub fn persist_counts(&self) -> BTreeMap<u64, usize> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(_, line) in &self.persist_order {
            *counts.entry(line).or_default() += 1;
        }
        counts
    }
}

/// Interprets `program` sequentially from zeroed registers and empty
/// memory.
///
/// # Errors
///
/// The first trace inconsistency found (see [`GoldenError`]); a
/// well-formed trace-resolved program never errors.
pub fn run(program: &Program, cfg: &GoldenConfig) -> Result<GoldenRun, GoldenError> {
    run_with_memory(program, cfg, std::iter::empty())
}

/// Interprets `program` with `init` pre-loaded into memory (for programs
/// whose generator seeded memory outside the instruction stream).
///
/// # Errors
///
/// See [`run`].
fn run_with_memory(
    program: &Program,
    cfg: &GoldenConfig,
    init: impl IntoIterator<Item = (u64, u64)>,
) -> Result<GoldenRun, GoldenError> {
    let mut g = GoldenRun::default();
    g.mem.extend(init);
    // Dirty NVM lines: written since their last cvap.
    let mut dirty: BTreeSet<u64> = BTreeSet::new();
    // Words written by a store instruction. The persist image only
    // covers these: a word that still holds initial memory (seeded or
    // learned from a load) persists as "absent" — the reconstruction in
    // `nvm_image_at` reports deltas from initial contents, and the
    // golden image must speak the same language.
    let mut stored: BTreeSet<u64> = BTreeSet::new();
    let line_of = |addr: u64| addr & !(cfg.line_bytes - 1);

    let read = |regs: &[u64; 32], r: Reg| {
        if r.is_zero() {
            0
        } else {
            regs[r.index() as usize]
        }
    };
    let check_base = |regs: &[u64; 32], id: InstId, reg: Reg, addr: u64| {
        let model = read(regs, reg);
        if cfg.strict_registers && model != addr {
            return Err(GoldenError::BaseMismatch {
                id,
                reg,
                model,
                addr,
            });
        }
        Ok(())
    };

    for (id, inst) in program.iter() {
        match inst.op {
            Op::Mov { dst, imm } => {
                if !dst.is_zero() {
                    g.regs[dst.index() as usize] = imm;
                }
            }
            Op::Add { dst, lhs, imm } => {
                let v = read(&g.regs, lhs).wrapping_add(imm);
                if !dst.is_zero() {
                    g.regs[dst.index() as usize] = v;
                }
            }
            Op::Cmp { .. } => {} // flags feed the trace-resolved branch
            Op::Ldr {
                dst,
                base,
                addr,
                value,
            } => {
                check_base(&g.regs, id, base, addr)?;
                match g.mem.get(&addr) {
                    Some(&model) if model != value => {
                        return Err(GoldenError::LoadMismatch {
                            id,
                            addr,
                            trace: value,
                            model,
                        });
                    }
                    Some(_) => {}
                    // First touch: the trace value *is* initial memory.
                    None => {
                        g.mem.insert(addr, value);
                    }
                }
                if !dst.is_zero() {
                    g.regs[dst.index() as usize] = value;
                }
            }
            Op::Str {
                src,
                base,
                addr,
                value,
            } => {
                check_base(&g.regs, id, base, addr)?;
                let model = read(&g.regs, src);
                if cfg.strict_registers && model != value {
                    return Err(GoldenError::SrcMismatch {
                        id,
                        reg: src,
                        model,
                        value,
                    });
                }
                g.mem.insert(addr, value);
                stored.insert(addr);
                if addr >= cfg.nvm_base {
                    dirty.insert(line_of(addr));
                }
                g.stores.push((id, addr, [value, 0], 8));
            }
            Op::Stp {
                src1,
                src2,
                base,
                addr,
                values,
            } => {
                check_base(&g.regs, id, base, addr)?;
                for (src, v) in [(src1, values[0]), (src2, values[1])] {
                    let model = read(&g.regs, src);
                    if cfg.strict_registers && model != v {
                        return Err(GoldenError::SrcMismatch {
                            id,
                            reg: src,
                            model,
                            value: v,
                        });
                    }
                }
                g.mem.insert(addr, values[0]);
                g.mem.insert(addr + 8, values[1]);
                stored.insert(addr);
                stored.insert(addr + 8);
                if addr >= cfg.nvm_base {
                    dirty.insert(line_of(addr));
                    dirty.insert(line_of(addr + 8));
                }
                g.stores.push((id, addr, values, 16));
            }
            Op::DcCvap { base, addr } => {
                check_base(&g.regs, id, base, addr)?;
                let line = line_of(addr);
                // A clean or non-NVM line persists nothing (matches the
                // memory system: no persist event is recorded).
                if addr >= cfg.nvm_base && dirty.remove(&line) {
                    g.persist_order.push((id, line));
                    for off in (0..cfg.line_bytes).step_by(8) {
                        let w = line + off;
                        if stored.contains(&w) {
                            if let Some(&v) = g.mem.get(&w) {
                                g.nvm_image.insert(w, v);
                            }
                        }
                    }
                }
            }
            // Fences and EDE controls order execution; sequential
            // execution already satisfies every ordering they demand.
            Op::DsbSy
            | Op::DmbSt
            | Op::DmbSy
            | Op::Join { .. }
            | Op::WaitKey { .. }
            | Op::WaitAllKeys
            | Op::Branch { .. }
            | Op::Nop => {}
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{Edk, TraceBuilder};

    const NVM: u64 = 0x1_0000_0000;

    fn k(n: u8) -> Edk {
        Edk::new(n).unwrap()
    }

    #[test]
    fn store_cvap_builds_image_in_program_order() {
        let mut b = TraceBuilder::new();
        b.store(NVM, 7);
        b.store(NVM + 8, 8);
        b.cvap_producing(NVM, k(1));
        b.store(NVM + 0x40, 9); // next line, never flushed
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert_eq!(g.nvm_image.get(&NVM), Some(&7));
        assert_eq!(g.nvm_image.get(&(NVM + 8)), Some(&8)); // same line
        assert_eq!(g.nvm_image.get(&(NVM + 0x40)), None); // dirty, unflushed
        assert_eq!(g.persist_order.len(), 1);
        assert_eq!(g.stores.len(), 3);
    }

    #[test]
    fn clean_cvap_persists_nothing() {
        let mut b = TraceBuilder::new();
        b.store(NVM, 1);
        b.cvap(NVM);
        b.cvap(NVM); // second flush: the line is clean now
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert_eq!(g.persist_order.len(), 1);
    }

    #[test]
    fn dram_store_never_persists() {
        let mut b = TraceBuilder::new();
        b.store(0x1000, 5);
        b.cvap(0x1000);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert!(g.persist_order.is_empty());
        assert!(g.nvm_image.is_empty());
        assert_eq!(g.mem.get(&0x1000), Some(&5));
    }

    #[test]
    fn load_learns_initial_memory_then_enforces_it() {
        let mut b = TraceBuilder::new();
        b.load(NVM, 42); // first touch: learned
        b.load(NVM, 42); // consistent re-read
        let p = b.finish();
        assert!(run(&p, &GoldenConfig::default()).is_ok());

        let mut b = TraceBuilder::new();
        b.load(NVM, 42);
        b.load(NVM, 43); // inconsistent
        let err = run(&b.finish(), &GoldenConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            GoldenError::LoadMismatch {
                trace: 43,
                model: 42,
                ..
            }
        ));
    }

    #[test]
    fn load_sees_older_store() {
        let mut b = TraceBuilder::new();
        b.store(NVM, 9);
        b.load(NVM, 9);
        assert!(run(&b.finish(), &GoldenConfig::default()).is_ok());

        let mut b = TraceBuilder::new();
        b.store(NVM, 9);
        b.load(NVM, 1);
        assert!(run(&b.finish(), &GoldenConfig::default()).is_err());
    }

    #[test]
    fn value_seqs_track_same_address_order() {
        let mut b = TraceBuilder::new();
        b.store(NVM, 1);
        b.store(NVM, 2);
        b.store(NVM + 8, 3);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        let seqs = g.value_seqs();
        assert_eq!(seqs[&NVM], vec![1, 2]);
        assert_eq!(seqs[&(NVM + 8)], vec![3]);
    }

    #[test]
    fn stp_writes_both_words() {
        let mut b = TraceBuilder::new();
        let base = b.lea(NVM + 16);
        b.store_pair_to(base, NVM + 16, [4, 5]);
        b.release(base);
        b.cvap(NVM + 16);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert_eq!(g.nvm_image.get(&(NVM + 16)), Some(&4));
        assert_eq!(g.nvm_image.get(&(NVM + 24)), Some(&5));
    }

    #[test]
    fn learned_initial_memory_stays_out_of_the_persist_image() {
        // Fuzzer-found (seed 0, WeakDsb hunt): a load *learns* a word on
        // the same line as a later store+cvap. The persist image reports
        // deltas from initial NVM contents, so the learned word — still
        // holding its initial value — must stay absent, exactly as
        // `nvm_image_at` leaves never-stored words absent.
        let mut b = TraceBuilder::new();
        b.load(NVM + 8, 0); // learned initial memory, same line
        b.store(NVM, 1);
        b.cvap(NVM);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert_eq!(g.nvm_image.get(&NVM), Some(&1));
        assert_eq!(g.nvm_image.get(&(NVM + 8)), None);
    }

    #[test]
    fn init_memory_is_respected() {
        let mut b = TraceBuilder::new();
        b.load(0x2000, 77);
        let p = b.finish();
        assert!(run_with_memory(&p, &GoldenConfig::default(), [(0x2000u64, 77u64)]).is_ok());
        assert!(run_with_memory(&p, &GoldenConfig::default(), [(0x2000u64, 78u64)]).is_err());
    }
}
