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
//!
//! The interpreter records what it executes as a [`PersistTrace`], the
//! same event record the memory system emits, with one instruction per
//! cycle. It decides on its own which stores and persists happen and in
//! which order; what a persist of a line makes durable is
//! `ede_mem::trace`'s rule, so the golden side of conformance axioms 4–6
//! is this trace replayed by the same [`ImageCursor`] that replays the
//! pipeline's. `crates/mem/tests/prop_mem.rs` checks that replay against
//! an independent reference.
//!
//! [`ImageCursor`]: ede_mem::trace::ImageCursor

use ede_isa::{InstId, Op, Program, Reg};
use ede_mem::trace::{PersistEvent, PersistTrace, StoreEvent};
use ede_nvm::Layout;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The persist granularity: one 64-byte cache line, as in
/// `MemConfig::a72_hybrid`.
pub(crate) const LINE_BYTES: u64 = 64;

/// Interpreter parameters. NVM begins at `Layout::standard().nvm_base`
/// and persists cover one 64-byte line.
#[derive(Clone, Debug)]
pub struct GoldenConfig {
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
    /// Every committed store and every `DC CVAP` of a dirty NVM line, in
    /// program order, each stamped with its instruction's id as the
    /// cycle. Clean and non-NVM cvaps persist nothing and do not appear.
    /// Loads are not recorded, so a word that still holds initial memory
    /// (learned from a load) stays out of every persist image.
    pub trace: PersistTrace,
}

/// Interprets `program` sequentially from zeroed registers and empty
/// memory.
///
/// # Errors
///
/// The first trace inconsistency found (see [`GoldenError`]); a
/// well-formed trace-resolved program never errors.
pub fn run(program: &Program, cfg: &GoldenConfig) -> Result<GoldenRun, GoldenError> {
    let nvm_base = Layout::standard().nvm_base;
    let mut g = GoldenRun::default();
    // Dirty NVM lines: written since their last cvap.
    let mut dirty: BTreeSet<u64> = BTreeSet::new();
    let line_of = |addr: u64| addr & !(LINE_BYTES - 1);
    let commit = |g: &mut GoldenRun, dirty: &mut BTreeSet<u64>, ev: StoreEvent| {
        for (w, v) in ev.words() {
            g.mem.insert(w, v);
            if ev.addr >= nvm_base {
                dirty.insert(line_of(w));
            }
        }
        g.trace.record_store(ev);
    };

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
                let ev = StoreEvent {
                    cycle: id.0,
                    addr,
                    width: 8,
                    value: [value, 0],
                };
                commit(&mut g, &mut dirty, ev);
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
                let ev = StoreEvent {
                    cycle: id.0,
                    addr,
                    width: 16,
                    value: values,
                };
                commit(&mut g, &mut dirty, ev);
            }
            Op::DcCvap { base, addr } => {
                check_base(&g.regs, id, base, addr)?;
                let line = line_of(addr);
                // A clean or non-NVM line persists nothing (matches the
                // memory system: no persist event is recorded).
                if addr >= nvm_base && dirty.remove(&line) {
                    g.trace.record_persist(PersistEvent { cycle: id.0, line });
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
    use ede_mem::trace::nvm_image_at;
    use ede_util::idmap::WordMap;

    const NVM: u64 = 0x1_0000_0000;

    /// The NVM image the golden run leaves when it completes.
    fn image(g: &GoldenRun) -> WordMap {
        nvm_image_at(&g.trace, g.trace.horizon(), LINE_BYTES)
    }

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
        let img = image(&g);
        assert_eq!(img.get(&NVM), Some(&7));
        assert_eq!(img.get(&(NVM + 8)), Some(&8)); // same line
        assert_eq!(img.get(&(NVM + 0x40)), None); // dirty, unflushed
        assert_eq!(g.trace.persists.len(), 1);
        assert_eq!(g.trace.stores.len(), 3);
    }

    #[test]
    fn clean_cvap_persists_nothing() {
        let mut b = TraceBuilder::new();
        b.store(NVM, 1);
        b.cvap(NVM);
        b.cvap(NVM); // second flush: the line is clean now
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert_eq!(g.trace.persists.len(), 1);
    }

    #[test]
    fn dram_store_never_persists() {
        let mut b = TraceBuilder::new();
        b.store(0x1000, 5);
        b.cvap(0x1000);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        assert!(g.trace.persists.is_empty());
        assert!(image(&g).is_empty());
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
        let stores = &g.trace.stores;
        let words: Vec<(u64, u64)> = stores.iter().flat_map(|s| s.words()).collect();
        assert_eq!(words, [(NVM, 1), (NVM, 2), (NVM + 8, 3)]);
        assert!(stores.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn stp_writes_both_words() {
        let mut b = TraceBuilder::new();
        let base = b.lea(NVM + 16);
        b.store_pair_to(base, NVM + 16, [4, 5]);
        b.release(base);
        b.cvap(NVM + 16);
        let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
        let img = image(&g);
        assert_eq!(img.get(&(NVM + 16)), Some(&4));
        assert_eq!(img.get(&(NVM + 24)), Some(&5));
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
        let img = image(&g);
        assert_eq!(img.get(&NVM), Some(&1));
        assert_eq!(img.get(&(NVM + 8)), None);
    }
}
