//! Textual disassembly in the paper's notation.
//!
//! EDE instruction variants print their key pair in parentheses before the
//! original operands, exactly as the paper writes them: `str (0, 1), x3,
//! [x0]`. Plain variants print standard AArch64 syntax.

use crate::inst::{Inst, Op};
use std::fmt;

/// Wrapper that formats an instruction as assembly text.
///
/// # Example
///
/// ```
/// use ede_isa::{disasm::Disasm, Edk, EdkPair, Inst, Op, Reg};
///
/// let i = Inst::with_edks(
///     Op::Str { src: Reg::x(3).unwrap(), base: Reg::x(0).unwrap(), addr: 0x2000, value: 6 },
///     EdkPair::consumer(Edk::new(1).unwrap()),
/// );
/// assert_eq!(Disasm(&i).to_string(), "str (0, 1), x3, [x0]");
/// ```
#[derive(Debug)]
pub struct Disasm<'a>(pub &'a Inst);

impl fmt::Display for Disasm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inst = self.0;
        let keys = if inst.edks.is_plain() {
            String::new()
        } else {
            format!("{}, ", inst.edks)
        };
        match &inst.op {
            Op::Mov { dst, imm } => write!(f, "mov {dst}, #{imm:#x}"),
            Op::Add { dst, lhs, imm } => write!(f, "add {dst}, {lhs}, #{imm:#x}"),
            Op::Cmp { lhs, rhs } => write!(f, "cmp {lhs}, {rhs}"),
            Op::Ldr { dst, base, .. } => write!(f, "ldr {keys}{dst}, [{base}]"),
            Op::Str { src, base, .. } => write!(f, "str {keys}{src}, [{base}]"),
            Op::Stp {
                src1, src2, base, ..
            } => write!(f, "stp {keys}{src1}, {src2}, [{base}]"),
            Op::DcCvap { base, .. } => write!(f, "dc cvap {keys}{base}"),
            Op::DsbSy => write!(f, "dsb sy"),
            Op::DmbSt => write!(f, "dmb st"),
            Op::DmbSy => write!(f, "dmb sy"),
            Op::Join { use2 } => {
                write!(f, "join ({}, {}, {})", inst.edks.def, inst.edks.use_, use2)
            }
            Op::WaitKey { key } => write!(f, "wait_key ({key})"),
            Op::WaitAllKeys => write!(f, "wait_all_keys"),
            Op::Branch { mispredicted } => {
                if *mispredicted {
                    write!(f, "b.cond <mispredicted>")
                } else {
                    write!(f, "b.cond")
                }
            }
            Op::Nop => write!(f, "nop"),
        }
    }
}

/// Renders a whole program, one instruction per line, with trace ids.
///
/// # Example
///
/// ```
/// use ede_isa::{disasm, Inst, Op, Program};
///
/// let mut p = Program::new();
/// p.push(Inst::plain(Op::DsbSy));
/// let text = disasm::listing(&p);
/// assert!(text.contains("dsb sy"));
/// ```
pub fn listing(program: &crate::program::Program) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for (id, inst) in program.iter() {
        let _ = writeln!(out, "{:>6}  {}", id.to_string(), Disasm(inst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edk::{Edk, EdkPair};
    use crate::reg::Reg;

    fn x(n: u8) -> Reg {
        Reg::x(n).unwrap()
    }

    #[test]
    fn plain_store_has_no_keys() {
        let i = Inst::plain(Op::Str {
            src: x(3),
            base: x(0),
            addr: 0,
            value: 0,
        });
        assert_eq!(Disasm(&i).to_string(), "str x3, [x0]");
    }

    #[test]
    fn cvap_producer_matches_figure7() {
        let i = Inst::with_edks(
            Op::DcCvap {
                base: x(0),
                addr: 0,
            },
            EdkPair::producer(Edk::new(1).unwrap()),
        );
        assert_eq!(Disasm(&i).to_string(), "dc cvap (1, 0), x0");
    }

    #[test]
    fn join_prints_three_keys() {
        let i = Inst::with_edks(
            Op::Join {
                use2: Edk::new(2).unwrap(),
            },
            EdkPair::new(Edk::new(3).unwrap(), Edk::new(1).unwrap()),
        );
        assert_eq!(Disasm(&i).to_string(), "join (3, 1, 2)");
    }

    #[test]
    fn listing_includes_ids() {
        let mut p = crate::program::Program::new();
        p.push(Inst::plain(Op::Nop));
        p.push(Inst::plain(Op::DsbSy));
        let text = listing(&p);
        assert!(text.contains("#0"));
        assert!(text.contains("#1"));
        assert!(text.contains("nop"));
    }
}
