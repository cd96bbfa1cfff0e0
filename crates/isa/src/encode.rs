//! Binary encoding of the EDE instruction set.
//!
//! The paper adds the `(EDK_def, EDK_use)` operand pair to existing
//! AArch64 opcodes (§IV-B1). This module defines a concrete 32-bit
//! encoding for the extension's *architectural* fields — opcode,
//! registers, keys, and a 12-bit immediate — exactly the bits a real
//! instruction word would carry:
//!
//! ```text
//!  31    26 25   21 20   16 15   11 10  7 6   3 2    0
//! ┌────────┬───────┬───────┬───────┬─────┬─────┬──────┐
//! │ opcode │  rd   │  rn   │  rm   │ def │ use │ rsvd │  memory forms
//! └────────┴───────┴───────┴───────┴─────┴─────┴──────┘
//!  31    26 25  22 21  18 17  14 13           0
//! ┌────────┬──────┬──────┬──────┬──────────────┐
//! │ opcode │ def  │ use1 │ use2 │   reserved   │          JOIN
//! └────────┴──────┴──────┴──────┴──────────────┘
//!  31    26 25   21 20          12 11          0
//! ┌────────┬───────┬──────────────┬─────────────┐
//! │ opcode │  rd   │   reserved   │    imm12    │     MOV/ADD (rn at 20:16 for ADD)
//! └────────┴───────┴──────────────┴─────────────┘
//! ```
//!
//! Trace instructions additionally carry *dynamic* resolution (addresses,
//! data values, full immediates, branch outcomes) that no encoding
//! carries; [`StaticInst`] is the projection of an instruction onto its
//! encodable fields, and `decode(encode(i)) == StaticInst::of(i)` is the
//! module's round-trip guarantee (immediates truncate to 12 bits).

use crate::edk::{Edk, EdkPair};
use crate::inst::{Inst, Op};
use crate::reg::Reg;
use std::fmt;

/// A 32-bit encoded instruction word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Encoded(pub u32);

impl fmt::LowerHex for Encoded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Architectural opcodes of the modeled subset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// `mov rd, #imm12`
    Mov = 1,
    /// `add rd, rn, #imm12`
    Add = 2,
    /// `cmp rd, rn`
    Cmp = 3,
    /// `ldr (def,use), rd, [rn]`
    Ldr = 4,
    /// `str (def,use), rd, [rn]`
    Str = 5,
    /// `stp (def,use), rd, rm, [rn]`
    Stp = 6,
    /// `dc cvap (def,use), rn`
    DcCvap = 7,
    /// `dsb sy`
    DsbSy = 8,
    /// `dmb st`
    DmbSt = 9,
    /// `dmb sy`
    DmbSy = 10,
    /// `join (def, use1, use2)`
    Join = 11,
    /// `wait_key (k)`
    WaitKey = 12,
    /// `wait_all_keys`
    WaitAllKeys = 13,
    /// `b.cond`
    Branch = 14,
    /// `nop`
    Nop = 15,
}

impl Opcode {
    fn from_bits(bits: u32) -> Option<Opcode> {
        Some(match bits {
            1 => Opcode::Mov,
            2 => Opcode::Add,
            3 => Opcode::Cmp,
            4 => Opcode::Ldr,
            5 => Opcode::Str,
            6 => Opcode::Stp,
            7 => Opcode::DcCvap,
            8 => Opcode::DsbSy,
            9 => Opcode::DmbSt,
            10 => Opcode::DmbSy,
            11 => Opcode::Join,
            12 => Opcode::WaitKey,
            13 => Opcode::WaitAllKeys,
            14 => Opcode::Branch,
            15 => Opcode::Nop,
            _ => return None,
        })
    }
}

/// The encodable projection of an instruction: what a real instruction
/// word carries (no trace-resolved addresses, values or outcomes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StaticInst {
    /// The opcode.
    pub opcode: Opcode,
    /// First register operand (destination or first source), if any.
    pub rd: Option<Reg>,
    /// Base/second register operand, if any.
    pub rn: Option<Reg>,
    /// Third register operand (`STP`'s second data register), if any.
    pub rm: Option<Reg>,
    /// The `(EDK_def, EDK_use)` pair (`JOIN` uses `def`/`use_` here too).
    pub edks: EdkPair,
    /// `JOIN`'s second consumed key.
    pub use2: Edk,
    /// 12-bit immediate for `MOV`/`ADD` (truncated from the trace value).
    pub imm12: u16,
}

impl StaticInst {
    /// Projects a trace instruction onto its encodable fields.
    pub fn of(inst: &Inst) -> StaticInst {
        let mut s = StaticInst {
            opcode: Opcode::Nop,
            rd: None,
            rn: None,
            rm: None,
            edks: inst.edks,
            use2: Edk::ZERO,
            imm12: 0,
        };
        match inst.op {
            Op::Mov { dst, imm } => {
                s.opcode = Opcode::Mov;
                s.rd = Some(dst);
                s.imm12 = (imm & 0xfff) as u16;
            }
            Op::Add { dst, lhs, imm } => {
                s.opcode = Opcode::Add;
                s.rd = Some(dst);
                s.rn = Some(lhs);
                s.imm12 = (imm & 0xfff) as u16;
            }
            Op::Cmp { lhs, rhs } => {
                s.opcode = Opcode::Cmp;
                s.rd = Some(lhs);
                s.rn = Some(rhs);
            }
            Op::Ldr { dst, base, .. } => {
                s.opcode = Opcode::Ldr;
                s.rd = Some(dst);
                s.rn = Some(base);
            }
            Op::Str { src, base, .. } => {
                s.opcode = Opcode::Str;
                s.rd = Some(src);
                s.rn = Some(base);
            }
            Op::Stp {
                src1, src2, base, ..
            } => {
                s.opcode = Opcode::Stp;
                s.rd = Some(src1);
                s.rm = Some(src2);
                s.rn = Some(base);
            }
            Op::DcCvap { base, .. } => {
                s.opcode = Opcode::DcCvap;
                s.rn = Some(base);
            }
            Op::DsbSy => s.opcode = Opcode::DsbSy,
            Op::DmbSt => s.opcode = Opcode::DmbSt,
            Op::DmbSy => s.opcode = Opcode::DmbSy,
            Op::Join { use2 } => {
                s.opcode = Opcode::Join;
                s.use2 = use2;
            }
            Op::WaitKey { key } => {
                s.opcode = Opcode::WaitKey;
                // The key travels in the def field (WAIT_KEY is both
                // producer and consumer of it).
                s.edks = EdkPair::new(key, Edk::ZERO);
            }
            Op::WaitAllKeys => s.opcode = Opcode::WaitAllKeys,
            Op::Branch { .. } => s.opcode = Opcode::Branch,
            Op::Nop => s.opcode = Opcode::Nop,
        }
        s
    }
}

/// A malformed instruction word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Unknown opcode bits.
    BadOpcode(u32),
    /// Nonzero bits in a reserved field.
    ReservedBits(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode bits {b:#x}"),
            DecodeError::ReservedBits(w) => write!(f, "reserved bits set in {w:#010x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn reg_bits(r: Option<Reg>) -> u32 {
    u32::from(r.map_or(31, Reg::index))
}

fn reg_from(bits: u32) -> Option<Reg> {
    let b = (bits & 0x1f) as u8;
    if b == 31 {
        None
    } else {
        Reg::x(b)
    }
}

/// Encodes an instruction's architectural fields into a 32-bit word.
///
/// # Example
///
/// ```
/// use ede_isa::encode::{decode, encode, StaticInst};
/// use ede_isa::{Edk, EdkPair, Inst, Op, Reg};
///
/// let i = Inst::with_edks(
///     Op::Str { src: Reg::x(3).unwrap(), base: Reg::x(0).unwrap(), addr: 0, value: 0 },
///     EdkPair::consumer(Edk::new(1).unwrap()),
/// );
/// let w = encode(&i);
/// assert_eq!(decode(w).unwrap(), StaticInst::of(&i));
/// ```
pub fn encode(inst: &Inst) -> Encoded {
    let s = StaticInst::of(inst);
    let op = (s.opcode as u32) << 26;
    let word = match s.opcode {
        Opcode::Mov => op | (reg_bits(s.rd) << 21) | u32::from(s.imm12),
        Opcode::Add => op | (reg_bits(s.rd) << 21) | (reg_bits(s.rn) << 16) | u32::from(s.imm12),
        Opcode::Cmp => op | (reg_bits(s.rd) << 21) | (reg_bits(s.rn) << 16),
        Opcode::Ldr | Opcode::Str | Opcode::DcCvap => {
            op | (reg_bits(s.rd) << 21)
                | (reg_bits(s.rn) << 16)
                | (u32::from(s.edks.def.index()) << 7)
                | (u32::from(s.edks.use_.index()) << 3)
        }
        Opcode::Stp => {
            op | (reg_bits(s.rd) << 21)
                | (reg_bits(s.rn) << 16)
                | (reg_bits(s.rm) << 11)
                | (u32::from(s.edks.def.index()) << 7)
                | (u32::from(s.edks.use_.index()) << 3)
        }
        Opcode::Join => {
            op | (u32::from(s.edks.def.index()) << 22)
                | (u32::from(s.edks.use_.index()) << 18)
                | (u32::from(s.use2.index()) << 14)
        }
        Opcode::WaitKey => op | (u32::from(s.edks.def.index()) << 22),
        Opcode::DsbSy
        | Opcode::DmbSt
        | Opcode::DmbSy
        | Opcode::WaitAllKeys
        | Opcode::Branch
        | Opcode::Nop => op,
    };
    Encoded(word)
}

/// Decodes a 32-bit word back into its architectural fields.
///
/// # Errors
///
/// [`DecodeError`] for unknown opcodes or nonzero reserved bits.
pub fn decode(word: Encoded) -> Result<StaticInst, DecodeError> {
    let w = word.0;
    let opcode = Opcode::from_bits(w >> 26).ok_or(DecodeError::BadOpcode(w >> 26))?;
    let key = |shift: u32| Edk::new(((w >> shift) & 0xf) as u8).expect("4 bits fit");
    let mut s = StaticInst {
        opcode,
        rd: None,
        rn: None,
        rm: None,
        edks: EdkPair::NONE,
        use2: Edk::ZERO,
        imm12: 0,
    };
    let check_reserved = |mask: u32| {
        if w & mask != 0 {
            Err(DecodeError::ReservedBits(w))
        } else {
            Ok(())
        }
    };
    match opcode {
        Opcode::Mov => {
            check_reserved(0x001f_f000)?;
            s.rd = reg_from(w >> 21);
            s.imm12 = (w & 0xfff) as u16;
        }
        Opcode::Add => {
            check_reserved(0x0000_f000)?;
            s.rd = reg_from(w >> 21);
            s.rn = reg_from(w >> 16);
            s.imm12 = (w & 0xfff) as u16;
        }
        Opcode::Cmp => {
            check_reserved(0x0000_ffff)?;
            s.rd = reg_from(w >> 21);
            s.rn = reg_from(w >> 16);
        }
        Opcode::Ldr | Opcode::Str | Opcode::DcCvap => {
            check_reserved(0x0000_f807)?;
            s.rd = reg_from(w >> 21);
            s.rn = reg_from(w >> 16);
            s.edks = EdkPair::new(key(7), key(3));
        }
        Opcode::Stp => {
            check_reserved(0x0000_0007)?;
            s.rd = reg_from(w >> 21);
            s.rn = reg_from(w >> 16);
            s.rm = reg_from(w >> 11);
            s.edks = EdkPair::new(key(7), key(3));
        }
        Opcode::Join => {
            check_reserved(0x0000_3fff)?;
            s.edks = EdkPair::new(key(22), key(18));
            s.use2 = key(14);
        }
        Opcode::WaitKey => {
            check_reserved(0x003f_ffff)?;
            s.edks = EdkPair::new(key(22), Edk::ZERO);
        }
        Opcode::DsbSy
        | Opcode::DmbSt
        | Opcode::DmbSy
        | Opcode::WaitAllKeys
        | Opcode::Branch
        | Opcode::Nop => {
            check_reserved(0x03ff_ffff)?;
        }
    }
    // DC CVAP has no destination register; its base travels in rn.
    if opcode == Opcode::DcCvap {
        s.rd = None;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(n: u8) -> Reg {
        Reg::x(n).expect("register")
    }

    fn k(n: u8) -> Edk {
        Edk::new(n).expect("key")
    }

    fn roundtrip(inst: &Inst) {
        let w = encode(inst);
        let s = decode(w).unwrap_or_else(|e| panic!("{inst:?}: {e}"));
        assert_eq!(s, StaticInst::of(inst), "word {w:#010x}");
    }

    #[test]
    fn all_opcodes_roundtrip() {
        let samples = vec![
            Inst::plain(Op::Mov {
                dst: x(5),
                imm: 0x123,
            }),
            Inst::plain(Op::Add {
                dst: x(1),
                lhs: x(2),
                imm: 0xfff,
            }),
            Inst::plain(Op::Cmp {
                lhs: x(7),
                rhs: x(8),
            }),
            Inst::with_edks(
                Op::Ldr {
                    dst: x(9),
                    base: x(10),
                    addr: 0,
                    value: 0,
                },
                EdkPair::consumer(k(5)),
            ),
            Inst::with_edks(
                Op::Str {
                    src: x(3),
                    base: x(0),
                    addr: 0,
                    value: 0,
                },
                EdkPair::new(k(2), k(1)),
            ),
            Inst::with_edks(
                Op::Stp {
                    src1: x(11),
                    src2: x(12),
                    base: x(13),
                    addr: 0,
                    values: [0, 0],
                },
                EdkPair::producer(k(15)),
            ),
            Inst::with_edks(
                Op::DcCvap {
                    base: x(4),
                    addr: 0,
                },
                EdkPair::producer(k(1)),
            ),
            Inst::plain(Op::DsbSy),
            Inst::plain(Op::DmbSt),
            Inst::plain(Op::DmbSy),
            Inst::with_edks(Op::Join { use2: k(3) }, EdkPair::new(k(4), k(5))),
            Inst::plain(Op::WaitKey { key: k(9) }),
            Inst::plain(Op::WaitAllKeys),
            Inst::plain(Op::Branch { mispredicted: true }),
            Inst::plain(Op::Nop),
        ];
        for inst in &samples {
            roundtrip(inst);
        }
    }

    #[test]
    fn immediates_truncate_to_12_bits() {
        let i = Inst::plain(Op::Mov {
            dst: x(1),
            imm: 0x1_2345,
        });
        let s = decode(encode(&i)).expect("valid word");
        assert_eq!(s.imm12, 0x345);
    }

    #[test]
    fn distinct_instructions_encode_distinctly() {
        let a = encode(&Inst::with_edks(
            Op::Str {
                src: x(3),
                base: x(0),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(k(1)),
        ));
        let b = encode(&Inst::with_edks(
            Op::Str {
                src: x(3),
                base: x(0),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(k(2)),
        ));
        let c = encode(&Inst::plain(Op::Str {
            src: x(3),
            base: x(0),
            addr: 0,
            value: 0,
        }));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(decode(Encoded(0)), Err(DecodeError::BadOpcode(0)));
        assert_eq!(decode(Encoded(63 << 26)), Err(DecodeError::BadOpcode(63)));
    }

    #[test]
    fn reserved_bits_rejected() {
        let good = encode(&Inst::plain(Op::DsbSy));
        assert!(decode(good).is_ok());
        let bad = Encoded(good.0 | 1);
        assert!(matches!(decode(bad), Err(DecodeError::ReservedBits(_))));
    }

    #[test]
    fn zero_register_encodes_as_31() {
        let i = Inst::plain(Op::Str {
            src: Reg::XZR,
            base: x(0),
            addr: 0,
            value: 0,
        });
        let s = decode(encode(&i)).expect("valid");
        assert_eq!(s.rd, None);
        assert_eq!(s.rn, Some(x(0)));
    }

    #[test]
    fn error_display() {
        let e = DecodeError::BadOpcode(17);
        assert!(e.to_string().contains("opcode"));
    }
}
