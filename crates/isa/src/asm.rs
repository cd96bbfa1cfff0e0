//! A text assembler for the EDE instruction set.
//!
//! Parses the disassembler's syntax, extended with `@key=value`
//! annotations carrying the *dynamic* resolution a trace needs (addresses,
//! values, branch outcomes):
//!
//! ```text
//! ; three updates, EDE-ordered                  ; comments with ';' or '//'
//! mov x1, #0x100000000
//! stp x2, x3, [x1] @addr=0x100000000 @vals=6,9
//! dc cvap (1, 0), x1 @addr=0x100000000
//! str (0, 1), x4, [x1] @addr=0x100000040 @val=42
//! b.cond @mispredict
//! wait_all_keys
//! ```
//!
//! [`assemble`] turns such text into a [`Program`];
//! [`listing_annotated`] renders a program back into parseable text, and
//! `assemble(listing_annotated(p)) == p` round-trips (a property the test
//! suite enforces).

use crate::disasm::Disasm;
use crate::edk::{Edk, EdkPair};
use crate::inst::{Inst, Op};
use crate::program::Program;
use crate::reg::Reg;
use std::fmt;

/// A parse failure, with its 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// Annotations parsed from `@key=value` suffixes.
#[derive(Default)]
struct Notes {
    addr: Option<u64>,
    val: Option<u64>,
    vals: Option<[u64; 2]>,
    mispredict: bool,
}

fn parse_u64(line: usize, s: &str) -> Result<u64, AsmError> {
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("#0x")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        s.trim_start_matches('#').replace('_', "").parse()
    };
    parsed.map_err(|_| AsmError {
        line,
        message: format!("bad number `{s}`"),
    })
}

fn parse_reg(line: usize, s: &str) -> Result<Reg, AsmError> {
    let s = s
        .trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .trim_end_matches(',');
    if s.eq_ignore_ascii_case("xzr") {
        return Ok(Reg::XZR);
    }
    let n: u8 = s
        .strip_prefix('x')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| AsmError {
            line,
            message: format!("bad register `{s}`"),
        })?;
    Reg::x(n).ok_or_else(|| AsmError {
        line,
        message: format!("register index {n} out of range"),
    })
}

fn parse_key(line: usize, s: &str) -> Result<Edk, AsmError> {
    let n: u8 = s.trim().parse().map_err(|_| AsmError {
        line,
        message: format!("bad key `{s}`"),
    })?;
    Edk::new(n).ok_or_else(|| AsmError {
        line,
        message: format!("key {n} out of range"),
    })
}

/// Splits an optional leading `(def, use)` key pair off the operand text.
fn split_keys(line: usize, rest: &str) -> Result<(EdkPair, String), AsmError> {
    let rest = rest.trim();
    if let Some(inner) = rest.strip_prefix('(') {
        let Some(close) = inner.find(')') else {
            return err(line, "unclosed key pair");
        };
        let keys: Vec<&str> = inner[..close].split(',').collect();
        if keys.len() != 2 {
            return err(line, "key pair must be (def, use)");
        }
        let pair = EdkPair::new(parse_key(line, keys[0])?, parse_key(line, keys[1])?);
        let after = inner[close + 1..]
            .trim_start_matches(',')
            .trim()
            .to_string();
        Ok((pair, after))
    } else {
        Ok((EdkPair::NONE, rest.to_string()))
    }
}

fn split_notes(line: usize, text: &str) -> Result<(String, Notes), AsmError> {
    let mut notes = Notes::default();
    let mut parts = text.split('@');
    let body = parts.next().unwrap_or("").trim().to_string();
    for p in parts {
        let p = p.trim();
        if p == "mispredict" {
            notes.mispredict = true;
        } else if let Some(v) = p.strip_prefix("addr=") {
            notes.addr = Some(parse_u64(line, v)?);
        } else if let Some(v) = p.strip_prefix("val=") {
            notes.val = Some(parse_u64(line, v)?);
        } else if let Some(v) = p.strip_prefix("vals=") {
            let xs: Vec<&str> = v.split(',').collect();
            if xs.len() != 2 {
                return err(line, "@vals needs two comma-separated values");
            }
            notes.vals = Some([parse_u64(line, xs[0])?, parse_u64(line, xs[1])?]);
        } else {
            return err(line, format!("unknown annotation `@{p}`"));
        }
    }
    Ok((body, notes))
}

fn need_addr(line: usize, n: &Notes) -> Result<u64, AsmError> {
    n.addr.ok_or_else(|| AsmError {
        line,
        message: "memory instruction needs @addr=".into(),
    })
}

/// Assembles source text into a program.
///
/// # Errors
///
/// [`AsmError`] with the offending line on any syntax problem.
///
/// # Example
///
/// ```
/// use ede_isa::asm::assemble;
///
/// let p = assemble(
///     "mov x1, #0x40\n\
///      dc cvap (1, 0), x1 @addr=0x100000040\n\
///      str (0, 1), x2, [x1] @addr=0x100000080 @val=7\n\
///      dsb sy\n",
/// ).unwrap();
/// assert_eq!(p.len(), 4);
/// ```
pub fn assemble(text: &str) -> Result<Program, AsmError> {
    let mut program = Program::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let code = raw.split(';').next().unwrap_or("");
        let code = code.split("//").next().unwrap_or("").trim();
        // Strip an optional leading "#N" listing id.
        let code = if let Some(rest) = code.strip_prefix('#') {
            rest.split_once(char::is_whitespace)
                .map(|(_, r)| r.trim())
                .unwrap_or("")
        } else {
            code
        };
        if code.is_empty() {
            continue;
        }
        let (body, notes) = split_notes(line, code)?;
        let lower = body.to_ascii_lowercase();
        let (mnemonic, rest) = match lower.split_once(char::is_whitespace) {
            Some((m, r)) => (m.to_string(), r.trim().to_string()),
            None => (lower.clone(), String::new()),
        };
        let inst = match mnemonic.as_str() {
            "mov" => {
                let ops: Vec<&str> = rest.splitn(2, ',').collect();
                if ops.len() != 2 {
                    return err(line, "mov needs `rd, #imm`");
                }
                Inst::plain(Op::Mov {
                    dst: parse_reg(line, ops[0])?,
                    imm: parse_u64(line, ops[1])?,
                })
            }
            "add" => {
                let ops: Vec<&str> = rest.splitn(3, ',').collect();
                if ops.len() != 3 {
                    return err(line, "add needs `rd, rn, #imm`");
                }
                Inst::plain(Op::Add {
                    dst: parse_reg(line, ops[0])?,
                    lhs: parse_reg(line, ops[1])?,
                    imm: parse_u64(line, ops[2])?,
                })
            }
            "cmp" => {
                let ops: Vec<&str> = rest.splitn(2, ',').collect();
                if ops.len() != 2 {
                    return err(line, "cmp needs `rn, rm`");
                }
                Inst::plain(Op::Cmp {
                    lhs: parse_reg(line, ops[0])?,
                    rhs: parse_reg(line, ops[1])?,
                })
            }
            "ldr" => {
                let (keys, rest) = split_keys(line, &rest)?;
                let ops: Vec<&str> = rest.splitn(2, ',').collect();
                if ops.len() != 2 {
                    return err(line, "ldr needs `rd, [rn]`");
                }
                Inst::with_edks(
                    Op::Ldr {
                        dst: parse_reg(line, ops[0])?,
                        base: parse_reg(line, ops[1])?,
                        addr: need_addr(line, &notes)?,
                        value: notes.val.unwrap_or(0),
                    },
                    keys,
                )
            }
            "str" => {
                let (keys, rest) = split_keys(line, &rest)?;
                let ops: Vec<&str> = rest.splitn(2, ',').collect();
                if ops.len() != 2 {
                    return err(line, "str needs `rt, [rn]`");
                }
                Inst::with_edks(
                    Op::Str {
                        src: parse_reg(line, ops[0])?,
                        base: parse_reg(line, ops[1])?,
                        addr: need_addr(line, &notes)?,
                        value: notes.val.unwrap_or(0),
                    },
                    keys,
                )
            }
            "stp" => {
                let (keys, rest) = split_keys(line, &rest)?;
                let ops: Vec<&str> = rest.splitn(3, ',').collect();
                if ops.len() != 3 {
                    return err(line, "stp needs `rt, rt2, [rn]`");
                }
                Inst::with_edks(
                    Op::Stp {
                        src1: parse_reg(line, ops[0])?,
                        src2: parse_reg(line, ops[1])?,
                        base: parse_reg(line, ops[2])?,
                        addr: need_addr(line, &notes)?,
                        values: notes.vals.unwrap_or([0, 0]),
                    },
                    keys,
                )
            }
            "dc" => {
                let rest = rest
                    .strip_prefix("cvap")
                    .ok_or_else(|| AsmError {
                        line,
                        message: "only `dc cvap` is supported".into(),
                    })?
                    .trim()
                    .trim_start_matches(',')
                    .trim()
                    .to_string();
                let (keys, rest) = split_keys(line, &rest)?;
                Inst::with_edks(
                    Op::DcCvap {
                        base: parse_reg(line, &rest)?,
                        addr: need_addr(line, &notes)?,
                    },
                    keys,
                )
            }
            "dsb" => Inst::plain(Op::DsbSy),
            "dmb" => match rest.trim() {
                "st" => Inst::plain(Op::DmbSt),
                "sy" => Inst::plain(Op::DmbSy),
                other => return err(line, format!("unknown barrier `dmb {other}`")),
            },
            "join" => {
                let inner = rest
                    .trim()
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| AsmError {
                        line,
                        message: "join needs `(def, use1, use2)`".into(),
                    })?;
                let ks: Vec<&str> = inner.split(',').collect();
                if ks.len() != 3 {
                    return err(line, "join needs three keys");
                }
                Inst::with_edks(
                    Op::Join {
                        use2: parse_key(line, ks[2])?,
                    },
                    EdkPair::new(parse_key(line, ks[0])?, parse_key(line, ks[1])?),
                )
            }
            "wait_key" => {
                let inner = rest
                    .trim()
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                    .ok_or_else(|| AsmError {
                        line,
                        message: "wait_key needs `(k)`".into(),
                    })?;
                Inst::plain(Op::WaitKey {
                    key: parse_key(line, inner)?,
                })
            }
            "wait_all_keys" => Inst::plain(Op::WaitAllKeys),
            "b.cond" => Inst::plain(Op::Branch {
                mispredicted: notes.mispredict,
            }),
            "nop" => Inst::plain(Op::Nop),
            other => return err(line, format!("unknown mnemonic `{other}`")),
        };
        program.push(inst);
    }
    if let Err(id) = program.validate() {
        return err(id.index() + 1, "EDE keys on a non-EDE opcode");
    }
    Ok(program)
}

/// Renders a program as assemblable text: the disassembly plus the
/// `@` annotations carrying dynamic resolution.
///
/// # Example
///
/// ```
/// use ede_isa::asm::{assemble, listing_annotated};
/// use ede_isa::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// b.store(0x1_0000_0000, 7);
/// let p = b.finish();
/// let text = listing_annotated(&p);
/// assert_eq!(assemble(&text).unwrap(), p);
/// ```
pub fn listing_annotated(program: &Program) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    for (_, inst) in program.iter() {
        let _ = write!(out, "{}", Disasm(inst));
        match inst.op {
            Op::Ldr { addr, value, .. } | Op::Str { addr, value, .. } => {
                let _ = write!(out, " @addr={addr:#x} @val={value:#x}");
            }
            Op::Stp { addr, values, .. } => {
                let _ = write!(
                    out,
                    " @addr={addr:#x} @vals={:#x},{:#x}",
                    values[0], values[1]
                );
            }
            Op::DcCvap { addr, .. } => {
                let _ = write!(out, " @addr={addr:#x}");
            }
            Op::Branch { mispredicted } if mispredicted => {
                let _ = write!(out, " @mispredict");
            }
            _ => {}
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    #[test]
    fn assembles_figure7() {
        let p = assemble(
            "; figure 7\n\
             mov x0, #0x100000040\n\
             dc cvap (1, 0), x0 @addr=0x100000040\n\
             mov x1, #6\n\
             str (0, 1), x1, [x0] @addr=0x100000080 @val=6\n",
        )
        .expect("valid assembly");
        assert_eq!(p.len(), 4);
        assert!(p.iter().any(|(_, i)| i.is_edk_producer()));
        assert!(p.iter().any(|(_, i)| i.is_edk_consumer()));
    }

    #[test]
    fn roundtrips_builder_output() {
        let mut b = TraceBuilder::new();
        let k = crate::edk::Edk::new(3).expect("key");
        b.store(0x1_0000_0000, 7);
        b.cvap_producing(0x1_0000_0000, k);
        b.store_consuming(0x1_0000_0100, 9, k);
        b.dsb_sy();
        b.dmb_st();
        b.join(k, crate::edk::Edk::ZERO, k);
        b.wait_key(k);
        b.wait_all_keys();
        let l = b.mov_imm(1);
        let r = b.mov_imm(1);
        b.cmp_branch(l, r, true);
        b.load(0x1_0000_0200, 5);
        let base = b.lea(0x1_0000_0300);
        b.store_pair_to(base, 0x1_0000_0300, [1, 2]);
        b.release(base);
        b.nop();
        let p = b.finish();
        let text = listing_annotated(&p);
        let q = assemble(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(q, p);
    }

    #[test]
    fn listing_ids_are_accepted() {
        // The plain (unannotated) listing's `#N` prefixes parse too.
        let text = "#0  nop\n#1  dsb sy\n";
        let p = assemble(text).expect("listing parses");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus x1\n").expect_err("bad mnemonic");
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = assemble("str x1, [x2]\n").expect_err("missing @addr");
        assert_eq!(e.line, 1);

        let e = assemble("mov x99, #1\n").expect_err("bad register");
        assert!(e.message.contains("register"));

        let e = assemble("wait_key (16)\n").expect_err("key range");
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let p = assemble("; header\n\n// nothing\nnop ; trailing\n").expect("parses");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn xzr_accepted() {
        let p = assemble("str xzr, [x0] @addr=0x40\n").expect("parses");
        assert_eq!(p.len(), 1);
    }
}
