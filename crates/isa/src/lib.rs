//! AArch64-subset instruction model with the Execution Dependence Extension.
//!
//! This crate defines the instruction-level vocabulary shared by every other
//! crate in the workspace:
//!
//! * [`Reg`] — general-purpose registers (`X0`–`X30`, plus the zero register).
//! * [`Edk`] — Execution Dependence Keys, the paper's new architectural name
//!   space used to link a *dependence producer* to one or more *dependence
//!   consumers* (§IV-A).
//! * [`Inst`] / [`Op`] — trace instructions: an AArch64 subset (`LDR`, `STR`,
//!   `STP`, `MOV`, `ADD`, `CMP`, `B`, `DC CVAP`, `DSB SY`, `DMB ST`,
//!   `DMB SY`) extended with the EDE memory-instruction variants and the EDE
//!   control instructions `JOIN`, `WAIT_KEY` and `WAIT_ALL_KEYS` (§IV-B).
//! * [`TraceBuilder`] — a tiny assembler used by the NVM framework and the
//!   workloads to lower high-level operations into instruction sequences,
//!   playing the role the Clang/LLVM built-ins play in the paper (§VI-A).
//!
//! Because the simulator is trace driven, memory instructions carry their
//! *resolved* virtual address and data value alongside the register operands
//! that describe the timing-relevant dependences. The address and value feed
//! the memory system and the crash-consistency checker; the register
//! operands feed the out-of-order scheduling model.
//!
//! # Example
//!
//! Lowering the paper's Figure 7 pattern — a `DC CVAP` producing EDK #1 and
//! a store consuming it, replacing a `DSB SY`:
//!
//! ```
//! use ede_isa::{Edk, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let k = Edk::new(1).unwrap();
//! b.cvap_producing(0x1000, k);         // dc cvap (1,0), [log slot]
//! b.store_consuming(0x2000, 42, k);    // str (0,1), Xv, [element]
//! let program = b.finish();
//! // lea + cvap, then lea + mov (value) + str — and crucially no DSB.
//! assert_eq!(program.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod asm;
pub mod builder;
pub mod disasm;
pub mod edk;
pub mod encode;
pub mod inst;
pub mod program;
pub mod reg;

pub use arch::ArchConfig;
pub use builder::TraceBuilder;
pub use edk::{Edk, EdkPair, NUM_EDKS};
pub use inst::{Inst, InstKind, Op};
pub use program::{InstId, Program};
pub use reg::Reg;

/// A virtual address in the simulated machine.
///
/// The simulated physical address space is split between DRAM and NVM; see
/// the `ede-nvm` crate's layout module for the canonical ranges.
pub type VAddr = u64;
