//! A persistent-memory programming framework over the simulated machine.
//!
//! This crate plays the role PMDK plays in the paper's evaluation: it
//! provides failure-atomic transactions over undo logging ([`TxWriter`]),
//! redo logging ([`redo`]) and copy-on-write ([`cow`]), and it *lowers*
//! every framework operation into the instruction sequences of Figures 2,
//! 4 and 7. Each ordering a protocol needs becomes the fences or EDE
//! annotations of the selected architecture configuration in one place,
//! the crate-private `lowering` module (`src/lowering.rs`), which holds
//! the per-configuration table of Table III.
//!
//! The crate also owns the *crash side* of the story:
//!
//! * [`triage`] holds the one recovery entry point,
//!   [`recover`](triage::recover), for each failure-atomicity
//!   [`Protocol`] (undo, redo, CoW). It classifies every
//!   image region, repairs torn superblocks from their twin line, and
//!   reports through one [`RecoveryOutcome`]
//!   taxonomy, whether the image came from a crash or rotted at rest;
//! * [`crash`] replays a simulation's persist trace to an arbitrary crash
//!   instant, runs that recovery, and checks failure atomicity against
//!   the transaction record — the test that separates the crash-safe
//!   configurations (B, IQ, WB) from the unsafe ones (SU, U);
//! * [`recovery`] prices undo recovery as an instruction trace on the
//!   simulated machine.
//!
//! # Example
//!
//! ```
//! use ede_isa::ArchConfig;
//! use ede_nvm::{Layout, TxWriter};
//!
//! let layout = Layout::standard();
//! let mut tx = TxWriter::new(layout, ArchConfig::WriteBuffer);
//! let x = tx.heap_alloc(8, 8);
//! tx.write_init(x, 1);
//! tx.finish_init();
//!
//! tx.begin_tx();
//! tx.write(x, 2);                 // undo-logged, EDE-ordered persist
//! tx.commit_tx();
//!
//! let out = tx.finish();
//! assert_eq!(out.records.len(), 1);
//! assert_eq!(out.records[0].writes, vec![(x, 1, 2)]);
//! assert!(out.program.len() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod cow;
pub mod crash;
pub mod heap;
pub mod layout;
pub mod log;
mod lowering;
pub mod memory;
pub mod recovery;
pub mod redo;
pub mod triage;
mod writer;

pub use codegen::{TxOutput, TxRecord, TxWriter};
pub use crash::{CheckFailure, ConsistencyError, CrashChecker};
pub use heap::BumpHeap;
pub use layout::Layout;
pub use memory::SimMemory;
pub use triage::{Protocol, RecoveryOutcome, RegionClass, RegionReport, TriageReport};
