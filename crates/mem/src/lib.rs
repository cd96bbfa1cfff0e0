//! Memory-hierarchy simulator for the EDE evaluation platform.
//!
//! Models the memory side of Table I: three levels of set-associative
//! writeback caches, and a single memory controller in front of a *split*
//! physical address space — part DRAM (2400 MHz DDR4-like latency), part
//! NVM with asymmetric read/write latencies, 256-byte device lines, and a
//! persistent 128-slot on-DIMM buffer with write coalescing (Asynchronous
//! DRAM Refresh semantics: a write is *persistent* as soon as the buffer
//! accepts it).
//!
//! The CPU model talks to [`MemSystem`] through three request kinds:
//!
//! * [`ReqKind::Load`] — a demand read;
//! * [`ReqKind::StoreDrain`] — a retired store leaving the write buffer
//!   and becoming globally visible in the cache;
//! * [`ReqKind::Cvap`] — a `DC CVAP` cleaning a line to the point of
//!   persistence; its response is the *persist acknowledgement* that
//!   completes the instruction in the EDE sense.
//!
//! Every store drain and every persist (buffer insertion or coalescing
//! merge, plus dirty NVM evictions) is also recorded in a
//! [`PersistTrace`], from which [`trace::nvm_image_at`] reconstructs the
//! exact NVM contents at any crash instant, and [`trace::ImageCursor`]
//! those at a rising sequence of instants in one pass — the substrate for
//! the crash-consistency test suite.
//!
//! # Example
//!
//! ```
//! use ede_mem::{MemConfig, MemSystem, ReqKind};
//!
//! let cfg = MemConfig::a72_hybrid();
//! let mut mem = MemSystem::new(cfg.clone());
//! let nvm_addr = cfg.nvm_base;
//! let id = mem
//!     .try_access(ReqKind::StoreDrain { value: [7, 0], width: 8 }, nvm_addr, 0)
//!     .expect("accepts first request");
//! let mut done = Vec::new();
//! let mut now = 0;
//! while done.is_empty() {
//!     now += 1;
//!     mem.tick(now, &mut done);
//! }
//! assert_eq!(done[0].id, id);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod fault;
pub mod nvm;
pub mod stats;
pub mod system;
pub mod trace;

pub use config::MemConfig;
pub use fault::{FaultInjection, FaultLayer};
pub use nvm::PersistBuffer;
pub use stats::MemStats;
pub use system::{DrainError, MemResp, MemSystem, ReqId, ReqKind};
pub use trace::PersistTrace;
