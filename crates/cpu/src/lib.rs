//! Cycle-level out-of-order core with IQ and WB EDE enforcement.
//!
//! Models the processor of Table I: a 3-wide-decode, 8-wide-issue
//! out-of-order core in the style of an Arm Cortex-A72, with a reorder
//! buffer, an issue queue with register-dependence wakeup, split 16-entry
//! load/store queues, and a 16-entry post-retirement write buffer that
//! drains stores and `DC CVAP` requests into the memory system.
//!
//! The EDE machinery from `ede-core` is wired in at three points:
//!
//! * **decode** accesses the speculative Execution Dependence Map to link
//!   consumers to producers (§V-A);
//! * **issue** honors the `eDepReady` bit under the *IQ* policy (§V-B1);
//! * **write-buffer drain** honors `srcID` tags under the *WB* policy
//!   (§V-D), along with `DMB ST` barrier tokens and same-line ordering.
//!
//! Fences are modeled architecturally: `DSB SY` blocks dispatch until
//! every older instruction — including persist acknowledgements — has
//! completed; `DMB SY` orders memory operations at issue; `DMB ST` orders
//! store visibility at the write buffer.
//!
//! Branches carry trace-resolved mispredictions; resolving one squashes
//! younger instructions and restores the speculative EDM from the
//! non-speculative copy, exercising §V-A1.
//!
//! A core has one optional event sink, the [`Tracer`] attached with
//! [`Core::set_tracer`]: every [`PipeStage`] transition of every
//! instruction, plus stall, occupancy and quiet samples every
//! `sample_every` cycles (never, when `sample_every` is 0).
//! [`TracerConfig::STAGES`] records the complete stage stream and
//! nothing else.
//!
//! # Example
//!
//! ```
//! use ede_cpu::{Core, CpuConfig};
//! use ede_isa::TraceBuilder;
//! use ede_mem::{MemConfig, MemSystem};
//!
//! let mut b = TraceBuilder::new();
//! b.store(0x1_0000_0000, 42);
//! b.cvap(0x1_0000_0000);
//! b.dsb_sy();
//! let program = b.finish();
//!
//! let mem = MemSystem::new(MemConfig::a72_hybrid());
//! let mut core = Core::new(CpuConfig::a72(), program, mem);
//! let stats = core.run(1_000_000).expect("terminates");
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.retired, 6); // lea+mov+str, lea+cvap, dsb
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod port;
pub mod stats;
pub mod trace;
pub mod wb;

pub use crate::core::{Core, CoreError, RunStats};
pub use config::{CpuConfig, FaultInjection};
pub use port::{FixedLatencyMem, MemPort};
pub use stats::IssueHistogram;
pub use trace::{
    PipeStage, StageId, StallCause, StallTable, TraceEvent, TraceEventKind, Tracer, TracerConfig,
};
