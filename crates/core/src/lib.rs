//! Execution Dependence Extension — core dependence-tracking machinery.
//!
//! This crate is the paper's primary contribution in library form. It
//! implements everything EDE adds to a processor *except* the pipeline
//! itself (which lives in `ede-cpu`):
//!
//! * [`Edm`] / [`SpeculativeEdm`] — the Execution Dependence Map, the
//!   fifteen-entry key→instruction map consulted at decode (§IV-A1), with
//!   the speculative/non-speculative copies of §V-A1. The per-key and
//!   global in-flight counts behind `WAIT_KEY` / `WAIT_ALL_KEYS` (§V-D)
//!   are pipeline state: `ede-cpu`'s in-flight window keeps them.
//! * [`EnforcementPoint`] — where the hardware enforces execution
//!   dependences: the issue queue (*IQ*, §V-B1) or the write buffer
//!   (*WB*, §V-B3).
//! * [`ordering`] — the ordering axioms as one edge enumeration
//!   (execution dependences, `WAIT_*` barriers, fence windows) and the
//!   architectural validator built on it: given observed completion and
//!   visibility times, checks that every edge was honored. Used as the
//!   master invariant in the simulator's property tests.
//! * [`depgraph`] — the persist partial order closing the same edges,
//!   enumerated by the exhaustive explorer.
//!
//! # Example
//!
//! Decoding the Figure 7 pair through the EDM links the consumer store to
//! the producer writeback:
//!
//! ```
//! use ede_core::SpeculativeEdm;
//! use ede_isa::{Edk, EdkPair, Inst, InstId, Op, Reg};
//!
//! let k = Edk::new(1).unwrap();
//! let cvap = Inst::with_edks(
//!     Op::DcCvap { base: Reg::x(0).unwrap(), addr: 0x40 },
//!     EdkPair::producer(k),
//! );
//! let store = Inst::with_edks(
//!     Op::Str { src: Reg::x(1).unwrap(), base: Reg::x(2).unwrap(), addr: 0x80, value: 6 },
//!     EdkPair::consumer(k),
//! );
//!
//! let mut edm = SpeculativeEdm::new();
//! let d0 = edm.decode(&cvap, InstId(0));
//! assert!(d0.is_empty());                       // nothing to wait for
//! let d1 = edm.decode(&store, InstId(1));
//! assert_eq!(d1.sources().collect::<Vec<_>>(), [InstId(0)]);    // store waits on the cvap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod depgraph;
pub mod edm;
pub mod ordering;
pub mod policy;

pub use edm::{ConsumedDeps, Edm, SpeculativeEdm};
pub use policy::EnforcementPoint;
