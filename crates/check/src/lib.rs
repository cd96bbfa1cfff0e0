//! Differential conformance checking for the EDE pipeline.
//!
//! The paper's evaluation stands on the out-of-order pipeline in
//! `ede-cpu` enforcing *exactly* the execution dependences the ISA
//! expresses — a bug in rename, the issue queue, or write-buffer drain
//! silently invalidates every figure. This crate checks the pipeline
//! against an independent oracle on adversarial inputs, in the style of
//! herd-like litmus conformance tooling:
//!
//! * [`golden`] — an architectural **in-order interpreter** for the full
//!   `ede-isa` instruction set. It produces final register/memory state
//!   and a `PersistTrace` of its stores and persists in program order:
//!   the per-address store sequences and the persist order a
//!   sequentially-executed program must exhibit.
//! * [`gen`] — a seeded **litmus fuzzer** on `ede_util::check`: random
//!   well-formed programs biased toward EDE key reuse, aliasing stores,
//!   flush/fence interleavings, and key-exhaustion pressure, with
//!   rose-tree shrinking to a minimal failing program.
//! * [`conform`] — the **persist-order conformance checker**: replays a
//!   run's `PersistTrace` and pipeline events against the EDE ordering
//!   axioms (declared execution dependences, `DSB`/`DMB` semantics,
//!   same-address coherence) and diffs the final NVM image against the
//!   golden model.
//! * [`fuzz`](mod@fuzz) — the differential driver tying the three together across
//!   `ArchConfig`s, used by the `ede-sim fuzz` CLI and the CI smoke job.
//! * [`litmus`] — named minimal persist-idiom programs (`two_update`,
//!   `hazard`, `join`, …) and a snapshot-stable event-stream renderer,
//!   shared by the golden-trace tests and the `ede-sim trace` CLI.
//! * [`explore`](mod@explore) — the bounded-exhaustive model checker: enumerates
//!   every admissible persist-order crash state (sleep-set pruned, with
//!   explicit budgets) and proves the litmus idioms clean — or produces
//!   a shrunk counterexample under an injected ordering fault
//!   (`ede-sim explore`).
//! * [`inject`](mod@inject) — the fault-injection campaign: sweeps the
//!   [`FaultInjection`](ede_mem::FaultInjection) taxonomy across
//!   architectures and asserts every fault is detected (conformance
//!   axioms, crash checker, or pipeline watchdog) or provably
//!   tolerated, emitting a JSON detection-coverage matrix
//!   (`ede-sim inject`).
//! * [`corrupt`](mod@corrupt) — the at-rest corruption campaign: seeded byte-level
//!   damage (bit flips, torn words, sector tears, truncation,
//!   duplicated regions, wipes) applied to crash images drawn from
//!   simulated transaction programs, swept through
//!   [`ede_nvm::triage`] recovery and held to the triage contract —
//!   no panic, no silent wrong image, every damaged region accounted
//!   for (`ede-sim corrupt`).
//! * [`resume`] — the resilient campaign runtime shared by the
//!   campaign subcommands: versioned `ede.checkpoint.v1` documents
//!   flushed atomically at a configurable cadence, fingerprint-checked
//!   `--resume` with byte-identical final output, per-unit panic
//!   quarantine ([`HarnessPanic`] records), and graceful
//!   `--max-wall-secs` deadline shutdown (exit code 3). Fuzz, inject,
//!   explore, and corrupt each implement one `Campaign` trait over it,
//!   and one runner (`campaign::run`) owns the resume / quarantine /
//!   deadline protocol for all four, handing each finished unit to the
//!   campaign's fold in unit order; its only progress record is the
//!   [`Checkpoint`] it flushes.
//!
//! # Example
//!
//! ```
//! use ede_check::fuzz::{fuzz, FuzzOptions};
//!
//! let report = fuzz(&FuzzOptions { cases: 3, max_cmds: 12, ..FuzzOptions::default() });
//! assert!(report.failure.is_none(), "pipeline conforms on a tiny budget");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod conform;
pub mod corrupt;
pub mod explore;
pub mod fuzz;
pub mod gen;
pub mod golden;
pub mod inject;
pub mod litmus;
pub mod resume;

pub use conform::check_run;
pub use corrupt::{
    corrupt, corrupt_campaign, CorruptFailure, CorruptOp, CorruptOptions, CorruptReport,
    CorruptionKind,
};
pub use explore::{
    explore, explore_campaign, ExploreError, ExploreOptions, ExploreReport, Source, Verdict,
};
pub use fuzz::{fuzz, fuzz_campaign, FuzzFailure, FuzzOptions, FuzzReport};
pub use gen::{cmd_strategy, cmds_strategy, concretize, Cmd};
pub use golden::{GoldenConfig, GoldenError, GoldenRun};
pub use inject::{inject, inject_campaign, CellReport, InjectFailure, InjectOptions, InjectReport};
pub use resume::{Checkpoint, HarnessPanic, ResumeError, RuntimeOptions};
