//! Zero-dependency infrastructure for the EDE workspace.
//!
//! The evaluation environment is hermetic: `cargo build` and `cargo test`
//! must complete with no network access and no external registry
//! dependencies. This crate supplies, in-repo, the infrastructure the
//! workspace would otherwise pull from crates.io:
//!
//! * [`rng`] — a seedable, deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++) with the `gen` / `gen_range` / `gen_bool` / `shuffle`
//!   surface the workload generators use;
//! * [`check`] — a minimal property-testing harness: generator
//!   combinators, bounded shrinking, deterministic per-test seeding, and
//!   `EDE_PROPTEST_CASES` / `EDE_PROPTEST_SEED` environment overrides;
//! * [`pool`] — a scoped thread pool (std::thread + channels) with a
//!   deterministic map-reduce layer: results come back in submission
//!   order, so parallel runs are bit-identical to sequential ones
//!   (`EDE_JOBS` selects the worker count);
//! * [`obs`] — a metrics registry (counters, gauges, log2-bucketed
//!   histograms) with byte-stable JSON serialization, deterministic
//!   merging, and a strict JSON parser for shape validation;
//! * [`diff`] — line-oriented unified diffs for snapshot tests;
//! * [`idmap`] — a `HashMap` for dense integer keys that hashes with one
//!   multiply instead of SipHash;
//! * [`progress`] — a line-buffered, mutex-serialized writer so
//!   concurrent campaign workers emit whole progress lines on stderr.
//!
//! Everything is deterministic by construction: a property-test failure
//! prints the seed that reproduces it, the same seed always replays
//! the same cases, and the parallel fan-out never changes an output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod diff;
pub mod idmap;
pub mod obs;
pub mod pool;
pub mod progress;
pub mod rng;
