//! The evaluation applications of Table II.
//!
//! Two kernels and four PMDK-style persistent data structures, each
//! generating an instruction trace through the `ede-nvm` transaction
//! framework for any of the five architecture configurations:
//!
//! * [`update`] — update random elements of a persistent array;
//! * [`swap`] — swap pairs of random elements;
//! * [`btree`] — B-tree with 3–7 keys per node;
//! * [`ctree`] — crit-bit trie;
//! * [`rbtree`] — red–black tree with sentinel nodes;
//! * [`rtree`] — radix tree with radix 256.
//!
//! Every workload is deterministic given a seed, maintains a pure-Rust
//! functional oracle, and groups operations into failure-atomic
//! transactions (the paper runs 100 operations per transaction).
//!
//! # Example
//!
//! ```
//! use ede_isa::ArchConfig;
//! use ede_workloads::{update::Update, Workload, WorkloadParams};
//!
//! let params = WorkloadParams { ops: 20, ops_per_tx: 10, ..WorkloadParams::default() };
//! let out = Update.generate(&params, ArchConfig::Baseline);
//! assert_eq!(out.records.len(), 2); // two transactions of ten updates
//! assert!(out.program.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod ctree;
pub mod lockfree;
pub mod rbtree;
pub mod rtree;
pub mod swap;
pub mod update;

use ede_isa::ArchConfig;
use ede_nvm::TxOutput;
use ede_util::rng::SmallRng;

/// Parameters shared by every workload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WorkloadParams {
    /// Total operations to perform.
    pub ops: usize,
    /// Operations per failure-atomic transaction (the paper uses 100).
    pub ops_per_tx: usize,
    /// RNG seed; runs are deterministic per seed.
    pub seed: u64,
    /// Array elements for the kernel workloads.
    pub array_elems: u64,
    /// Silent pre-population inserts for the tree workloads: the pool
    /// starts warm and paper-scale (multi-megabyte) at zero simulation
    /// cost.
    pub prepopulate: usize,
    /// Probability that an emitted conditional branch was mispredicted.
    pub mispredict_rate: f64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            ops: 1000,
            ops_per_tx: 100,
            seed: 42,
            array_elems: 128 * 1024,
            prepopulate: 20_000,
            mispredict_rate: 0.02,
        }
    }
}

/// One Table II application.
///
/// `Send + Sync` is a supertrait so experiment sweeps can fan workloads
/// out across `ede_util::pool` workers; implementations are stateless
/// (all run state lives in the per-call RNG and trace builder), so the
/// bound is free.
pub trait Workload: Send + Sync {
    /// The paper's short name (`update`, `swap`, `btree`, …).
    fn name(&self) -> &'static str;

    /// The Table II description.
    fn description(&self) -> &'static str;

    /// Generates the instruction trace for `arch`, together with the
    /// transaction record and functional memory the crash checker needs.
    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput;
}

/// All six applications in Table II order.
pub fn standard_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(update::Update),
        Box::new(swap::Swap),
        Box::new(btree::BTree),
        Box::new(ctree::CTree),
        Box::new(rbtree::RbTree),
        Box::new(rtree::RTree),
    ]
}

/// The Table II suite plus the extension workloads (mixed-operation
/// red–black tree).
pub fn extended_suite() -> Vec<Box<dyn Workload>> {
    let mut v = standard_suite();
    v.push(Box::new(rbtree::RbMixed));
    v
}

/// Deterministic RNG for a workload run.
pub(crate) fn rng_for(params: &WorkloadParams, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(params.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Samples a branch-misprediction outcome.
pub(crate) fn mispredict(rng: &mut SmallRng, params: &WorkloadParams) -> bool {
    rng.gen_bool(params.mispredict_rate.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table2() {
        let names: Vec<&str> = standard_suite().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["update", "swap", "btree", "ctree", "rbtree", "rtree"]
        );
    }

    #[test]
    fn descriptions_present() {
        for w in standard_suite() {
            assert!(!w.description().is_empty());
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let p = WorkloadParams::default();
        let a: u64 = rng_for(&p, 1).gen();
        let b: u64 = rng_for(&p, 1).gen();
        assert_eq!(a, b);
        let c: u64 = rng_for(&p, 2).gen();
        assert_ne!(a, c);
    }
}
