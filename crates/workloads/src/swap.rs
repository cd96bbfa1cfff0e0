//! The `swap` kernel: pairwise swaps of random array elements (Table II).

use crate::{mispredict, rng_for, Workload, WorkloadParams};
use ede_isa::ArchConfig;
use ede_nvm::{Layout, TxOutput, TxWriter};

/// Swap the values of two random elements of a persistent array inside a
/// failure-atomic transaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct Swap;

impl Workload for Swap {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn description(&self) -> &'static str {
        "Perform pairwise swaps between random array elements."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut rng = rng_for(params, 0x7377);
        let mut tx = TxWriter::new(Layout::standard(), arch);
        let base = tx.heap_alloc(params.array_elems * 8, 64);
        tx.write_init_words(base, params.array_elems, |i| i * 3 + 1);
        tx.finish_init();

        let mut in_tx = 0usize;
        for _ in 0..params.ops {
            if in_tx == 0 {
                tx.begin_tx();
            }
            let i = rng.gen_range(0..params.array_elems);
            let mut j = rng.gen_range(0..params.array_elems);
            if j == i {
                j = (j + 1) % params.array_elems;
            }
            let (ai, aj) = (base + i * 8, base + j * 8);
            tx.compute(3);
            let vi = tx.read(ai);
            let vj = tx.read(aj);
            // Guard branch (i != j) as real swap code would have.
            tx.compare_branch(i, j, mispredict(&mut rng, params));
            tx.write(ai, vj);
            tx.write(aj, vi);
            in_tx += 1;
            if in_tx == params.ops_per_tx {
                tx.commit_tx();
                in_tx = 0;
            }
        }
        if in_tx > 0 {
            tx.commit_tx();
        }
        tx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn swaps_preserve_multiset() {
        let p = WorkloadParams {
            ops: 40,
            ops_per_tx: 10,
            array_elems: 32,
            ..WorkloadParams::default()
        };
        let out = Swap.generate(&p, ArchConfig::Baseline);
        let base = out.init_writes[0].0;
        let init: HashSet<u64> = (0..32u64).map(|i| i * 3 + 1).collect();
        let fin: HashSet<u64> = (0..32u64).map(|i| out.memory.read(base + i * 8)).collect();
        assert_eq!(init, fin);
    }

    #[test]
    fn each_swap_logs_two_writes() {
        let p = WorkloadParams {
            ops: 10,
            ops_per_tx: 5,
            array_elems: 32,
            ..WorkloadParams::default()
        };
        let out = Swap.generate(&p, ArchConfig::IssueQueue);
        assert_eq!(out.records.len(), 2);
        for r in &out.records {
            assert_eq!(r.writes.len(), 10); // 5 swaps × 2 writes
        }
    }

    #[test]
    fn emits_branches() {
        let p = WorkloadParams {
            ops: 10,
            ops_per_tx: 5,
            array_elems: 32,
            ..WorkloadParams::default()
        };
        let out = Swap.generate(&p, ArchConfig::Baseline);
        let branches = out
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::Branch)
            .count();
        assert_eq!(branches, 10);
    }
}
