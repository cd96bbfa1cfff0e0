//! The `update` kernel: random single-element updates of a persistent
//! array (Table II).

use crate::{mispredict, rng_for, Workload, WorkloadParams};
use ede_isa::ArchConfig;
use ede_nvm::{Layout, TxOutput, TxWriter};

/// Update random elements in a persistent array, with undo logging for
/// crash consistency — the paper's primary motivating kernel (Figure 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct Update;

impl Workload for Update {
    fn name(&self) -> &'static str {
        "update"
    }

    fn description(&self) -> &'static str {
        "Perform updates on random elements in an array."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut rng = rng_for(params, 0x7570);
        let sampler = crate::IndexSampler::new(params);
        let mut tx = TxWriter::new(Layout::standard(), arch);
        let base = tx.heap_alloc(params.array_elems * 8, 64);
        tx.write_init_words(base, params.array_elems, |i| i);
        tx.finish_init();

        let mut in_tx = 0usize;
        for _ in 0..params.ops {
            if in_tx == 0 {
                tx.begin_tx();
            }
            // Index computation, then the p_array[i] = v of Figure 1.
            let idx = sampler.sample(&mut rng);
            let value: u64 = rng.gen();
            tx.compute(2);
            tx.write(base + idx * 8, value);
            in_tx += 1;
            if in_tx == params.ops_per_tx {
                tx.commit_tx();
                in_tx = 0;
            }
        }
        if in_tx > 0 {
            tx.commit_tx();
        }
        // Occasional loop-control branch.
        let mut rng2 = rng_for(params, 0x7571);
        let _ = mispredict(&mut rng2, params);
        tx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadParams {
            ops: 30,
            ops_per_tx: 10,
            array_elems: 64,
            ..WorkloadParams::default()
        };
        let a = Update.generate(&p, ArchConfig::Baseline);
        let b = Update.generate(&p, ArchConfig::Baseline);
        assert_eq!(a.program.len(), b.program.len());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn groups_ops_into_transactions() {
        let p = WorkloadParams {
            ops: 25,
            ops_per_tx: 10,
            array_elems: 64,
            ..WorkloadParams::default()
        };
        let out = Update.generate(&p, ArchConfig::Baseline);
        assert_eq!(out.records.len(), 3); // 10 + 10 + 5
        assert_eq!(out.records[0].writes.len(), 10);
        assert_eq!(out.records[2].writes.len(), 5);
    }

    #[test]
    fn functional_state_reflects_all_updates() {
        let p = WorkloadParams {
            ops: 50,
            ops_per_tx: 10,
            array_elems: 16,
            ..WorkloadParams::default()
        };
        let out = Update.generate(&p, ArchConfig::Unsafe);
        // Replay the records over the initial array and compare.
        let mut model: Vec<u64> = (0..16).collect();
        let base = out.init_writes[0].0;
        for r in &out.records {
            for &(addr, _, new) in &r.writes {
                model[((addr - base) / 8) as usize] = new;
            }
        }
        for (i, &v) in model.iter().enumerate() {
            assert_eq!(out.memory.read(base + i as u64 * 8), v);
        }
    }

    #[test]
    fn arch_changes_code_not_semantics() {
        let p = WorkloadParams {
            ops: 20,
            ops_per_tx: 10,
            array_elems: 64,
            ..WorkloadParams::default()
        };
        let b = Update.generate(&p, ArchConfig::Baseline);
        let wb = Update.generate(&p, ArchConfig::WriteBuffer);
        assert_eq!(b.records, wb.records);
        assert_ne!(b.program.len(), wb.program.len());
    }
}
