//! The persist-order conformance checker.
//!
//! Given one pipeline run — its per-instruction timings, its
//! [`PersistTrace`](ede_mem::PersistTrace), and its recorded pipeline
//! events — and the golden model's sequential execution of the same
//! program, checks every EDE ordering axiom the paper's correctness
//! argument rests on:
//!
//! 1. **Pipeline sanity** — stage transitions are monotone per
//!    instruction and retirement is exactly program order.
//! 2. **Execution dependences** (§IV) — no consumer takes effect before
//!    its producers complete, and nothing a `WAIT_*` holds back takes
//!    effect before the wait completes.
//! 3. **Fence semantics** — `DSB SY` orders everything; `DMB ST` orders
//!    store visibility but *not* persists (the SU gap); `DMB SY` orders
//!    memory accesses.
//!
//!    Axioms 2 and 3 are one check ([`ordering::check`]) over the edges
//!    the explorer's `PersistDag` closes, so the two oracles cannot
//!    drift apart.
//! 4. **Same-address coherence** — per-address store-visibility sequences
//!    equal the golden model's program-order sequences.
//! 5. **Persist accounting** — per-line persist counts match the golden
//!    model (a `DC CVAP` of a dirty NVM line persists exactly once; clean
//!    and volatile lines persist nothing).
//! 6. **Final NVM image** — replaying the trace to its horizon yields
//!    exactly the golden model's persisted image.
//!
//! Axioms 4–6 assume the program confines its stores to a footprint
//! small enough that the simulated LLC never evicts a dirty NVM line
//! (evictions persist without a `DC CVAP`, which sequential execution
//! cannot predict). The fuzzer's generator guarantees this by
//! construction ([`gen::SLOTS`](crate::gen::SLOTS)).

use crate::golden::GoldenRun;
use ede_core::ordering::{self, Axiom, OrderRelaxation};
use ede_cpu::ptrace::PipeRecorder;
use ede_mem::trace::nvm_image_at;
use ede_sim::RunResult;
use std::collections::BTreeMap;

/// Runs every conformance axiom over one pipeline run; returns one
/// human-readable diff per violated axiom instance (empty = conformant).
pub fn check_run(result: &RunResult, rec: &PipeRecorder, golden: &GoldenRun) -> Vec<String> {
    let program = &result.output.program;
    let mut diffs = Vec::new();

    // 1. Pipeline sanity.
    if let Err(e) = rec.check_stage_order() {
        diffs.push(format!("stage order: {e}"));
    }
    let retired = rec.retire_order();
    let in_program_order = retired.iter().zip(retired.iter().skip(1)).all(|(a, b)| a < b);
    if retired.len() != program.len() || !in_program_order {
        diffs.push(format!(
            "retirement: {} events (program has {}), in order: {}",
            retired.len(),
            program.len(),
            in_program_order
        ));
    }

    // 2 & 3. Ordering axioms over observed timings.
    for v in ordering::check(program, &result.timings, OrderRelaxation::NONE) {
        let axiom = match v.kind {
            Axiom::Execution => "execution dependence",
            Axiom::WaitBarrier => "WAIT barrier",
            Axiom::FullFence => "DSB SY",
            Axiom::StoreFence => "DMB ST",
            Axiom::MemFence => "DMB SY",
        };
        diffs.push(format!(
            "{axiom}: {} (as {:?}) not honored before {}",
            v.producer, v.kind, v.consumer
        ));
    }

    // 4. Same-address coherence: store-visibility value sequences.
    let mut pipe_seqs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for se in &result.trace.stores {
        pipe_seqs.entry(se.addr).or_default().push(se.value[0]);
        if se.width == 16 {
            pipe_seqs.entry(se.addr + 8).or_default().push(se.value[1]);
        }
    }
    let gold_seqs = golden.value_seqs();
    if pipe_seqs != gold_seqs {
        let addr = first_difference(&pipe_seqs, &gold_seqs);
        diffs.push(format!(
            "store coherence at {addr:#x}: pipeline saw {:?}, golden order is {:?}",
            pipe_seqs.get(&addr).unwrap_or(&Vec::new()),
            gold_seqs.get(&addr).unwrap_or(&Vec::new()),
        ));
    }

    // 5. Per-line persist counts.
    let mut pipe_persists: BTreeMap<u64, usize> = BTreeMap::new();
    for pe in &result.trace.persists {
        *pipe_persists.entry(pe.line).or_default() += 1;
    }
    let gold_persists = golden.persist_counts();
    if pipe_persists != gold_persists {
        diffs.push(format!(
            "persist counts: pipeline {pipe_persists:?}, golden {gold_persists:?}"
        ));
    }

    // 6. Final NVM image.
    let image: BTreeMap<u64, u64> =
        nvm_image_at(&result.trace, result.trace.horizon(), 64).into_iter().collect();
    if image != golden.nvm_image {
        let addr = first_difference(&image, &golden.nvm_image);
        diffs.push(format!(
            "NVM image at {addr:#x}: pipeline {:?}, golden {:?}",
            image.get(&addr),
            golden.nvm_image.get(&addr),
        ));
    }

    diffs
}

/// First key at which two maps disagree (either side missing or values
/// differing). Only called when the maps are known to differ.
fn first_difference<V: PartialEq>(a: &BTreeMap<u64, V>, b: &BTreeMap<u64, V>) -> u64 {
    a.keys()
        .chain(b.keys())
        .copied()
        .find(|k| a.get(k) != b.get(k))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{concretize, Cmd};
    use crate::golden::{self, GoldenConfig};
    use ede_isa::ArchConfig;
    use ede_sim::{raw_output, run_program_traced, SimConfig};

    #[test]
    fn clean_run_has_no_diffs() {
        let cmds = vec![
            Cmd::Store { slot: 0, key: 0 },
            Cmd::Cvap { slot: 0, key: 1 },
            Cmd::Store { slot: 1, key: 1 },
            Cmd::DsbSy,
        ];
        let program = concretize(&cmds);
        let golden = golden::run(&program, &GoldenConfig::default()).unwrap();
        for arch in [ArchConfig::Baseline, ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let (result, rec) = run_program_traced(
                "conform",
                raw_output(program.clone()),
                arch,
                &SimConfig::a72(),
            )
            .unwrap();
            let diffs = check_run(&result, &rec, &golden);
            assert!(diffs.is_empty(), "{arch}: {diffs:?}");
        }
    }

    #[test]
    fn first_difference_finds_missing_and_unequal_keys() {
        let a: BTreeMap<u64, u64> = [(1, 10), (2, 20)].into_iter().collect();
        let b: BTreeMap<u64, u64> = [(1, 10), (2, 21)].into_iter().collect();
        assert_eq!(first_difference(&a, &b), 2);
        let c: BTreeMap<u64, u64> = [(1, 10)].into_iter().collect();
        assert_eq!(first_difference(&a, &c), 2);
    }
}
