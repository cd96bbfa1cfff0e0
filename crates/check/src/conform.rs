//! The persist-order conformance checker.
//!
//! Given one pipeline run — its per-instruction timings, its
//! [`PersistTrace`](ede_mem::PersistTrace), and its stage-event stream
//! (the [`Tracer`] that [`run_program_traced`](ede_sim::run_program_traced)
//! returns) — and the golden model's sequential execution of the same
//! program, checks every EDE ordering axiom the paper's correctness
//! argument rests on:
//!
//! 1. **Pipeline sanity** — stage transitions are monotone per
//!    instruction ([`check_stage_order`]) and retirement is exactly
//!    program order (`retire_order`). Both read the tracer's stage
//!    events; a stream that dropped events fails the check rather than
//!    passing on what is left.
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
use ede_cpu::{PipeStage, Tracer};
use ede_isa::InstId;
use ede_mem::trace::nvm_image_at;
use ede_sim::RunResult;
use std::collections::BTreeMap;

/// Runs every conformance axiom over one pipeline run and its stage
/// events; returns one human-readable diff per violated axiom instance
/// (empty = conformant). A `tracer` that dropped events is itself a
/// diff: axiom 1 never passes on a truncated stream.
pub fn check_run(result: &RunResult, tracer: &Tracer, golden: &GoldenRun) -> Vec<String> {
    let program = &result.output.program;
    let mut diffs = Vec::new();

    // 1. Pipeline sanity.
    if tracer.dropped() > 0 {
        diffs.push(format!(
            "stage stream incomplete: {} events dropped",
            tracer.dropped()
        ));
    } else {
        if let Err(e) = check_stage_order(tracer) {
            diffs.push(format!("stage order: {e}"));
        }
        let retired = retire_order(tracer);
        let in_program_order = retired
            .iter()
            .zip(retired.iter().skip(1))
            .all(|(a, b)| a < b);
        if retired.len() != program.len() || !in_program_order {
            diffs.push(format!(
                "retirement: {} events (program has {}), in order: {}",
                retired.len(),
                program.len(),
                in_program_order
            ));
        }
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

    let outputs = RunOutputs::of(result);

    // 4. Same-address coherence: store-visibility value sequences.
    let gold_seqs = golden.value_seqs();
    if outputs.store_seqs != gold_seqs {
        let addr = first_difference(&outputs.store_seqs, &gold_seqs);
        diffs.push(format!(
            "store coherence at {addr:#x}: pipeline saw {:?}, golden order is {:?}",
            outputs.store_seqs.get(&addr).unwrap_or(&Vec::new()),
            gold_seqs.get(&addr).unwrap_or(&Vec::new()),
        ));
    }

    // 5. Per-line persist counts.
    let gold_persists = golden.persist_counts();
    if outputs.persist_counts != gold_persists {
        diffs.push(format!(
            "persist counts: pipeline {:?}, golden {gold_persists:?}",
            outputs.persist_counts
        ));
    }

    // 6. Final NVM image.
    if outputs.image != golden.nvm_image {
        let addr = first_difference(&outputs.image, &golden.nvm_image);
        diffs.push(format!(
            "NVM image at {addr:#x}: pipeline {:?}, golden {:?}",
            outputs.image.get(&addr),
            golden.nvm_image.get(&addr),
        ));
    }

    diffs
}

/// A run's architectural outputs: what axioms 4–6 compare against the
/// golden model, and what the fault-injection campaign compares between
/// a faulty and a fault-free run to call a fault tolerated. Cycle
/// timestamps are deliberately absent.
#[derive(PartialEq, Eq, Debug)]
pub(crate) struct RunOutputs {
    /// Per-word-address store-visibility value sequences.
    pub store_seqs: BTreeMap<u64, Vec<u64>>,
    /// Persist events per 64-byte line.
    pub persist_counts: BTreeMap<u64, usize>,
    /// The NVM image the trace leaves at its horizon.
    pub image: BTreeMap<u64, u64>,
}

impl RunOutputs {
    pub(crate) fn of(result: &RunResult) -> RunOutputs {
        let mut store_seqs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for se in &result.trace.stores {
            store_seqs.entry(se.addr).or_default().push(se.value[0]);
            if se.width == 16 {
                store_seqs.entry(se.addr + 8).or_default().push(se.value[1]);
            }
        }
        let mut persist_counts: BTreeMap<u64, usize> = BTreeMap::new();
        for pe in &result.trace.persists {
            *persist_counts.entry(pe.line).or_default() += 1;
        }
        let image = nvm_image_at(&result.trace, result.trace.horizon(), 64)
            .into_iter()
            .collect();
        RunOutputs {
            store_seqs,
            persist_counts,
            image,
        }
    }
}

/// Instruction ids in the order they retired. Retirement is unique per
/// instruction (squash precedes retire), so this is the committed
/// architectural order — [`check_run`] asserts it is program order.
fn retire_order(tracer: &Tracer) -> Vec<InstId> {
    tracer
        .stages()
        .filter(|&(_, _, stage)| stage == PipeStage::Retire)
        .map(|(_, id, _)| id)
        .collect()
}

/// Checks the fundamental pipeline invariant: within each
/// instruction's final (post-squash) incarnation, stages occur at
/// nondecreasing cycles in the order `Dispatch ≤ Issue ≤ Executed ≤
/// Retire ≤ Drain ≤ Complete`, except that instructions whose
/// completion point precedes retirement (ALU/loads/IQ-mode controls)
/// may emit Complete before Retire.
///
/// # Errors
///
/// A human-readable description of the first violation.
///
/// # Example
///
/// ```
/// use ede_check::conform::check_stage_order;
/// use ede_cpu::{PipeStage, TraceEvent, TraceEventKind, Tracer, TracerConfig};
/// use ede_isa::InstId;
///
/// let mut tracer = Tracer::new(TracerConfig::STAGES);
/// for (cycle, stage) in [(1, PipeStage::Dispatch), (2, PipeStage::Issue)] {
///     tracer.push(TraceEvent { cycle, kind: TraceEventKind::Stage { id: InstId(0), stage } });
/// }
/// assert!(check_stage_order(&tracer).is_ok());
/// ```
pub fn check_stage_order(tracer: &Tracer) -> Result<(), String> {
    let n = tracer
        .stages()
        .map(|(_, id, _)| id.index() + 1)
        .max()
        .unwrap_or(0);
    // Keep only each instruction's final incarnation: drop everything
    // at or before its last Squash event.
    let mut last_squash: Vec<Option<usize>> = vec![None; n];
    for (i, (_, id, stage)) in tracer.stages().enumerate() {
        if stage == PipeStage::Squash {
            last_squash[id.index()] = Some(i);
        }
    }
    let mut cursor: Vec<Option<(PipeStage, u64)>> = vec![None; n];
    for (i, (cycle, id, stage)) in tracer.stages().enumerate() {
        if stage == PipeStage::Squash || last_squash[id.index()].is_some_and(|s| i < s) {
            continue; // a squash, or an earlier incarnation
        }
        if let Some((prev_stage, prev_cycle)) = cursor[id.index()] {
            // Instructions whose completion point precedes retirement
            // (ALU writeback, load data return, IQ-mode controls)
            // legally emit Complete before Retire.
            let order_ok = prev_stage <= stage
                || (prev_stage == PipeStage::Complete && stage == PipeStage::Retire);
            if !order_ok || prev_cycle > cycle {
                return Err(format!(
                    "instruction {id}: {prev_stage}@{prev_cycle} then {stage}@{cycle}"
                ));
            }
        }
        cursor[id.index()] = Some((stage, cycle));
    }
    Ok(())
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
    use ede_cpu::{TraceEvent, TraceEventKind, TracerConfig};
    use ede_isa::ArchConfig;
    use ede_sim::{raw_output, run_program_traced, SimConfig};

    /// A complete stage stream of `(cycle, id, stage)` events.
    fn stream(events: &[(u64, u64, PipeStage)]) -> Tracer {
        let mut tracer = Tracer::new(TracerConfig::STAGES);
        for &(cycle, id, stage) in events {
            tracer.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Stage {
                    id: InstId(id),
                    stage,
                },
            });
        }
        tracer
    }

    /// A small program's traced pipeline run on `arch`, and its golden run.
    fn clean_case(arch: ArchConfig) -> (RunResult, Tracer, GoldenRun) {
        let cmds = vec![
            Cmd::Store { slot: 0, key: 0 },
            Cmd::Cvap { slot: 0, key: 1 },
            Cmd::Store { slot: 1, key: 1 },
            Cmd::DsbSy,
        ];
        let program = concretize(&cmds);
        let golden = golden::run(&program, &GoldenConfig::default()).unwrap();
        let (result, tracer) =
            run_program_traced("conform", raw_output(program), arch, &SimConfig::a72()).unwrap();
        (result, tracer, golden)
    }

    #[test]
    fn clean_run_has_no_diffs() {
        for arch in [
            ArchConfig::Baseline,
            ArchConfig::IssueQueue,
            ArchConfig::WriteBuffer,
        ] {
            let (result, tracer, golden) = clean_case(arch);
            let diffs = check_run(&result, &tracer, &golden);
            assert!(diffs.is_empty(), "{arch}: {diffs:?}");
        }
    }

    #[test]
    fn truncated_stage_stream_fails_closed() {
        let (result, full, golden) = clean_case(ArchConfig::WriteBuffer);
        let mut truncated = Tracer::new(TracerConfig {
            capacity: full.len() - 1,
            sample_every: 0,
        });
        for ev in full.events() {
            truncated.push(*ev);
        }
        let diffs = check_run(&result, &truncated, &golden);
        assert_eq!(diffs, ["stage stream incomplete: 1 events dropped"]);
    }

    #[test]
    fn ordering_violation_detected() {
        let tracer = stream(&[(5, 0, PipeStage::Issue), (4, 0, PipeStage::Executed)]);
        let err = check_stage_order(&tracer).expect_err("time went backwards");
        assert!(err.contains("instruction #0"));
        let tracer = stream(&[(1, 0, PipeStage::Executed), (2, 0, PipeStage::Issue)]);
        let err = check_stage_order(&tracer).expect_err("stage went backwards");
        assert!(err.contains("executed@1 then issue@2"), "{err}");
    }

    #[test]
    fn squash_resets_incarnation() {
        let tracer = stream(&[
            (1, 0, PipeStage::Dispatch),
            (2, 0, PipeStage::Issue),
            (3, 0, PipeStage::Squash),
            // Re-dispatch after the squash is a fresh incarnation.
            (9, 0, PipeStage::Dispatch),
            (10, 0, PipeStage::Issue),
        ]);
        assert!(check_stage_order(&tracer).is_ok());
    }

    #[test]
    fn retire_order_and_stage_events() {
        let tracer = stream(&[
            (1, 0, PipeStage::Dispatch),
            (2, 1, PipeStage::Retire),
            (3, 0, PipeStage::Retire),
        ]);
        assert_eq!(retire_order(&tracer), vec![InstId(1), InstId(0)]);
        assert_eq!(
            tracer
                .stages()
                .filter(|&(_, _, s)| s == PipeStage::Dispatch)
                .count(),
            1
        );
    }

    #[test]
    fn out_of_order_retirement_is_a_diff() {
        let (result, tracer, golden) = clean_case(ArchConfig::WriteBuffer);
        let mut swapped = Tracer::new(TracerConfig::STAGES);
        let mut retires = tracer.events().filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::Stage {
                    stage: PipeStage::Retire,
                    ..
                }
            )
        });
        let (first, second) = (*retires.next().unwrap(), *retires.next().unwrap());
        for ev in tracer.events() {
            // Swap which instruction each of the first two retirements names.
            swapped.push(match *ev {
                e if e == first => TraceEvent {
                    kind: second.kind,
                    ..e
                },
                e if e == second => TraceEvent {
                    kind: first.kind,
                    ..e
                },
                e => e,
            });
        }
        let diffs = check_run(&result, &swapped, &golden);
        assert!(
            diffs.iter().any(|d| d.contains("in order: false")),
            "{diffs:?}"
        );
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
