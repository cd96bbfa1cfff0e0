//! Conservation invariants for the observability layer.
//!
//! The stall-attribution table claims *every* cycle of every stage
//! decomposes into busy + exactly one typed cause. That claim is only
//! useful if it holds on arbitrary programs, not just the ones unit
//! tests pick — so this suite drives it with the litmus fuzzer's
//! generator across the three crash-safe architectures:
//!
//! * `total_cycles == busy + Σ stall_cause_cycles` for every stage
//!   (checked structurally via [`StallTable::conserved`] *and* by
//!   re-summing the breakdown, so the helper itself is covered);
//! * `retired == golden model instruction count` — the in-order
//!   interpreter executes the whole trace, so the pipeline must retire
//!   exactly `program.len()` instructions, squashes notwithstanding;
//! * `persist events == PersistTrace length` — the registry's
//!   `mem.persist_events` counter and the crash-reconstruction trace
//!   must be two views of the same stream;
//! * attribution is conserved on every Table II application under every
//!   configuration, not only on generated litmus programs.

use ede_check::gen::{cmds_strategy, concretize};
use ede_check::golden::{self, GoldenConfig};
use ede_cpu::StageId;
use ede_isa::ArchConfig;
use ede_sim::{raw_output, run_program, run_workload, SimConfig};
use ede_util::{prop_assert, prop_assert_eq, property};
use ede_workloads::{standard_suite, WorkloadParams};

fn prop_sim() -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim
}

fn prop_sim_reference() -> SimConfig {
    let mut sim = prop_sim();
    sim.cpu.fast_forward = false;
    sim
}

property! {
    #![cases(24)]

    /// Every cycle of every stage is attributed, on every arch — on the
    /// default (fast-forward) path, whose bulk `record_span` credits
    /// whole skipped spans in one update.
    fn attribution_is_exhaustive_and_conserved(cmds in cmds_strategy(25)) {
        let program = concretize(&cmds);
        let golden = golden::run(&program, &GoldenConfig::default())
            .expect("generated programs satisfy the golden model");
        for arch in [ArchConfig::Baseline, ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let r = run_program("prop", raw_output(program.clone()), arch, &prop_sim())
                .expect("generated programs complete");
            prop_assert!(r.attribution.conserved(r.cycles), "not conserved on {arch}");
            for stage in StageId::ALL {
                let s = r.attribution.stage(stage);
                let resum: u64 =
                    s.busy + s.breakdown().map(|(_, cycles)| cycles).sum::<u64>();
                prop_assert_eq!(resum, r.cycles, "stage {} on {arch}", stage.label());
                prop_assert_eq!(s.total(), r.cycles, "stage {} on {arch}", stage.label());
            }
            prop_assert_eq!(
                r.retired,
                program.len() as u64,
                "golden model executes the whole trace ({arch})"
            );
            prop_assert_eq!(
                r.metrics.counter("mem.persist_events"),
                r.trace.persists.len() as u64,
                "registry and PersistTrace disagree on {arch}"
            );
            // The registry view of attribution must agree with the table.
            prop_assert_eq!(r.metrics.counter("cpu.cycles"), r.cycles);
            for stage in StageId::ALL {
                let from_reg: u64 = r.metrics.counter(&format!("cpu.stall.{}.busy", stage.label()))
                    + r.attribution
                        .stage(stage)
                        .breakdown()
                        .map(|(cause, _)| {
                            r.metrics.counter(
                                &format!("cpu.stall.{}.{}", stage.label(), cause.label()),
                            )
                        })
                        .sum::<u64>();
                prop_assert_eq!(from_reg, r.cycles, "registry stage {} on {arch}", stage.label());
            }
            // And the golden model must agree on how many persists the
            // run performed (conformance axiom 5, re-stated as a count).
            prop_assert_eq!(
                r.trace.persists.len(),
                golden.trace.persists.len(),
                "pipeline and golden persist counts disagree on {arch}"
            );
        }
    }

    /// Conservation holds identically on the reference per-cycle path,
    /// and the two paths produce the *same* attribution table — bulk
    /// span accounting must equal cycle-by-cycle accounting even when
    /// spans cross log2-histogram bucket boundaries.
    fn bulk_span_accounting_equals_per_cycle(cmds in cmds_strategy(25)) {
        let program = concretize(&cmds);
        for arch in [ArchConfig::Baseline, ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let fast = run_program("prop", raw_output(program.clone()), arch, &prop_sim())
                .expect("generated programs complete");
            let reference =
                run_program("prop", raw_output(program.clone()), arch, &prop_sim_reference())
                    .expect("generated programs complete");
            prop_assert!(fast.attribution.conserved(fast.cycles), "fast not conserved on {arch}");
            prop_assert!(
                reference.attribution.conserved(reference.cycles),
                "reference not conserved on {arch}"
            );
            prop_assert_eq!(fast.cycles, reference.cycles, "cycle counts differ on {arch}");
            prop_assert_eq!(
                fast.attribution,
                reference.attribution,
                "attribution tables differ on {arch}"
            );
            prop_assert_eq!(
                fast.metrics.to_json(),
                reference.metrics.to_json(),
                "metrics documents differ on {arch}"
            );
        }
    }
}

#[test]
fn attribution_is_conserved_on_every_application_and_arch() {
    let params = WorkloadParams {
        ops: 20,
        array_elems: 256,
        prepopulate: 200,
        ..WorkloadParams::default()
    };
    let sim = SimConfig::a72();
    for w in standard_suite() {
        for arch in ArchConfig::ALL {
            let r = run_workload(w.as_ref(), &params, arch, &sim)
                .unwrap_or_else(|e| panic!("{} on {arch}: {e}", w.name()));
            assert!(
                r.attribution.conserved(r.cycles),
                "{} on {arch}: unattributed stall cycles",
                w.name()
            );
        }
    }
}
