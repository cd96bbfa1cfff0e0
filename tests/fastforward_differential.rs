//! Differential fast-vs-reference suite for the quiescence-aware
//! fast-forward kernel.
//!
//! [`ede_cpu::CpuConfig::fast_forward`] lets the core jump its clock
//! over spans where nothing can happen, bulk-accounting the skipped
//! cycles. The kernel's contract is *byte identity*: every observable
//! output — run statistics, stall attribution, metrics documents,
//! chrome timelines, tracer event streams, persist traces, and typed
//! errors — must be indistinguishable from the reference per-cycle
//! path. This suite pins that contract:
//!
//! * a property test drives the litmus fuzzer's generator across B, IQ,
//!   and WB and diffs every observable between the two paths;
//! * every named litmus program is diffed the same way (the golden
//!   snapshots in `tests/golden/` are separately asserted against both
//!   paths by `trace_golden`, without re-blessing);
//! * watchdog regressions: an injected hang (`stuck-cvap`) must be
//!   diagnosed at the same cycle with the same [`ede_sim::SimError`]
//!   on both paths, and a `drop-persist` run must produce identical
//!   outcomes;
//! * the Figure 11 grid end to end: its JSON report, and the fenced
//!   baseline's cycle counts on every Table II application, must match;
//! * the kernel must actually engage (spans > 0) on idle-heavy runs —
//!   a differential suite comparing two identical reference runs would
//!   prove nothing.

use ede_check::gen::{cmds_strategy, concretize, Cmd};
use ede_check::litmus;
use ede_cpu::TracerConfig;
use ede_isa::{ArchConfig, Program};
use ede_mem::FaultInjection;
use ede_sim::experiment::{fig11, ExperimentConfig};
use ede_sim::{
    chrome_trace_json, metrics_json, raw_output, report, run_program, run_program_observed,
    run_workload, RunResult, SimConfig,
};
use ede_util::{prop_assert, property};
use ede_workloads::{standard_suite, WorkloadParams};

const ARCHS: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

fn sim(fast_forward: bool) -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim.cpu.fast_forward = fast_forward;
    sim
}

/// Every way two successful runs of the same program can observably
/// differ, as human-readable diff lines (empty = byte-identical).
fn result_diffs(fast: &RunResult, reference: &RunResult) -> Vec<String> {
    let mut diffs = Vec::new();
    macro_rules! field {
        ($name:ident) => {
            if fast.$name != reference.$name {
                diffs.push(format!(
                    "{}: fast {:?} != reference {:?}",
                    stringify!($name),
                    fast.$name,
                    reference.$name
                ));
            }
        };
    }
    field!(cycles);
    field!(tx_cycles);
    field!(retired);
    field!(squashes);
    field!(issue_hist);
    field!(nvm_occupancy);
    field!(mem_stats);
    field!(timings);
    field!(trace);
    field!(attribution);
    if fast.metrics.to_json() != reference.metrics.to_json() {
        diffs.push("metrics registries differ".to_string());
    }
    if metrics_json(fast) != metrics_json(reference) {
        diffs.push("metrics_json documents differ".to_string());
    }
    diffs
}

/// Runs `program` on `arch` under both paths with a tracer attached, and asserts every observable identical. Returns the
/// outcome diffs (empty = identical) so property bodies can shrink.
fn observed_diffs(program: &Program, arch: ArchConfig) -> Vec<String> {
    let run = |ff: bool| {
        run_program_observed(
            "diff",
            raw_output(program.clone()),
            arch,
            &sim(ff),
            TracerConfig::default(),
        )
    };
    match (run(true), run(false)) {
        (Ok((fr, ftr)), Ok((rr, rtr))) => {
            let mut diffs = result_diffs(&fr, &rr);
            if ftr.dropped() != rtr.dropped() {
                diffs.push(format!(
                    "tracer dropped: fast {} != reference {}",
                    ftr.dropped(),
                    rtr.dropped()
                ));
            }
            let fe: Vec<_> = ftr.events().collect();
            let re: Vec<_> = rtr.events().collect();
            if fe != re {
                diffs.push(format!(
                    "tracer streams differ: fast {} events, reference {}",
                    fe.len(),
                    re.len()
                ));
            }
            if chrome_trace_json(&fr, &ftr) != chrome_trace_json(&rr, &rtr) {
                diffs.push("chrome timelines differ".to_string());
            }
            if litmus::render_events(program, ftr.events())
                != litmus::render_events(program, rtr.events())
            {
                diffs.push("rendered event streams differ".to_string());
            }
            diffs
        }
        (Err(fe), Err(re)) => {
            if fe == re {
                Vec::new()
            } else {
                vec![format!("errors differ: fast {fe:?} != reference {re:?}")]
            }
        }
        (Ok(_), Err(e)) => vec![format!("fast succeeded, reference failed: {e:?}")],
        (Err(e), Ok(_)) => vec![format!("fast failed ({e:?}), reference succeeded")],
    }
}

property! {
    #![cases(24)]

    /// Generated programs: every observable is identical on every arch.
    fn fast_and_reference_paths_are_byte_identical(cmds in cmds_strategy(25)) {
        let program = concretize(&cmds);
        for arch in ARCHS {
            let diffs = observed_diffs(&program, arch);
            prop_assert!(
                diffs.is_empty(),
                "fast/reference divergence on {arch}:\n{}",
                diffs.join("\n")
            );
        }
    }
}

#[test]
fn litmus_catalog_is_identical_on_both_paths() {
    for name in litmus::NAMES {
        let program = litmus::program(name).expect(name);
        for arch in ARCHS {
            let diffs = observed_diffs(&program, arch);
            assert!(
                diffs.is_empty(),
                "fast/reference divergence for {name} on {arch}:\n{}",
                diffs.join("\n")
            );
        }
    }
}

/// A trace whose trailing `WAIT_KEY` can never be satisfied once the
/// `stuck-cvap` fault swallows the persist acknowledgement.
fn hang_program() -> (Program, ede_isa::Edk) {
    let key = ede_isa::Edk::new(3).unwrap();
    let mut b = ede_isa::TraceBuilder::new();
    b.store(0x1_0000_0000, 1);
    b.cvap_producing(0x1_0000_0000, key);
    b.wait_key(key);
    (b.finish(), key)
}

#[test]
fn watchdog_deadlock_is_identical_on_both_paths() {
    // The fast path spends the whole watchdog window inside skipped
    // spans; the diagnosis must still fire at the same cycle with the
    // same typed cause and the same oldest-blocked-instruction record.
    let (program, key) = hang_program();
    let mut errs = Vec::new();
    for ff in [true, false] {
        let mut sim = sim(ff);
        sim.cpu.watchdog_cycles = 10_000;
        sim.mem.fault = Some(FaultInjection::StuckCvap { nth: 0 });
        let err = run_program(
            "hang",
            raw_output(program.clone()),
            ArchConfig::WriteBuffer,
            &sim,
        )
        .unwrap_err();
        assert!(err.is_deadlock(), "{err}");
        let (inst, cause) = err.deadlock_cause().unwrap();
        assert!(inst.is_some());
        assert_eq!(cause, ede_cpu::core::WaitCause::EdeKey(key));
        errs.push(err);
    }
    assert_eq!(errs[0], errs[1], "deadlock diagnoses differ between paths");
}

#[test]
fn dropped_persist_outcome_is_identical_on_both_paths() {
    // drop-persist does not hang the pipeline — it silently loses a
    // media write. Both paths must agree on the entire observable
    // outcome, persist trace included.
    let mut b = ede_isa::TraceBuilder::new();
    b.store(0x1_0000_0000, 1);
    b.cvap(0x1_0000_0000);
    b.store(0x1_0000_0040, 2);
    b.cvap(0x1_0000_0040);
    b.dsb_sy();
    let program = b.finish();
    let mut results = Vec::new();
    for ff in [true, false] {
        let mut sim = sim(ff);
        sim.mem.fault = Some(FaultInjection::DropPersist { nth: 0 });
        let r = run_program(
            "drop",
            raw_output(program.clone()),
            ArchConfig::Baseline,
            &sim,
        )
        .expect("drop-persist does not hang");
        results.push(r);
    }
    let diffs = result_diffs(&results[0], &results[1]);
    assert!(diffs.is_empty(), "divergence:\n{}", diffs.join("\n"));
}

#[test]
fn fuzz_diff_case_agrees_on_both_paths() {
    // The conformance oracle itself (generator → golden model → axiom
    // diff) must return the same verdict whichever path simulated the
    // pipeline, with and without an injected pipeline bug.
    use ede_check::fuzz::diff_case_ff;
    use ede_util::check::Strategy;
    use ede_util::rng::SmallRng;
    let strat = cmds_strategy(20);
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cmds: Vec<Cmd> = strat.generate(&mut rng).value;
        for arch in ARCHS {
            for fault in [None, Some(FaultInjection::DropEdeps)] {
                let fast = diff_case_ff(&cmds, arch, fault, true);
                let reference = diff_case_ff(&cmds, arch, fault, false);
                assert_eq!(
                    fast, reference,
                    "oracle verdict differs (seed {seed}, {arch}, {fault:?})"
                );
            }
        }
    }
}

#[test]
fn fig11_report_and_baseline_cycles_are_identical_on_both_paths() {
    let experiment = |fast_forward| {
        let mut sim = SimConfig::a72();
        sim.cpu.fast_forward = fast_forward;
        ExperimentConfig {
            params: WorkloadParams {
                ops: 20,
                array_elems: 256,
                prepopulate: 200,
                ..WorkloadParams::default()
            },
            sim,
            jobs: 1,
        }
    };
    let (fast, reference) = (experiment(true), experiment(false));
    assert_eq!(
        report::fig11_json(&fig11(&fast).expect("fast path completes")),
        report::fig11_json(&fig11(&reference).expect("reference path completes")),
        "fast-forward and reference paths disagree on the fig11 report"
    );
    // The fenced baseline stalls the whole pipeline on every DSB SY for
    // a full NVM round trip: the span population the kernel skips.
    let baseline_cycles = |cfg: &ExperimentConfig| -> Vec<u64> {
        standard_suite()
            .iter()
            .map(|w| {
                run_workload(w.as_ref(), &cfg.params, ArchConfig::Baseline, &cfg.sim)
                    .expect("baseline run completes")
                    .cycles
            })
            .collect()
    };
    assert_eq!(
        baseline_cycles(&fast),
        baseline_cycles(&reference),
        "fast-forward and reference paths disagree on baseline cycle counts"
    );
}

#[test]
fn fast_forward_engages_on_idle_heavy_runs() {
    // Guard against the suite silently comparing reference to
    // reference: on a persist-then-fence program the fast path must
    // take spans and report fewer wall-clock ticks' worth of work. The
    // span counters are core-internal diagnostics, so observe the
    // engagement through the core API directly.
    use ede_cpu::{Core, CpuConfig, FixedLatencyMem};
    let mut b = ede_isa::TraceBuilder::new();
    for i in 0..4u64 {
        b.store(0x40 + i * 0x40, i);
        b.cvap(0x40 + i * 0x40);
        b.dsb_sy();
    }
    let mut core = Core::new(CpuConfig::a72(), b.finish(), FixedLatencyMem::new(10, 50));
    let stats = core.run(1_000_000).unwrap();
    assert!(core.fast_forward_spans() > 0, "kernel never engaged");
    assert!(
        core.fast_forward_skipped() > stats.cycles / 2,
        "an idle-heavy run should skip most of its cycles ({} of {})",
        core.fast_forward_skipped(),
        stats.cycles
    );
}
