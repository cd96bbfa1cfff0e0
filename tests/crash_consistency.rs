//! Crash-consistency verification across architecture configurations.
//!
//! The paper's crash-safe configurations (B, IQ, WB) must survive a power
//! failure at *any* instant: undo recovery restores the state after
//! exactly the committed prefix of transactions. The unsafe
//! configurations (SU, U) permit reorderings that break this. These tests
//! check both directions — exhaustively, by examining every distinct NVM
//! image a run can leave behind.

use ede_isa::ArchConfig;
use ede_nvm::cow::cow_update_kernel;
use ede_nvm::redo::redo_update_kernel;
use ede_nvm::{CrashChecker, TxOutput};
use ede_sim::{run_program, run_workload, RunResult, SimConfig};
use ede_workloads::{standard_suite, update::Update, WorkloadParams};

fn params() -> WorkloadParams {
    WorkloadParams {
        ops: 90,
        ops_per_tx: 30,
        array_elems: 16 * 1024, // large enough that data stores miss
        prepopulate: 300,
        ..WorkloadParams::default()
    }
}

#[test]
fn safe_configs_survive_every_crash_point() {
    let sim = SimConfig::a72();
    for w in standard_suite() {
        for arch in ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe()) {
            let r = run_workload(w.as_ref(), &params(), arch, &sim).unwrap();
            let checker = CrashChecker::new(&r.output);
            checker.check_all_images(&r.trace).unwrap_or_else(|(c, e)| {
                panic!(
                    "{} on {arch}: crash at cycle {c} unrecoverable: {e}",
                    w.name()
                )
            });
        }
    }
}

#[test]
fn unsafe_config_u_loses_data_at_some_crash_point() {
    // U removes all fences: the commit marker's persist can overtake a
    // still-in-flight data persist, leaving a committed transaction with
    // missing data — unrecoverable.
    let sim = SimConfig::a72();
    let r = run_workload(&Update, &params(), ArchConfig::Unsafe, &sim).unwrap();
    let checker = CrashChecker::new(&r.output);
    let err = checker
        .check_all_images(&r.trace)
        .expect_err("U must admit an unrecoverable crash point");
    // The violation is a real data-loss scenario, not a checker artifact.
    let (cycle, e) = err;
    assert!(cycle > 0);
    let e = e.inconsistency().expect("a consistency violation");
    assert_ne!(e.expected, e.found);
}

#[test]
fn su_reorders_what_the_baseline_forbids() {
    // SU's unsafety at the instruction level: a data store can become
    // visible before the older log persist completes (DMB ST does not
    // order DC CVAP). Under B, the DSB makes that impossible.
    let sim = SimConfig::a72();
    let p = params();

    let ordered_pairs = |arch: ArchConfig| -> (usize, usize) {
        let r = run_workload(&Update, &p, arch, &sim).unwrap();
        let prog = &r.output.program;
        // For each (log cvap, following data store) pair in program
        // order, check whether the store's drain awaited the persist ack.
        // A pair is a log persist protected by a fence, and the data
        // store after it: `dc cvap; dsb|dmb st; …; str` (Figures 2/4).
        let mut total = 0;
        let mut early = 0;
        let mut last_cvap: Option<ede_isa::InstId> = None;
        let mut fenced_cvap: Option<ede_isa::InstId> = None;
        for (id, inst) in prog.iter() {
            match inst.kind() {
                ede_isa::InstKind::Writeback => last_cvap = Some(id),
                ede_isa::InstKind::FenceFull | ede_isa::InstKind::FenceStore => {
                    fenced_cvap = last_cvap.take();
                }
                ede_isa::InstKind::Store => {
                    if let Some(c) = fenced_cvap.take() {
                        total += 1;
                        if r.timings[id.index()].effect < r.timings[c.index()].complete {
                            early += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        (total, early)
    };

    let (b_total, b_early) = ordered_pairs(ArchConfig::Baseline);
    assert!(b_total > 50);
    assert_eq!(b_early, 0, "B must never let a store precede the persist");

    let (su_total, su_early) = ordered_pairs(ArchConfig::StoreBarrierUnsafe);
    assert!(su_total > 50);
    assert!(
        su_early > su_total / 2,
        "SU should routinely drain stores before older persists complete \
         ({su_early}/{su_total})"
    );
}

#[test]
fn recovery_rolls_back_partial_transactions() {
    // Crash immediately before the last commit becomes durable: the
    // final transaction must be rolled back to its pre-state. Commit
    // markers land twin line first, so the commit point — the instant
    // the marker survives a crash — is the *twin's* persist, not the
    // primary's.
    let sim = SimConfig::a72();
    let r = run_workload(&Update, &params(), ArchConfig::Baseline, &sim).unwrap();
    let checker = CrashChecker::new(&r.output);
    let last_persist_of = |line: u64| {
        r.trace
            .persists
            .iter()
            .filter(|p| p.line == line & !63)
            .map(|p| p.cycle)
            .max()
            .expect("commits persisted")
    };
    let last_commit = last_persist_of(r.output.layout.log_header_twin);
    let committed_before = checker.check_at(&r.trace, last_commit - 1).unwrap();
    let committed_after = checker.check_at(&r.trace, last_commit).unwrap();
    assert_eq!(committed_after, r.output.records.len() as u64);
    assert!(committed_before < committed_after);
    // The primary's own persist follows the twin's and changes nothing:
    // the marker was already recoverable from the twin.
    let last_primary = last_persist_of(r.output.layout.log_header);
    assert!(last_primary > last_commit);
    assert_eq!(
        checker.check_at(&r.trace, last_primary - 1).unwrap(),
        committed_after
    );
}

/// Runs a protocol kernel's transactional program on `arch`; the run's
/// output records the kernel's protocol, so `crash_consistent` checks
/// every crash image with that protocol's recovery.
fn run_kernel(name: &str, arch: ArchConfig, out: TxOutput) -> RunResult {
    run_program(name, out, arch, &SimConfig::a72()).expect("run completes")
}

#[test]
fn redo_logging_is_crash_safe_on_safe_configs() {
    for arch in ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe()) {
        let out = redo_update_kernel(arch, 60, 20, 4096, 7);
        run_kernel("redo", arch, out)
            .crash_consistent()
            .unwrap_or_else(|(c, e)| panic!("redo on {arch}: crash at {c}: {e}"));
    }
}

#[test]
fn redo_logging_unsafe_without_ordering() {
    let arch = ArchConfig::Unsafe;
    let out = redo_update_kernel(arch, 90, 30, 16 * 1024, 7);
    run_kernel("redo-u", arch, out)
        .crash_consistent()
        .expect_err("U redo must admit an unrecoverable crash point");
}

#[test]
fn cow_is_crash_safe_on_safe_configs_and_torn_under_u() {
    for arch in ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe()) {
        let out = cow_update_kernel(arch, 40, 10, 64, 7);
        run_kernel("cow", arch, out)
            .crash_consistent()
            .unwrap_or_else(|(c, e)| panic!("cow on {arch}: crash at {c}: {e}"));
    }
    // Unsafe: the root switch may persist before the shadow blocks.
    let arch = ArchConfig::Unsafe;
    let out = cow_update_kernel(arch, 90, 30, 64, 7);
    run_kernel("cow-u", arch, out)
        .crash_consistent()
        .expect_err("U CoW must admit a torn tree");
}

#[test]
fn all_tree_workloads_crash_safe_under_wb() {
    // The most complex code paths (splits, rotations, trie re-walks,
    // red-black deletion) with the most aggressive safe hardware.
    let sim = SimConfig::a72();
    let p = WorkloadParams {
        ops: 60,
        ops_per_tx: 20,
        prepopulate: 500,
        ..WorkloadParams::default()
    };
    for w in ede_workloads::extended_suite().into_iter().skip(2) {
        let r = run_workload(w.as_ref(), &p, ArchConfig::WriteBuffer, &sim).unwrap();
        let checker = CrashChecker::new(&r.output);
        checker
            .check_all_images(&r.trace)
            .unwrap_or_else(|(c, e)| panic!("{} crash at {c}: {e}", w.name()));
    }
}
