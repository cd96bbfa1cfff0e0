//! The resilient-campaign contract, end to end: a campaign interrupted
//! mid-flight and resumed from its checkpoint — on a different worker
//! count — must be **observably indistinguishable** from one that never
//! stopped — same report, same rendered ledger, same metrics — for
//! every `jobs` value and both simulation paths. And a worker panic must be quarantined, not fatal,
//! with a record that is itself jobs-invariant and survives resume.

use ede_check::fuzz::{campaign_metrics, fuzz, fuzz_campaign, FuzzOptions};
use ede_check::{
    corrupt_campaign, explore_campaign, inject_campaign, CorruptOptions, CorruptionKind,
    ExploreOptions, HarnessPanic, InjectOptions, RuntimeOptions, Source,
};
use ede_cpu::FaultInjection;
use ede_isa::ArchConfig;
use std::path::PathBuf;
use std::sync::Once;

/// (jobs, fast_forward) grid every scenario below must be invisible on.
const GRID: [(usize, bool); 4] = [(1, true), (4, true), (1, false), (4, false)];

/// The worker count a grid point's resumed leg runs on: the other one,
/// since `jobs` is excluded from the checkpoint fingerprint.
fn resume_jobs(jobs: usize) -> usize {
    if jobs == 1 {
        4
    } else {
        1
    }
}

/// Silences the default panic hook for the *deliberate* self-test
/// panics only — real panics still print. Installed once per process.
fn quiet_deliberate_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("deliberate harness panic") {
                default(info);
            }
        }));
    });
}

fn temp_checkpoint(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ede-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.json"))
}

/// Interrupt after `stop_after` fresh units (checkpointing every unit),
/// then resume; both runs reuse `base` options untouched. On a pool of
/// `w` workers at most `w + stop_after - 1` units start before the
/// deadline trips, so a sweep of more units than that is always cut.
fn interrupt_then_resume(tag: &str, stop_after: u64) -> (RuntimeOptions, RuntimeOptions) {
    let path = temp_checkpoint(tag);
    let interrupt = RuntimeOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 1,
        stop_after_units: Some(stop_after),
        ..RuntimeOptions::default()
    };
    let resume = RuntimeOptions {
        resume_from: Some(path),
        ..RuntimeOptions::default()
    };
    (interrupt, resume)
}

#[test]
fn fuzz_interrupt_and_resume_is_invisible_on_the_whole_grid() {
    for (jobs, fast_forward) in GRID {
        let base = FuzzOptions {
            cases: 24,
            max_cmds: 15,
            jobs,
            fast_forward,
            ..FuzzOptions::default()
        };
        let clean = fuzz(&base);
        let (interrupt, resume) = interrupt_then_resume(&format!("fuzz-{jobs}-{fast_forward}"), 9);
        let interrupted = fuzz_campaign(&FuzzOptions {
            runtime: interrupt,
            ..base.clone()
        })
        .expect("interrupted run");
        assert!(interrupted.interrupted, "jobs={jobs} ff={fast_forward}");
        assert!(
            interrupted.cases_run < base.cases,
            "interrupt truncated the scan"
        );
        let resumed = fuzz_campaign(&FuzzOptions {
            jobs: resume_jobs(jobs),
            runtime: resume,
            ..base.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed, clean, "jobs={jobs} ff={fast_forward}");
        assert_eq!(
            campaign_metrics(&base, resumed.cases_run, 16).to_json(),
            campaign_metrics(&base, clean.cases_run, 16).to_json(),
            "metrics jobs={jobs} ff={fast_forward}"
        );
    }
}

#[test]
fn fuzz_survives_a_chain_of_interruptions() {
    let base = FuzzOptions {
        cases: 20,
        max_cmds: 12,
        jobs: 2,
        ..FuzzOptions::default()
    };
    let clean = fuzz(&base);
    let path = temp_checkpoint("fuzz-chain");
    // Three partial legs, each resuming the last, then a final full leg.
    for stop in [4u64, 4, 4] {
        let report = fuzz_campaign(&FuzzOptions {
            runtime: RuntimeOptions {
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 1,
                resume_from: Some(path.clone()).filter(|p| p.exists()),
                stop_after_units: Some(stop),
                ..RuntimeOptions::default()
            },
            ..base.clone()
        })
        .expect("partial leg");
        assert!(report.interrupted, "leg should stop early");
    }
    let finished = fuzz_campaign(&FuzzOptions {
        runtime: RuntimeOptions {
            resume_from: Some(path),
            ..RuntimeOptions::default()
        },
        ..base.clone()
    })
    .expect("final leg");
    assert_eq!(finished, clean);
}

#[test]
fn inject_interrupt_and_resume_is_invisible_on_the_whole_grid() {
    let faults: Vec<FaultInjection> = ["drop-edeps", "weak-dsb"]
        .iter()
        .map(|f| FaultInjection::parse(f).expect("known fault"))
        .collect();
    for (jobs, fast_forward) in GRID {
        let base = InjectOptions {
            cases: 1,
            max_cmds: 12,
            faults: faults.clone(),
            jobs,
            fast_forward,
            ..InjectOptions::default()
        };
        let clean = inject_campaign(&base).expect("clean run");
        let (interrupt, resume) =
            interrupt_then_resume(&format!("inject-{jobs}-{fast_forward}"), 2);
        let interrupted = inject_campaign(&InjectOptions {
            runtime: interrupt,
            ..base.clone()
        })
        .expect("interrupted run");
        assert!(interrupted.interrupted, "jobs={jobs} ff={fast_forward}");
        assert!(
            interrupted.cells.len() < clean.cells.len(),
            "truncated matrix"
        );
        assert!(interrupted.to_json().contains("\"interrupted\": true"));
        let resumed = inject_campaign(&InjectOptions {
            jobs: resume_jobs(jobs),
            runtime: resume,
            ..base.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed, clean, "jobs={jobs} ff={fast_forward}");
        assert_eq!(
            resumed.to_json(),
            clean.to_json(),
            "jobs={jobs} ff={fast_forward}"
        );
        assert_eq!(
            resumed.metrics().to_json(),
            clean.metrics().to_json(),
            "metrics jobs={jobs} ff={fast_forward}"
        );
    }
}

#[test]
fn explore_interrupt_and_resume_is_invisible_on_the_whole_grid() {
    for (jobs, fast_forward) in GRID {
        let base = ExploreOptions {
            source: Source::Litmus(vec!["two_update".to_string(), "hazard".to_string()]),
            jobs,
            fast_forward,
            ..ExploreOptions::default()
        };
        let clean = explore_campaign(&base).expect("clean run");
        let (interrupt, resume) =
            interrupt_then_resume(&format!("explore-{jobs}-{fast_forward}"), 2);
        let interrupted = explore_campaign(&ExploreOptions {
            runtime: interrupt,
            ..base.clone()
        })
        .expect("interrupted run");
        assert!(interrupted.interrupted, "jobs={jobs} ff={fast_forward}");
        assert!(
            interrupted.cells.len() < interrupted.planned_cells,
            "truncated ledger"
        );
        let resumed = explore_campaign(&ExploreOptions {
            jobs: resume_jobs(jobs),
            runtime: resume,
            ..base.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed, clean, "jobs={jobs} ff={fast_forward}");
        assert_eq!(
            resumed.to_json(),
            clean.to_json(),
            "jobs={jobs} ff={fast_forward}"
        );
    }
}

#[test]
fn corrupt_interrupt_and_resume_is_invisible_on_the_whole_grid() {
    for (jobs, fast_forward) in GRID {
        let base = CorruptOptions {
            cases: 1,
            kinds: vec![
                CorruptionKind::TornWord { count: 1 },
                CorruptionKind::WipeZero,
                CorruptionKind::Truncate,
            ],
            archs: vec![
                ArchConfig::Baseline,
                ArchConfig::IssueQueue,
                ArchConfig::WriteBuffer,
            ],
            jobs,
            fast_forward,
            ..CorruptOptions::default()
        };
        let clean = corrupt_campaign(&base).expect("clean run");
        let (interrupt, resume) =
            interrupt_then_resume(&format!("corrupt-{jobs}-{fast_forward}"), 2);
        let interrupted = corrupt_campaign(&CorruptOptions {
            runtime: interrupt,
            ..base.clone()
        })
        .expect("interrupted run");
        assert!(interrupted.interrupted, "jobs={jobs} ff={fast_forward}");
        assert!(
            interrupted.cells.len() < clean.cells.len(),
            "truncated matrix"
        );
        assert!(interrupted.to_json().contains("\"interrupted\": true"));
        let resumed = corrupt_campaign(&CorruptOptions {
            jobs: resume_jobs(jobs),
            runtime: resume,
            ..base.clone()
        })
        .expect("resumed run");
        assert_eq!(resumed, clean, "jobs={jobs} ff={fast_forward}");
        assert_eq!(
            resumed.to_json(),
            clean.to_json(),
            "jobs={jobs} ff={fast_forward}"
        );
        assert_eq!(
            resumed.metrics().to_json(),
            clean.metrics().to_json(),
            "metrics jobs={jobs} ff={fast_forward}"
        );
    }
}

#[test]
fn quarantine_records_are_jobs_invariant() {
    quiet_deliberate_panics();
    let base = FuzzOptions {
        cases: 12,
        max_cmds: 12,
        jobs: 1,
        self_test_panic: Some(4),
        ..FuzzOptions::default()
    };
    let sequential = fuzz(&base);
    assert_eq!(
        sequential.quarantined,
        vec![HarnessPanic {
            unit: 4,
            payload: "deliberate harness panic at case 4".to_string(),
        }]
    );
    assert!(sequential.failure.is_none() && !sequential.interrupted);
    let parallel = fuzz(&FuzzOptions {
        jobs: 4,
        ..base.clone()
    });
    assert_eq!(parallel, sequential, "quarantine must not leak scheduling");
}

#[test]
fn self_test_panic_past_the_failure_cutoff_is_still_quarantined() {
    quiet_deliberate_panics();
    // The runner fires the hook before fuzz's earliest-failure cutoff,
    // so the quarantine record never depends on whether a worker
    // reached the panicking case before the failure landed.
    let run = |jobs| {
        fuzz(&FuzzOptions {
            cases: 6,
            fault: Some(FaultInjection::DropEdeps),
            self_test_panic: Some(4),
            jobs,
            ..FuzzOptions::default()
        })
    };
    let sequential = run(1);
    let failure = sequential.failure.as_ref().expect("drop-edeps fails early");
    assert!(failure.case < 4, "failure at case {}", failure.case);
    assert_eq!(
        sequential.quarantined,
        vec![HarnessPanic {
            unit: 4,
            payload: "deliberate harness panic at case 4".to_string(),
        }]
    );
    assert_eq!(run(4), sequential);
}

#[test]
fn quarantine_records_survive_interrupt_and_resume() {
    quiet_deliberate_panics();
    let base = FuzzOptions {
        cases: 16,
        max_cmds: 12,
        jobs: 2,
        self_test_panic: Some(1),
        ..FuzzOptions::default()
    };
    let clean = fuzz(&base);
    assert_eq!(
        clean.quarantined.len(),
        1,
        "self-test panic must quarantine"
    );
    let (interrupt, resume) = interrupt_then_resume("fuzz-quarantine", 6);
    let interrupted = fuzz_campaign(&FuzzOptions {
        runtime: interrupt,
        ..base.clone()
    })
    .expect("interrupted run");
    assert!(interrupted.interrupted);
    let resumed = fuzz_campaign(&FuzzOptions {
        runtime: resume,
        ..base.clone()
    })
    .expect("resumed run");
    assert_eq!(
        resumed, clean,
        "the quarantine record must ride the checkpoint"
    );
}

#[test]
fn quarantined_cells_never_block_the_other_campaigns() {
    quiet_deliberate_panics();
    let inject_report = inject_campaign(&InjectOptions {
        cases: 1,
        max_cmds: 12,
        faults: vec![FaultInjection::parse("drop-edeps").expect("known fault")],
        jobs: 2,
        self_test_panic: Some(0),
        ..InjectOptions::default()
    })
    .expect("inject self-test");
    assert_eq!(inject_report.quarantined.len(), 1);
    assert!(!inject_report.interrupted);
    let explore_report = explore_campaign(&ExploreOptions {
        source: Source::Litmus(vec!["hazard".to_string()]),
        jobs: 2,
        self_test_panic: Some(2),
        ..ExploreOptions::default()
    })
    .expect("explore self-test");
    assert_eq!(explore_report.quarantined.len(), 1);
    assert_eq!(
        explore_report.cells.len() + explore_report.quarantined.len(),
        explore_report.planned_cells,
        "every planned cell is accounted for"
    );
}
