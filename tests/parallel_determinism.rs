//! The parallel determinism contract, end to end: every artifact this
//! workspace produces — figure serializations, fuzz verdicts, shrunk
//! reproducers — must be **bit-identical** for every `jobs` value. The
//! thread pool is pure mechanism; if any of these assertions fails, a
//! scheduling decision has leaked into an output.

use ede_check::fuzz::{campaign_metrics, fuzz, FuzzOptions};
use ede_check::litmus;
use ede_cpu::{FaultInjection, TracerConfig};
use ede_isa::ArchConfig;
use ede_sim::experiment::{fig10_with, fig9_with, ExperimentConfig};
use ede_sim::report::{fig10_json, fig9_json};
use ede_sim::{chrome_trace_json, metrics_json, raw_output, run_program_observed, SimConfig};
use ede_util::pool;
use ede_workloads::{btree::BTree, update::Update, Workload, WorkloadParams};

const JOB_COUNTS: [usize; 3] = [1, 4, 7];

fn cfg(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        params: WorkloadParams {
            ops: 60,
            ops_per_tx: 20,
            array_elems: 256,
            prepopulate: 500,
            ..WorkloadParams::default()
        },
        sim: SimConfig::a72(),
        jobs,
    }
}

fn suite() -> Vec<Box<dyn Workload>> {
    vec![Box::new(Update), Box::new(BTree)]
}

#[test]
fn fig9_serialization_is_bit_identical_across_job_counts() {
    let baseline = fig9_json(&fig9_with(&cfg(1), &suite()).unwrap());
    for jobs in JOB_COUNTS {
        let json = fig9_json(&fig9_with(&cfg(jobs), &suite()).unwrap());
        assert_eq!(json, baseline, "fig9 diverged at jobs {jobs}");
    }
}

#[test]
fn fig10_serialization_is_bit_identical_across_job_counts() {
    let baseline = fig10_json(&fig10_with(&cfg(1), &suite()).unwrap());
    for jobs in JOB_COUNTS {
        let json = fig10_json(&fig10_with(&cfg(jobs), &suite()).unwrap());
        assert_eq!(json, baseline, "fig10 diverged at jobs {jobs}");
    }
}

/// A clean 200-case fuzz campaign produces the same report — same
/// `cases_run`, same absent failure — for every worker count.
#[test]
fn clean_fuzz_verdict_is_identical_across_job_counts() {
    let opts = |jobs| FuzzOptions {
        seed: 0xDE7E,
        cases: 200,
        max_cmds: 15,
        jobs,
        ..FuzzOptions::default()
    };
    let baseline = fuzz(&opts(1));
    assert!(baseline.failure.is_none(), "{:?}", baseline.failure);
    assert_eq!(baseline.cases_run, 200);
    for jobs in JOB_COUNTS {
        assert_eq!(fuzz(&opts(jobs)), baseline, "fuzz diverged at jobs {jobs}");
    }
}

/// A failing campaign (injected DropEdeps fault) produces the same
/// earliest failing case, the same derived case seed, and the same
/// *shrunk reproducer* for every worker count — the whole failure object
/// compares equal, commands and minimal program included.
#[test]
fn failing_fuzz_report_is_identical_across_job_counts() {
    let opts = |jobs| FuzzOptions {
        cases: 40,
        fault: Some(FaultInjection::DropEdeps),
        jobs,
        ..FuzzOptions::default()
    };
    let baseline = fuzz(&opts(1));
    let failure = baseline.failure.as_ref().expect("fault must be caught");
    assert!(!failure.cmds.is_empty());
    for jobs in JOB_COUNTS {
        assert_eq!(fuzz(&opts(jobs)), baseline, "failure diverged at jobs {jobs}");
    }
}

/// The `ede.metrics.v1` document and the Chrome-trace timeline for one
/// traced run: byte-identical across repeated same-seed runs. A single
/// run uses no pool, so the repeats are the determinism axis here —
/// the campaign test below covers the `--jobs` axis.
#[test]
fn trace_artifacts_are_byte_identical_across_repeats() {
    let render = |arch: ArchConfig| {
        let program = litmus::program("join").unwrap();
        let (r, tracer) = run_program_observed(
            "join",
            raw_output(program.clone()),
            arch,
            &SimConfig::a72(),
            TracerConfig::default(),
        )
        .unwrap();
        (
            metrics_json(&r),
            chrome_trace_json(&r, &tracer),
            litmus::render_events(&program, tracer.events()),
        )
    };
    for arch in [ArchConfig::Baseline, ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
        let baseline = render(arch);
        for rep in 0..2 {
            assert_eq!(render(arch), baseline, "run diverged on {arch} repeat {rep}");
        }
    }
}

/// The fuzz campaign-metrics registry — a sequential replay by
/// construction — serializes identically however many workers the
/// scan itself used, and across repeats.
#[test]
fn campaign_metrics_are_byte_identical_across_job_counts() {
    let opts = |jobs| FuzzOptions {
        seed: 0xA11CE,
        cases: 6,
        max_cmds: 12,
        jobs,
        ..FuzzOptions::default()
    };
    let baseline = {
        let report = fuzz(&opts(1));
        assert!(report.failure.is_none(), "{:?}", report.failure);
        campaign_metrics(&opts(1), report.cases_run, 4).to_json()
    };
    for jobs in JOB_COUNTS {
        let report = fuzz(&opts(jobs));
        let json = campaign_metrics(&opts(jobs), report.cases_run, 4).to_json();
        assert_eq!(json, baseline, "campaign metrics diverged at jobs {jobs}");
    }
}

/// The pool primitive itself: order preservation under oversubscription
/// and under more workers than items.
#[test]
fn pool_output_is_independent_of_worker_count() {
    let items: Vec<u64> = (0..97).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37) ^ 7).collect();
    for jobs in [1, 2, 4, 7, 32] {
        assert_eq!(
            pool::par_map_indexed(jobs, &items, |_, &x| x.wrapping_mul(0x9E37) ^ 7),
            expected,
            "jobs {jobs}"
        );
    }
}
