//! The differential fuzz driver.
//!
//! Ties the generator, the pipeline, the golden model, and the
//! conformance checker together: for each seeded case, generate a random
//! program, run it through the cycle-level pipeline on every requested
//! [`ArchConfig`], and run every conformance axiom. On the first failing
//! case the command list is shrunk (rose-tree greedy descent via
//! [`ede_util::check::minimize`]) to a minimal program that still fails.
//!
//! Reproducing a failure is two numbers: the base `seed` and the failing
//! `case` index identify the program exactly (the per-case seed is drawn
//! from a `SplitMix64` stream over the base seed).

use crate::campaign::{self, Campaign, Plan};
use crate::conform::check_run;
use crate::gen::{cmds_strategy, concretize, Cmd};
use crate::golden::{self, GoldenConfig, GoldenRun};
use crate::inject::inject_sim;
use crate::resume::{CampaignDriver, HarnessPanic, ResumeError, RuntimeOptions};
use ede_cpu::FaultInjection;
use ede_isa::{ArchConfig, Program};
use ede_sim::{raw_output, run_program, run_program_traced, SimConfig};
use ede_util::check::{minimize, Strategy};
use ede_util::obs::Registry;
use ede_util::pool::Pool;
use ede_util::progress;
use ede_util::rng::{mix64, SmallRng, SplitMix64};
use std::sync::atomic::{AtomicU32, Ordering};

/// Fuzzing parameters.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Base seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub cases: u32,
    /// Maximum commands per generated program.
    pub max_cmds: usize,
    /// Architecture configurations to differentiate against.
    pub archs: Vec<ArchConfig>,
    /// Deliberate pipeline bug to inject (checker self-test).
    pub fault: Option<FaultInjection>,
    /// Shrink budget: maximum candidate re-simulations.
    pub max_shrink_iters: u32,
    /// Worker threads scanning the case range: 0 = auto (`EDE_JOBS` or
    /// the host parallelism), 1 = sequential. The report is bit-identical
    /// for every value — each case's seed is the master stream
    /// `SplitMix64::jump`ed to the case index, and the *earliest* failing
    /// case always wins.
    pub jobs: usize,
    /// Emit a per-worker progress line on stderr every this many cases
    /// (0 = silent). stdout is untouched, so parallel and sequential
    /// sessions stay byte-comparable.
    pub progress_every: u32,
    /// Quiescence-aware fast-forwarding in each simulated run (see
    /// [`ede_cpu::CpuConfig::fast_forward`]). Every report and metrics
    /// document is byte-identical either way; `false` selects the
    /// reference per-cycle path (`--no-fast-forward` in the CLI).
    pub fast_forward: bool,
    /// Checkpoint/resume, deadline, and quarantine-budget settings
    /// (see [`RuntimeOptions`]). None of them change a byte of the
    /// final report, so they are excluded from the options
    /// fingerprint.
    pub runtime: RuntimeOptions,
    /// Self-test hook: deliberately panic the harness on this case
    /// index, proving the quarantine path is load-bearing
    /// (`--self-test-panic` in the CLI).
    pub self_test_panic: Option<u32>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            cases: 100,
            max_cmds: 40,
            // The crash-safe trio the acceptance criteria name. SU and U
            // are *architecturally* conformant too (their unsafety is a
            // missing ordering in the program, not the pipeline), so they
            // may be added, but the default mirrors the CI contract.
            archs: vec![
                ArchConfig::Baseline,
                ArchConfig::IssueQueue,
                ArchConfig::WriteBuffer,
            ],
            fault: None,
            max_shrink_iters: 4096,
            jobs: 0,
            progress_every: 0,
            fast_forward: true,
            runtime: RuntimeOptions::default(),
            self_test_panic: None,
        }
    }
}

/// The canonical options fingerprint recorded in checkpoints: every
/// option that can change the report, and nothing that cannot
/// (`jobs`, `progress_every`, and `runtime` are excluded).
pub fn fingerprint(opts: &FuzzOptions) -> String {
    format!(
        "fuzz seed={:#x} cases={} max_cmds={} archs=[{}] fault={:?} \
         max_shrink_iters={} fast_forward={} self_test_panic={:?}",
        opts.seed,
        opts.cases,
        opts.max_cmds,
        opts.archs
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join(","),
        opts.fault,
        opts.max_shrink_iters,
        opts.fast_forward,
        opts.self_test_panic,
    )
}

/// A conformance failure, shrunk to a minimal reproducer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzFailure {
    /// Which case (0-based) failed.
    pub case: u32,
    /// The derived per-case seed (for direct replay).
    pub case_seed: u64,
    /// The architecture the minimal program fails on.
    pub arch: ArchConfig,
    /// The minimal failing command list.
    pub cmds: Vec<Cmd>,
    /// The minimal failing program (concretized `cmds`).
    pub program: Program,
    /// The conformance diffs the minimal program produces.
    pub diffs: Vec<String>,
    /// Successful shrink steps taken from the original failing program.
    pub shrink_steps: u32,
}

/// Outcome of a fuzzing session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzReport {
    /// Cases executed (equals the budget unless a failure or the
    /// deadline stopped it).
    pub cases_run: u32,
    /// The first failure found, if any, already shrunk.
    pub failure: Option<FuzzFailure>,
    /// Whether the deadline tripped before the budget was exhausted;
    /// a checkpoint (when configured) holds the progress so far.
    pub interrupted: bool,
    /// Harness panics caught and quarantined instead of aborting the
    /// scan ([`HarnessPanic`] records, in case order).
    pub quarantined: Vec<HarnessPanic>,
}

/// Checks one command list on one architecture; returns conformance
/// diffs (empty = conformant). Runs with fast-forwarding on (the
/// default); [`diff_case_ff`] selects the path explicitly.
pub fn diff_case(cmds: &[Cmd], arch: ArchConfig, fault: Option<FaultInjection>) -> Vec<String> {
    diff_case_ff(cmds, arch, fault, true)
}

/// [`diff_case`] with an explicit fast-forward selection, for the
/// differential fast-vs-reference suite.
pub fn diff_case_ff(
    cmds: &[Cmd],
    arch: ArchConfig,
    fault: Option<FaultInjection>,
    fast_forward: bool,
) -> Vec<String> {
    let program = concretize(cmds);
    match golden::run(&program, &GoldenConfig::default()) {
        Ok(golden) => diff_program(program, &golden, arch, &inject_sim(fault, fast_forward)),
        // A generator bug, not a pipeline bug — still a failure.
        Err(e) => vec![format!("golden model rejected the program: {e}")],
    }
}

/// Runs `program` on `arch` and checks the run against `golden`, the
/// program's golden-model run; returns the conformance diffs.
fn diff_program(
    program: Program,
    golden: &GoldenRun,
    arch: ArchConfig,
    sim: &SimConfig,
) -> Vec<String> {
    match run_program_traced("fuzz", raw_output(program), arch, sim) {
        Ok((result, tracer)) => check_run(&result, &tracer, golden),
        Err(e) => vec![format!("pipeline did not complete: {e:?}")],
    }
}

/// Formats one per-worker progress report. Kept as a plain function so
/// the CLI tests can pin the exact shape the fuzzer emits on stderr.
fn progress_line(worker: usize, done: u32, total: u32, violations: u32) -> String {
    format!("fuzz: worker {worker}: {done}/{total} cases, {violations} violations")
}

/// Builds a deterministic campaign-metrics registry for a fuzz session.
///
/// Re-generates the first `min(cases_run, sample)` cases from the same
/// seed stream the scan used and runs each *sequentially* on every
/// requested architecture, merging each run's per-layer registry under
/// an `<arch>.` prefix (plus `fuzz.cases_sampled` / `fuzz.runs` roll-up
/// counters). Because this is a fresh sequential replay — never a
/// by-product of the parallel scan — the result is byte-identical for
/// every `--jobs` value, which is exactly what the CI metrics diff
/// pins.
pub fn campaign_metrics(opts: &FuzzOptions, cases_run: u32, sample: u32) -> Registry {
    let mut reg = Registry::new();
    let n = cases_run.min(sample);
    let mut seeds = SplitMix64::new(mix64(opts.seed));
    let strat = cmds_strategy(opts.max_cmds);
    let sim = inject_sim(opts.fault, opts.fast_forward);
    let mut runs = 0u64;
    for _case in 0..n {
        let case_seed = seeds.next_u64();
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let sh = strat.generate(&mut rng);
        let program = concretize(&sh.value);
        for &arch in &opts.archs {
            if let Ok(r) = run_program("fuzz", raw_output(program.clone()), arch, &sim) {
                reg.merge_prefixed(&r.metrics, arch.label());
                runs += 1;
            }
        }
    }
    reg.inc("fuzz.cases_sampled", u64::from(n));
    reg.inc("fuzz.runs", runs);
    reg
}

/// Regenerates a known-failing case from its index and shrinks it —
/// always on the caller's thread, so the shrink path (and therefore the
/// reported reproducer) is identical however the failure was found.
fn case_failure(opts: &FuzzOptions, case: u32) -> FuzzFailure {
    let mut seeds = SplitMix64::new(mix64(opts.seed));
    seeds.jump(u64::from(case));
    let case_seed = seeds.next_u64();
    let strat = cmds_strategy(opts.max_cmds);
    let mut rng = SmallRng::seed_from_u64(case_seed);
    let sh = strat.generate(&mut rng);
    let ff = opts.fast_forward;
    let arch = opts
        .archs
        .iter()
        .copied()
        .find(|&arch| !diff_case_ff(&sh.value, arch, opts.fault, ff).is_empty())
        .expect("the recorded case must still fail on regeneration");
    let fault = opts.fault;
    let (cmds, shrink_steps) = minimize(sh, opts.max_shrink_iters, |cmds| {
        !diff_case_ff(cmds, arch, fault, ff).is_empty()
    });
    let diffs = diff_case_ff(&cmds, arch, fault, ff);
    let program = concretize(&cmds);
    FuzzFailure {
        case,
        case_seed,
        arch,
        cmds,
        program,
        diffs,
        shrink_steps,
    }
}

/// Runs the differential fuzzer. Deterministic in `opts` — including
/// `jobs`: the scan fans the case range out across workers, but the
/// earliest failing case index decides the verdict, and its reproducer
/// is regenerated and shrunk sequentially, so every job count yields the
/// same [`FuzzReport`] bit for bit.
///
/// # Panics
///
/// When [`FuzzOptions::runtime`] persistence hits an I/O error — use
/// [`fuzz_campaign`] to handle checkpoint failures as values.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    fuzz_campaign(opts).expect("campaign runtime error")
}

/// [`fuzz`] with the resilient campaign runtime surfaced: checkpoint
/// and resume errors come back as typed [`ResumeError`]s. The contract
/// on resume: the final report (and everything derived from it) is
/// byte-identical to the same campaign run uninterrupted.
///
/// # Errors
///
/// A [`ResumeError`] when the resume checkpoint is missing, malformed,
/// or fingerprint-mismatched, or when a checkpoint flush failed.
pub fn fuzz_campaign(opts: &FuzzOptions) -> Result<FuzzReport, ResumeError> {
    let jobs = Pool::new(opts.jobs).jobs();
    // "Virtual workers" partition the case range for progress
    // accounting exactly like the chunked scan used to, keeping the
    // pinned per-worker line format independent of pool scheduling.
    let workers = jobs.min(opts.cases.max(1) as usize).max(1) as u32;
    let scan = FuzzScan {
        opts,
        jobs,
        chunk: opts.cases.div_ceil(workers).max(1),
        counters: (0..workers)
            .map(|_| (AtomicU32::new(0), AtomicU32::new(0)))
            .collect(),
    };
    let sweep = campaign::run(&scan, |_, ()| {})?;
    if opts.progress_every > 0 {
        for w in 0..workers {
            scan.progress(w, scan.counters[w as usize].0.load(Ordering::Relaxed));
        }
    }
    let failure = sweep
        .earliest_failure
        .map(|case| case_failure(opts, u32::try_from(case).expect("case indices are u32")));
    let cases_run = match &failure {
        Some(f) => f.case + 1,
        None if sweep.interrupted => u32::try_from(sweep.covered).expect("case indices are u32"),
        None => opts.cases,
    };
    Ok(FuzzReport {
        cases_run,
        failure,
        interrupted: sweep.interrupted,
        quarantined: sweep.quarantined,
    })
}

/// The fuzz scan as a [`Campaign`]: one unit per case, no payloads —
/// the verdict is the earliest failing case, which the driver records.
struct FuzzScan<'a> {
    opts: &'a FuzzOptions,
    jobs: usize,
    /// Cases per virtual worker.
    chunk: u32,
    /// Per virtual worker: (cases done, violations).
    counters: Vec<(AtomicU32, AtomicU32)>,
}

impl FuzzScan<'_> {
    /// Prints virtual worker `w`'s progress line at `done` cases.
    fn progress(&self, w: u32, done: u32) {
        progress::stderr().line(&progress_line(
            w as usize,
            done,
            self.chunk
                .min(self.opts.cases.saturating_sub(w * self.chunk)),
            self.counters[w as usize].1.load(Ordering::Relaxed),
        ));
    }
}

impl Campaign for FuzzScan<'_> {
    type Unit = ();

    fn plan(&self) -> Plan<'_> {
        Plan {
            kind: "fuzz",
            noun: "case",
            fingerprint: fingerprint(self.opts),
            seed: self.opts.seed,
            units: self.opts.cases as usize,
            jobs: self.jobs,
            runtime: &self.opts.runtime,
            self_test_panic: self.opts.self_test_panic,
        }
    }

    fn run_unit(&self, unit: usize, driver: &CampaignDriver) -> Option<()> {
        let case = unit as u32;
        // Cases past the earliest failure (a resumed one included)
        // could not change the verdict: leave them unscanned.
        if driver
            .earliest_failure()
            .is_some_and(|e| e < u64::from(case))
        {
            return None;
        }
        let opts = self.opts;
        // The per-case seed is the master stream fast-forwarded to the
        // case — the same seed a sequential scan would draw.
        let mut seeds = SplitMix64::new(mix64(opts.seed));
        seeds.jump(u64::from(case));
        let mut rng = SmallRng::seed_from_u64(seeds.next_u64());
        let sh = cmds_strategy(opts.max_cmds).generate(&mut rng);
        // `diff_case_ff` on every arch, with the program concretized and
        // its golden run computed once for the case.
        let program = concretize(&sh.value);
        let failed = match golden::run(&program, &GoldenConfig::default()) {
            Ok(golden) => {
                let sim = inject_sim(opts.fault, opts.fast_forward);
                opts.archs
                    .iter()
                    .any(|&arch| !diff_program(program.clone(), &golden, arch, &sim).is_empty())
            }
            // A rejected program fails on the first arch checked.
            Err(_) => !opts.archs.is_empty(),
        };
        let w = case / self.chunk;
        let (done, violations) = &self.counters[w as usize];
        let done = done.fetch_add(1, Ordering::Relaxed) + 1;
        if failed {
            violations.fetch_add(1, Ordering::Relaxed);
            driver.record_failure(u64::from(case));
        } else if opts.progress_every > 0 && done.is_multiple_of(opts.progress_every) {
            self.progress(w, done);
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_budget_conforms() {
        let report = fuzz(&FuzzOptions {
            cases: 5,
            max_cmds: 15,
            ..FuzzOptions::default()
        });
        assert_eq!(report.cases_run, 5);
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    fn progress_line_shape() {
        assert_eq!(
            progress_line(3, 250, 1000, 0),
            "fuzz: worker 3: 250/1000 cases, 0 violations"
        );
        assert_eq!(
            progress_line(0, 7, 7, 1),
            "fuzz: worker 0: 7/7 cases, 1 violations"
        );
    }

    #[test]
    fn clean_report_is_identical_for_every_job_count() {
        let base = fuzz(&FuzzOptions {
            cases: 8,
            max_cmds: 12,
            jobs: 1,
            ..FuzzOptions::default()
        });
        assert!(base.failure.is_none());
        for jobs in [3, 8] {
            let report = fuzz(&FuzzOptions {
                cases: 8,
                max_cmds: 12,
                jobs,
                ..FuzzOptions::default()
            });
            assert_eq!(report, base, "jobs {jobs}");
        }
    }

    #[test]
    fn campaign_metrics_are_deterministic_and_prefixed() {
        let opts = FuzzOptions {
            cases: 3,
            max_cmds: 10,
            ..FuzzOptions::default()
        };
        let a = campaign_metrics(&opts, 3, 2);
        let b = campaign_metrics(&opts, 3, 2);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.counter("fuzz.cases_sampled"), 2);
        // Every default arch contributed cycles under its own prefix.
        for arch in ["B", "IQ", "WB"] {
            assert!(
                a.counter(&format!("{arch}.cpu.cycles")) > 0,
                "missing {arch} metrics:\n{}",
                a.to_json()
            );
        }
    }

    #[test]
    fn self_test_panic_is_quarantined_not_fatal() {
        let report = fuzz(&FuzzOptions {
            cases: 6,
            max_cmds: 10,
            self_test_panic: Some(2),
            ..FuzzOptions::default()
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(!report.interrupted);
        assert_eq!(report.cases_run, 6);
        assert_eq!(
            report.quarantined,
            vec![HarnessPanic {
                unit: 2,
                payload: "deliberate harness panic at case 2".to_string(),
            }]
        );
    }

    #[test]
    fn changed_options_reject_the_checkpoint_with_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("ede-fuzz-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cp.json");
        let base = FuzzOptions {
            cases: 4,
            max_cmds: 10,
            runtime: RuntimeOptions {
                checkpoint_path: Some(path.clone()),
                ..RuntimeOptions::default()
            },
            ..FuzzOptions::default()
        };
        fuzz(&base);
        let resume = RuntimeOptions {
            resume_from: Some(path.clone()),
            ..RuntimeOptions::default()
        };
        for changed in [
            FuzzOptions {
                seed: 1,
                ..base.clone()
            },
            FuzzOptions {
                archs: vec![ArchConfig::Baseline],
                ..base.clone()
            },
            FuzzOptions {
                fault: Some(FaultInjection::DropEdeps),
                ..base.clone()
            },
        ] {
            let err = fuzz_campaign(&FuzzOptions {
                runtime: resume.clone(),
                ..changed
            })
            .expect_err("changed options must be rejected");
            assert!(
                matches!(err, ResumeError::Fingerprint { .. }),
                "unexpected error: {err}"
            );
        }
        // Unchanged semantic options resume fine, under any job count.
        let ok = fuzz_campaign(&FuzzOptions {
            jobs: 3,
            runtime: resume,
            ..base.clone()
        })
        .expect("identical options resume");
        assert_eq!(
            ok,
            fuzz(&FuzzOptions {
                runtime: RuntimeOptions::default(),
                ..base
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_drop_edeps_is_caught_and_shrunk() {
        let report = fuzz(&FuzzOptions {
            cases: 40,
            max_cmds: 40,
            fault: Some(FaultInjection::DropEdeps),
            ..FuzzOptions::default()
        });
        let failure = report
            .failure
            .expect("a dropped-dependence pipeline must fail");
        assert!(!failure.diffs.is_empty());
        // The shrunk reproducer is tiny: a producer and a consumer.
        assert!(
            failure.program.len() <= 10,
            "minimal program has {} instructions:\n{:?}",
            failure.program.len(),
            failure.cmds
        );
    }
}
