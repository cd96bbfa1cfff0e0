//! End-to-end regression tests for the `ede-sim` CLI: exit codes, the
//! summary line shape, the progress-reporting format, the explore
//! ledger's stdout contract, and the contract that stdout is
//! byte-identical for every `--jobs` value.
//!
//! The `*_branches_are_pinned` tests record the full stdout and exit
//! code of every campaign subcommand on each branch of its exit ladder
//! (clean, failure, deadline, quarantine budget, resume mismatch, usage
//! error) in `tests/golden/cli/`, plus a checkpoint each campaign wrote
//! mid-run, which must still resume to the clean stdout. To regenerate
//! after an *intentional* output change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test cli_smoke pinned
//! git diff tests/golden/cli/   # review every changed line
//! ```

use std::path::Path;
use std::process::{Command, Output};

#[path = "../../../tests/support/golden.rs"]
mod golden;

fn ede_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ede-sim"))
        .args(args)
        .output()
        .expect("spawn ede-sim")
}

#[test]
fn fuzz_smoke_run_succeeds_with_jobs() {
    let out = ede_sim(&[
        "fuzz",
        "--seed",
        "0",
        "--cases",
        "50",
        "--max-cmds",
        "20",
        "--jobs",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    assert!(
        header.starts_with("fuzz: seed 0x0, 50 cases"),
        "header: {header}"
    );
    assert_eq!(
        lines.next().expect("summary line"),
        "ok: 50 cases, zero conformance diffs"
    );
    assert_eq!(lines.next(), None, "exactly two stdout lines");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fuzz: 4 worker(s)"), "stderr: {stderr}");
}

#[test]
fn progress_lines_go_to_stderr_in_the_documented_shape() {
    let out = ede_sim(&[
        "fuzz",
        "--seed",
        "0",
        "--cases",
        "40",
        "--max-cmds",
        "15",
        "--jobs",
        "2",
        "--progress",
        "10",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    // Each worker scans 20 cases and reports at 10, 20, and completion.
    for worker in 0..2 {
        for done in [10, 20] {
            let expected = format!("fuzz: worker {worker}: {done}/20 cases, 0 violations");
            assert!(
                stderr.contains(&expected),
                "missing {expected:?} in:\n{stderr}"
            );
        }
    }
    // Progress never leaks onto stdout.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("worker"), "stdout: {stdout}");
}

#[test]
fn stdout_is_byte_identical_across_job_counts() {
    let run = |jobs: &str| {
        let out = ede_sim(&[
            "fuzz",
            "--seed",
            "7",
            "--cases",
            "30",
            "--max-cmds",
            "20",
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "jobs {jobs}");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(run("3"), sequential);
    assert_eq!(run("7"), sequential);
}

#[test]
fn injected_fault_exits_2_with_identical_stdout_across_jobs() {
    let run = |jobs: &str| {
        let out = ede_sim(&[
            "fuzz",
            "--seed",
            "0",
            "--cases",
            "40",
            "--fault",
            "drop-edeps",
            "--jobs",
            jobs,
        ]);
        assert_eq!(out.status.code(), Some(2), "jobs {jobs}");
        out.stdout
    };
    let sequential = run("1");
    let stdout = String::from_utf8(sequential.clone()).unwrap();
    assert!(stdout.contains("FAILURE at case"), "stdout: {stdout}");
    assert!(stdout.contains("replay: ede-sim fuzz"), "stdout: {stdout}");
    assert_eq!(run("4"), sequential);
}

#[test]
fn no_fast_forward_flag_leaves_fuzz_stdout_identical() {
    // The fast-forward kernel must be observably invisible: disabling
    // it changes wall-clock time, never a byte of output.
    let run = |extra: &[&str]| {
        let mut args = vec!["fuzz", "--seed", "3", "--cases", "20", "--max-cmds", "15"];
        args.extend_from_slice(extra);
        let out = ede_sim(&args);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run(&["--no-fast-forward"]), run(&[]));
}

#[test]
fn no_fast_forward_flag_leaves_inject_stdout_identical_across_jobs() {
    // Same contract for the fault-injection campaign, crossed with the
    // parallel-execution contract: every (path, jobs) combination must
    // print the identical campaign report.
    let run = |extra: &[&str]| {
        let mut args = vec![
            "inject",
            "--seed",
            "1",
            "--cases",
            "1",
            "--max-cmds",
            "12",
            "--fault",
            "drop-edeps,weak-dsb",
        ];
        args.extend_from_slice(extra);
        let out = ede_sim(&args);
        // Disabled-detector faults make the campaign exit 2 with a
        // reproducer; either way stdout must match across variants.
        assert!(
            matches!(out.status.code(), Some(0) | Some(2)),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let baseline = run(&["--jobs", "1"]);
    assert!(!baseline.is_empty(), "inject printed nothing");
    assert_eq!(run(&["--jobs", "1", "--no-fast-forward"]), baseline);
    assert_eq!(run(&["--jobs", "4"]), baseline);
    assert_eq!(run(&["--jobs", "4", "--no-fast-forward"]), baseline);
}

#[test]
fn explore_proves_the_catalog_and_prints_the_ledger() {
    let out = ede_sim(&["explore", "--litmus", "hazard", "--jobs", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("{\n  \"format\": \"ede.explore.v1\","),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"verdicts\": {\"proved\": 3, \"counterexample\": 0"));
    assert!(
        stdout.ends_with("ok: 3 cell(s) proved over every admissible crash state\n"),
        "stdout: {stdout}"
    );
    // Worker-count info is stderr-only.
    assert!(!stdout.contains("worker"), "stdout: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("explore: 1 worker(s)"), "stderr: {stderr}");
}

#[test]
fn explore_counterexample_exits_2_with_a_reproducer() {
    let out = ede_sim(&["explore", "--litmus", "hazard", "--fault", "drop-edeps"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"verdict\": \"counterexample\""),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("COUNTEREXAMPLE: hazard/"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("commands: ["), "stdout: {stdout}");
}

#[test]
fn explore_stdout_is_byte_identical_across_jobs_and_paths() {
    let run = |extra: &[&str]| {
        let mut args = vec!["explore", "--seed", "5", "--cases", "3", "--max-cmds", "8"];
        args.extend_from_slice(extra);
        let out = ede_sim(&args);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let sequential = run(&["--jobs", "1"]);
    assert_eq!(run(&["--jobs", "3"]), sequential);
    assert_eq!(run(&["--jobs", "7"]), sequential);
    assert_eq!(run(&["--jobs", "1", "--no-fast-forward"]), sequential);
}

#[test]
fn explore_budget_exhaustion_exits_2_and_reports_truncation() {
    let out = ede_sim(&[
        "explore",
        "--litmus",
        "two_update",
        "--arch",
        "B",
        "--max-states",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"verdict\": \"budget-exhausted\""),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("\"truncated\": true"), "stdout: {stdout}");
    assert!(
        stdout.contains("BUDGET EXHAUSTED: two_update/B"),
        "stdout: {stdout}"
    );
}

#[test]
fn explore_rejects_unknown_idioms_and_unmodelable_faults() {
    let out = ede_sim(&["explore", "--litmus", "nonesuch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown litmus idiom"));
    let out = ede_sim(&["explore", "--fault", "torn-stp"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no static ordering model"));
    assert_eq!(ede_sim(&["explore", "--max-states"]).status.code(), Some(1));
    assert_eq!(
        ede_sim(&["explore", "--max-states", "x"]).status.code(),
        Some(1)
    );
}

#[test]
fn trace_accepts_no_fast_forward() {
    let fast = ede_sim(&["trace", "--litmus", "hazard", "--arch", "WB"]);
    assert!(
        fast.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&fast.stderr)
    );
    let reference = ede_sim(&[
        "trace",
        "--litmus",
        "hazard",
        "--arch",
        "WB",
        "--no-fast-forward",
    ]);
    assert!(reference.status.success());
    assert_eq!(
        fast.stdout, reference.stdout,
        "trace output differs between paths"
    );
}

#[test]
fn bad_usage_exits_1() {
    assert_eq!(ede_sim(&["fuzz", "--jobs"]).status.code(), Some(1));
    assert_eq!(ede_sim(&["fuzz", "--jobs", "x"]).status.code(), Some(1));
    assert_eq!(ede_sim(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(
        ede_sim(&["fuzz", "--checkpoint-every", "x"]).status.code(),
        Some(1)
    );
    assert_eq!(
        ede_sim(&["explore", "--max-wall-secs"]).status.code(),
        Some(1)
    );
}

fn checkpoint_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ede-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.json"))
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

#[test]
fn interrupted_fuzz_resumes_to_byte_identical_stdout() {
    let cp = checkpoint_path("fuzz-resume");
    let base = ["fuzz", "--seed", "0", "--cases", "30", "--max-cmds", "15"];
    let run = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        ede_sim(&args)
    };
    let clean = run(&["--jobs", "1"]);
    assert!(clean.status.success());
    let interrupted = run(&[
        "--jobs",
        "1",
        "--checkpoint",
        &cp,
        "--checkpoint-every",
        "1",
        "--stop-after",
        "5",
    ]);
    assert_eq!(interrupted.status.code(), Some(3), "deadline exit code");
    let stdout = String::from_utf8(interrupted.stdout).unwrap();
    assert!(
        stdout.contains("INTERRUPTED: 5 of 30 case(s) done"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8(interrupted.stderr).unwrap();
    assert!(stderr.contains("resume with --resume"), "stderr: {stderr}");
    // Resuming — even on a different worker count — replays to the
    // exact stdout of the run that never stopped.
    let resumed = run(&["--jobs", "4", "--resume", &cp]);
    assert!(resumed.status.success());
    assert_eq!(
        resumed.stdout, clean.stdout,
        "resumed stdout must match clean run"
    );
}

#[test]
fn resume_with_changed_options_is_a_typed_exit_2() {
    let cp = checkpoint_path("fuzz-mismatch");
    let seeded = ede_sim(&[
        "fuzz",
        "--seed",
        "0",
        "--cases",
        "10",
        "--max-cmds",
        "12",
        "--checkpoint",
        &cp,
        "--checkpoint-every",
        "1",
        "--stop-after",
        "2",
    ]);
    assert_eq!(seeded.status.code(), Some(3));
    let mismatched = ede_sim(&[
        "fuzz",
        "--seed",
        "1",
        "--cases",
        "10",
        "--max-cmds",
        "12",
        "--resume",
        &cp,
    ]);
    assert_eq!(mismatched.status.code(), Some(2));
    let stderr = String::from_utf8(mismatched.stderr).unwrap();
    assert!(stderr.contains("fingerprint mismatch"), "stderr: {stderr}");
    assert!(
        stderr.contains("resume with the original options"),
        "stderr: {stderr}"
    );
}

#[test]
fn harness_panics_are_quarantined_and_counted_against_the_budget() {
    let base = [
        "fuzz",
        "--seed",
        "0",
        "--cases",
        "12",
        "--max-cmds",
        "12",
        "--self-test-panic",
        "5",
    ];
    let strict = ede_sim(&base);
    assert_eq!(strict.status.code(), Some(2), "default budget 0");
    let stdout = String::from_utf8(strict.stdout).unwrap();
    assert!(
        stdout.contains("quarantined case 5: deliberate harness panic at case 5"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("QUARANTINE BUDGET EXCEEDED: 1 harness panic(s), budget 0"));
    let mut lenient = base.to_vec();
    lenient.extend_from_slice(&["--max-quarantined", "1"]);
    let lenient = ede_sim(&lenient);
    assert_eq!(
        lenient.status.code(),
        Some(0),
        "budget 1 tolerates one panic"
    );
    let stdout = String::from_utf8(lenient.stdout).unwrap();
    assert!(
        stdout.contains("quarantined: 1 harness panic(s)"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.ends_with("ok: 12 cases, zero conformance diffs\n"),
        "stdout: {stdout}"
    );
}

#[test]
fn env_deadline_zero_interrupts_every_campaign_with_exit_3() {
    let shared = ["--seed", "0", "--cases", "4", "--jobs", "2"];
    for (sub, extra) in [
        ("fuzz", &["--max-cmds", "10"][..]),
        ("inject", &["--max-cmds", "10"][..]),
        ("explore", &["--max-cmds", "10"][..]),
        // corrupt takes no --max-cmds (it simulates fixed tx programs).
        ("corrupt", &[][..]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ede-sim"))
            .arg(sub)
            .args(shared)
            .args(extra)
            .env("EDE_DEADLINE_SECS", "0")
            .output()
            .expect("spawn ede-sim");
        assert_eq!(out.status.code(), Some(3), "{sub} under a zero deadline");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.contains("INTERRUPTED: 0 of "),
            "{sub} stdout: {stdout}"
        );
    }
}

/// Variant flags appended to a pinned scenario: every one must print
/// the same stdout and exit with the same code.
const JOBS_AND_PATHS: [&[&str]; 4] = [
    &["--jobs", "1"],
    &["--jobs", "4"],
    &["--jobs", "1", "--no-fast-forward"],
    &["--jobs", "4", "--no-fast-forward"],
];
/// Resuming keeps the checkpoint's fast-forward setting (it is part of
/// the options fingerprint); only the worker count may change.
const JOBS_ONLY: [&[&str]; 2] = [&["--jobs", "1"], &["--jobs", "4"]];
/// `--stop-after` interrupts deterministically only on one worker.
const SEQUENTIAL: [&[&str]; 2] = [&["--jobs", "1"], &["--jobs", "1", "--no-fast-forward"]];
/// The test target and filter that re-bless the pinned outputs.
const PINNED: &str = "cli_smoke pinned";

/// Runs `ede-sim` with `args` (`{cp}` replaced by `cp`) and renders the
/// exit code and full stdout as one pinned text.
fn pinned_run(args: &[&str], cp: &Path, deadline_zero: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ede-sim"));
    for a in args {
        if *a == "{cp}" {
            cmd.arg(cp);
        } else {
            cmd.arg(a);
        }
    }
    cmd.env_remove("EDE_DEADLINE_SECS");
    if deadline_zero {
        cmd.env("EDE_DEADLINE_SECS", "0");
    }
    let out = cmd.output().expect("spawn ede-sim");
    format!(
        "exit {}\n{}",
        out.status
            .code()
            .map_or("signal".to_string(), |c| c.to_string()),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// One pinned branch of a campaign subcommand.
struct Scenario<'a> {
    /// Golden file stem under `tests/golden/cli/` (`<sub>.<golden>.txt`).
    golden: &'a str,
    args: Vec<&'a str>,
    deadline_zero: bool,
    variants: &'a [&'a [&'a str]],
    /// Seed `{cp}` with the pinned mid-run checkpoint before each run.
    from_checkpoint: bool,
}

/// Pins every exit-ladder branch of campaign `sub`.
///
/// `base` is a small clean run; `panic_unit` a unit the self-test
/// panic hits; `changed` differs from `base` in one fingerprinted
/// option; `failure` (when the CLI can provoke one) fails the campaign.
fn pin_campaign(
    sub: &str,
    base: &[&str],
    panic_unit: &str,
    changed: &[&str],
    failure: Option<&[&str]>,
) {
    let dir = golden::path("cli");
    let fixture = dir.join(format!("{sub}.checkpoint.json"));
    let tmp = std::env::temp_dir().join(format!("ede-cli-pin-{sub}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let cp = tmp.join("cp.json");
    let with = |extra: &[&'static str]| -> Vec<&str> {
        let mut v = vec![sub];
        v.extend_from_slice(base);
        v.extend_from_slice(extra);
        v
    };
    let mut scenarios = vec![
        Scenario {
            golden: "clean",
            args: with(&[]),
            deadline_zero: false,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        },
        Scenario {
            golden: "deadline",
            args: with(&[]),
            deadline_zero: true,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        },
        Scenario {
            golden: "panic-budget-0",
            args: [with(&["--self-test-panic"]), vec![panic_unit]].concat(),
            deadline_zero: false,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        },
        Scenario {
            golden: "panic-budget-1",
            args: [
                with(&["--self-test-panic"]),
                vec![panic_unit, "--max-quarantined", "1"],
            ]
            .concat(),
            deadline_zero: false,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        },
        Scenario {
            golden: "interrupted",
            args: with(&[
                "--checkpoint",
                "{cp}",
                "--checkpoint-every",
                "1",
                "--stop-after",
                "2",
            ]),
            deadline_zero: false,
            variants: &SEQUENTIAL,
            from_checkpoint: false,
        },
        // A checkpoint written mid-run resumes to the clean stdout.
        Scenario {
            golden: "clean",
            args: with(&["--resume", "{cp}"]),
            deadline_zero: false,
            variants: &JOBS_ONLY,
            from_checkpoint: true,
        },
        Scenario {
            golden: "resume-changed",
            args: [vec![sub], changed.to_vec(), vec!["--resume", "{cp}"]].concat(),
            deadline_zero: false,
            variants: &JOBS_ONLY,
            from_checkpoint: true,
        },
        Scenario {
            golden: "unknown-flag",
            args: vec![sub, "--bogus", "1"],
            deadline_zero: false,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        },
    ];
    if let Some(failure) = failure {
        scenarios.push(Scenario {
            golden: "failure",
            args: [vec![sub], failure.to_vec()].concat(),
            deadline_zero: false,
            variants: &JOBS_AND_PATHS,
            from_checkpoint: false,
        });
    }
    for sc in &scenarios {
        let pinned = dir.join(format!("{sub}.{}.txt", sc.golden));
        for (i, variant) in sc.variants.iter().enumerate() {
            if sc.from_checkpoint {
                std::fs::copy(&fixture, &cp).expect("seed the checkpoint fixture");
            } else {
                std::fs::remove_file(&cp).ok();
            }
            let args = [sc.args.clone(), variant.to_vec()].concat();
            let live = pinned_run(&args, &cp, sc.deadline_zero);
            let what = format!("`ede-sim {}`", args.join(" "));
            // The resumed run reproduces the clean golden; never bless it.
            let reproduces_clean = sc.from_checkpoint && sc.golden == "clean";
            if i == 0 && golden::blessing() && !reproduces_clean {
                golden::bless(&pinned, &live);
                if sc.golden == "interrupted" {
                    std::fs::copy(&cp, &fixture).expect("bless checkpoint fixture");
                }
            }
            golden::assert_matches(&pinned, &live, PINNED, &what);
            if sc.golden == "interrupted" && i == 0 {
                // The document a sequential interrupt writes is pinned
                // too: kind, fingerprint and bitmap are a resume format.
                let written = std::fs::read_to_string(&cp).expect("checkpoint written");
                golden::assert_matches(
                    &fixture,
                    &written,
                    PINNED,
                    &format!("checkpoint of {what}"),
                );
            }
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn fuzz_branches_are_pinned() {
    pin_campaign(
        "fuzz",
        &["--seed", "0", "--cases", "6", "--max-cmds", "10"],
        "2",
        &["--seed", "1", "--cases", "6", "--max-cmds", "10"],
        Some(&["--seed", "0", "--cases", "4", "--fault", "drop-edeps"]),
    );
}

#[test]
fn fuzz_persist_faults_are_pinned() {
    // One failure per conformance axiom 4–6, each a golden-model verdict:
    // store coherence (torn-stp), persist counts (duplicate-persist) and
    // the final NVM image (drop-persist).
    let tmp = std::env::temp_dir();
    for fault in ["torn-stp", "duplicate-persist", "drop-persist"] {
        let args = [
            "fuzz", "--seed", "0", "--cases", "50", "--jobs", "1", "--fault", fault,
        ];
        let live = pinned_run(&args, &tmp, false);
        let pinned = golden::path(&format!("cli/fuzz.fault-{fault}.txt"));
        golden::check(
            &pinned,
            &live,
            PINNED,
            &format!("`ede-sim {}`", args.join(" ")),
        );
    }
}

#[test]
fn inject_branches_are_pinned() {
    pin_campaign(
        "inject",
        &[
            "--seed",
            "1",
            "--cases",
            "1",
            "--max-cmds",
            "12",
            "--fault",
            "drop-edeps,weak-dsb",
        ],
        "1",
        &[
            "--seed",
            "2",
            "--cases",
            "1",
            "--max-cmds",
            "12",
            "--fault",
            "drop-edeps,weak-dsb",
        ],
        Some(&[
            "--seed",
            "1",
            "--cases",
            "2",
            "--max-cmds",
            "20",
            "--fault",
            "torn-stp",
            "--arch",
            "B",
            "--disable-detectors",
        ]),
    );
}

#[test]
fn explore_branches_are_pinned() {
    pin_campaign(
        "explore",
        &["--litmus", "hazard,join"],
        "1",
        &["--litmus", "hazard,join", "--seed", "1"],
        Some(&[
            "--litmus",
            "hazard",
            "--arch",
            "WB",
            "--fault",
            "drop-edeps",
        ]),
    );
}

#[test]
fn corrupt_branches_are_pinned() {
    // No CLI option provokes a triage-contract violation in a correct
    // build, so corrupt pins every branch but the failure one.
    pin_campaign(
        "corrupt",
        &[
            "--seed",
            "2",
            "--cases",
            "1",
            "--kind",
            "torn-word,wipe-zero",
            "--arch",
            "B,WB",
        ],
        "1",
        &[
            "--seed",
            "3",
            "--cases",
            "1",
            "--kind",
            "torn-word,wipe-zero",
            "--arch",
            "B,WB",
        ],
        None,
    );
}

#[test]
fn each_subcommand_rejects_the_flags_it_does_not_take() {
    // corrupt simulates fixed transaction programs; explore's --progress
    // is a bare switch, the others' takes a count.
    for args in [
        &["corrupt", "--max-cmds", "5"][..],
        &["corrupt", "--fault", "drop-edeps"][..],
        &["corrupt", "--disable-detectors"][..],
        &["fuzz", "--disable-detectors"][..],
        &["fuzz", "--kind", "wipe-zero"][..],
        &["explore", "--kind", "wipe-zero"][..],
        &["inject", "--litmus", "hazard"][..],
        &["fuzz", "--progress"][..],
    ] {
        assert_eq!(
            ede_sim(args).status.code(),
            Some(1),
            "`ede-sim {}`",
            args.join(" ")
        );
    }
    let out = ede_sim(&[
        "explore",
        "--litmus",
        "hazard",
        "--arch",
        "B",
        "--progress",
        "--jobs",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "explore --progress is a bare flag"
    );
}
