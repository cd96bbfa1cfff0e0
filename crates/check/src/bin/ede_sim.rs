//! `ede-sim` — the conformance-checking and fault-injection CLI.
//!
//! ```text
//! ede-sim fuzz   [--seed N] [--cases N] [--max-cmds N] [--arch B,IQ,WB]
//!                [--fault NAME[:N]] [--shrink-iters N] [--jobs N]
//!                [--progress N] [--metrics PATH] [--no-fast-forward]
//! ede-sim inject [--seed N] [--cases N] [--max-cmds N] [--arch B,IQ,WB]
//!                [--fault NAME[:N],NAME,...] [--shrink-iters N]
//!                [--jobs N] [--progress N] [--disable-detectors]
//!                [--metrics PATH] [--no-fast-forward]
//! ede-sim explore [--litmus NAME,... | --cases N | --tx N] [--seed N]
//!                [--max-cmds N] [--arch B,IQ,WB] [--fault NAME]
//!                [--max-states N] [--max-events N] [--shrink-iters N]
//!                [--jobs N] [--progress] [--metrics PATH]
//!                [--no-fast-forward]
//! ede-sim corrupt [--seed N] [--cases N] [--arch B,IQ,WB]
//!                [--kind NAME[:N],NAME,...] [--shrink-iters N]
//!                [--jobs N] [--progress N] [--metrics PATH]
//!                [--no-fast-forward]
//! ede-sim trace  [--litmus NAME] [--arch B] [--metrics PATH]
//!                [--chrome PATH] [--quiet] [--no-fast-forward]
//! ede-sim validate-metrics PATH
//!
//! fuzz/inject/explore/corrupt also accept the resilient-runtime flags:
//!                [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
//!                [--max-wall-secs N] [--max-quarantined N] [--stop-after N]
//!                [--self-test-panic N]
//! ```
//!
//! `fuzz` runs the differential fuzzer: seeded random programs through
//! the cycle-level pipeline on each architecture, conformance-checked
//! against the golden in-order model.
//!
//! `inject` runs the fault-injection campaign: every fault in the
//! taxonomy (or the `--fault` subset) against every architecture,
//! asserting each is detected — by the conformance axioms, the crash
//! checker, or the pipeline watchdog — or provably tolerated. The
//! detection-coverage matrix is printed to stdout as JSON.
//! `--disable-detectors` is the campaign's self-test: with every
//! detector off, a corrupting fault must fail the campaign with a
//! shrunk reproducer.
//!
//! `explore` runs the bounded-exhaustive model checker: every admissible
//! persist-order crash state of each program (sleep-set pruned, under an
//! explicit state/event budget) is enumerated and oracle-checked, and
//! the `ede.explore.v1` coverage ledger is printed to stdout. The
//! default source is the full litmus catalog; `--cases N` explores
//! seeded random programs, `--tx N` seeded transactional programs
//! through undo recovery. `--fault` restricts to statically modelable
//! ordering faults (`drop-edeps`, `weak-dsb`) and flips the expected
//! outcome from proof to counterexample.
//!
//! `corrupt` runs the at-rest corruption campaign: seeded byte-level
//! damage (the `--kind` subset of the taxonomy, or all of it) applied
//! to crash images drawn from simulated undo- and redo-protocol
//! transaction programs, swept through recovery triage. The campaign
//! asserts the triage contract on every case — no panic, no silent
//! wrong image (strong triage claims are checked differentially against
//! recovery of the undamaged image), every damaged region accounted for
//! — and prints a per-(kind, arch) triage matrix to stdout as JSON. A
//! violation is shrunk to a minimal corruption op list and exits 2.
//!
//! `trace` runs one named litmus program (default `two_update`; see
//! `ede_check::litmus`) with the event tracer attached and prints the
//! rendered stage/stall stream. `--metrics` writes the `ede.metrics.v1`
//! document, `--chrome` a `chrome://tracing` timeline. `validate-metrics`
//! re-checks a written document's shape and conservation invariant.
//!
//! `--metrics PATH` on a campaign writes its metrics document: the
//! deterministic sequential-replay registry for fuzz, the matrix or
//! ledger registry for the others. All are byte-identical across
//! `--jobs` values.
//!
//! The four campaign subcommands share one flag parser, one resilient
//! runtime, and one exit ladder. `--checkpoint PATH` with `--checkpoint-every N` flushes a versioned
//! `ede.checkpoint.v1` document atomically (write-temp + rename) every
//! N completed units and on shutdown; `--resume PATH` validates the
//! checkpoint's options fingerprint (mismatch is a typed error, exit 2)
//! and fast-forwards past completed units, so the resumed run's final
//! stdout, report, and metrics are byte-identical to an uninterrupted
//! one. `--max-wall-secs N` (or the `EDE_DEADLINE_SECS` environment
//! variable) stops the campaign gracefully — valid checkpoint, truncated
//! but well-formed report, exit code 3. A worker panic is quarantined
//! per unit instead of aborting the sweep: the payload is recorded in
//! the report's `quarantined` section and the total is counted against
//! `--max-quarantined` (default 0). `--stop-after N` (interrupt after N
//! fresh units) and `--self-test-panic N` (panic deliberately on unit N)
//! are deterministic test hooks for exactly that machinery.
//!
//! Exit status: 0 when the run passes, 2 when a (shrunk) counterexample,
//! silent corruption, invalid metrics document, checkpoint fingerprint
//! mismatch, or over-budget quarantine count was found, 3 when a
//! wall-clock deadline interrupted the campaign, 1 on usage errors.
//!
//! `--jobs` selects worker threads (0 = auto via `EDE_JOBS` or the host
//! parallelism). stdout is byte-identical for every job count; worker
//! progress (`--progress N`, 0 = silent) goes to stderr only.
//!
//! `--no-fast-forward` disables the core's quiescence-aware fast-forward
//! kernel, running the reference per-cycle simulation path instead.
//! Every output — reports, metrics documents, rendered traces — is
//! byte-identical with and without it (the differential test suite pins
//! this); the flag exists to run the reference path directly.

use ede_check::corrupt::{corrupt_campaign, CorruptOptions, CorruptionKind};
use ede_check::fuzz::{campaign_metrics, fuzz_campaign, FuzzOptions};
use ede_check::inject::{inject_campaign, InjectOptions};
use ede_check::litmus;
use ede_check::{
    explore_campaign, CaseOutcome, ExploreError, ExploreOptions, RuntimeOptions, Source,
};
use ede_cpu::{FaultInjection, TracerConfig};
use ede_isa::ArchConfig;
use ede_sim::{
    chrome_trace_json, metrics_json, raw_output, run_program_observed, validate_metrics_json,
    SimConfig,
};
use std::process::ExitCode;
use std::str::FromStr;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ede-sim fuzz   [--seed N] [--cases N] [--max-cmds N] \
         [--arch B,IQ,WB] [--fault NAME[:N]] [--shrink-iters N] \
         [--jobs N] [--progress N] [--metrics PATH] [--no-fast-forward]\n\
         \u{20}      ede-sim inject [--seed N] [--cases N] [--max-cmds N] \
         [--arch B,IQ,WB] [--fault NAME[:N],...] [--shrink-iters N] \
         [--jobs N] [--progress N] [--disable-detectors] [--metrics PATH] \
         [--no-fast-forward]\n\
         \u{20}      ede-sim explore [--litmus NAME,... | --cases N | --tx N] \
         [--seed N] [--max-cmds N] [--arch B,IQ,WB] [--fault NAME] \
         [--max-states N] [--max-events N] [--shrink-iters N] [--jobs N] \
         [--progress] [--metrics PATH] [--no-fast-forward]\n\
         \u{20}      ede-sim corrupt [--seed N] [--cases N] \
         [--arch B,IQ,WB] [--kind NAME[:N],...] [--shrink-iters N] \
         [--jobs N] [--progress N] [--metrics PATH] [--no-fast-forward]\n\
         \u{20}      ede-sim trace  [--litmus NAME] [--arch B] \
         [--metrics PATH] [--chrome PATH] [--quiet] [--no-fast-forward]\n\
         \u{20}      ede-sim validate-metrics PATH\n\
         resilience (fuzz/inject/explore/corrupt): [--checkpoint PATH] \
         [--checkpoint-every N] [--resume PATH] [--max-wall-secs N] \
         [--max-quarantined N] [--stop-after N] [--self-test-panic N]\n\
         faults: {}\n\
         corruption kinds: {}\n\
         litmus: {}",
        FaultInjection::ALL.map(|f| f.label()).join(", "),
        CorruptionKind::ALL.map(|k| k.label()).join(", "),
        litmus::NAMES.join(", "),
    );
    ExitCode::from(1)
}

/// Writes `text` to `path`, dying with exit 1 on I/O failure — metrics
/// the caller asked for must never be silently absent.
fn write_or_die(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Parses `value` into `slot`; `false` (a usage error) when it does not
/// parse.
fn set<T: FromStr>(slot: &mut T, value: &str) -> bool {
    value.parse().map(|v| *slot = v).is_ok()
}

/// [`set`] for an optional setting.
fn set_some<T: FromStr>(slot: &mut Option<T>, value: &str) -> bool {
    value.parse().map(|v| *slot = Some(v)).is_ok()
}

/// Parses a comma-separated list with `item` into `slot`.
fn set_list<T>(slot: &mut Vec<T>, value: &str, item: impl Fn(&str) -> Option<T>) -> bool {
    value
        .split(',')
        .map(item)
        .collect::<Option<_>>()
        .map(|v| *slot = v)
        .is_some()
}

fn parse_arch(label: &str) -> Option<ArchConfig> {
    ArchConfig::ALL.into_iter().find(|a| a.label() == label)
}

/// The option fields every campaign subcommand shares, borrowed from
/// its options struct (all four name them alike).
struct Shared<'a> {
    seed: &'a mut u64,
    /// `None` for explore, whose `--cases` selects its program source.
    cases: Option<&'a mut u32>,
    archs: &'a mut Vec<ArchConfig>,
    shrink_iters: &'a mut u32,
    jobs: &'a mut usize,
    self_test_panic: &'a mut Option<u32>,
    fast_forward: &'a mut bool,
    runtime: &'a mut RuntimeOptions,
    metrics: &'a mut Option<String>,
}

macro_rules! shared {
    ($opts:ident, $metrics:ident, $cases:expr) => {
        Shared {
            seed: &mut $opts.seed,
            cases: $cases,
            archs: &mut $opts.archs,
            shrink_iters: &mut $opts.max_shrink_iters,
            jobs: &mut $opts.jobs,
            self_test_panic: &mut $opts.self_test_panic,
            fast_forward: &mut $opts.fast_forward,
            runtime: &mut $opts.runtime,
            metrics: &mut $metrics,
        }
    };
}

/// Parses a campaign subcommand's flags: the shared ones (plus the
/// resilient-runtime flags) into `shared`, the rest through
/// `extra(flag, value)`, where `value` is `None` exactly for the
/// valueless flags listed in `bare`. `None` (a usage error) on an
/// unknown flag, a missing value, or one that does not parse.
fn parse_campaign(
    args: &[String],
    mut shared: Shared,
    bare: &[&str],
    mut extra: impl FnMut(&str, Option<&str>) -> bool,
) -> Option<()> {
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let ok = if flag == "--no-fast-forward" {
            *shared.fast_forward = false;
            true
        } else if bare.contains(&flag) {
            extra(flag, None)
        } else {
            let value = it.next()?;
            let rt = &mut *shared.runtime;
            match flag {
                "--metrics" => set_some(shared.metrics, value),
                "--seed" => set(shared.seed, value),
                "--cases" if shared.cases.is_some() => {
                    shared.cases.as_deref_mut().is_some_and(|c| set(c, value))
                }
                "--arch" => set_list(shared.archs, value, parse_arch),
                "--shrink-iters" => set(shared.shrink_iters, value),
                "--jobs" => set(shared.jobs, value),
                "--self-test-panic" => set_some(shared.self_test_panic, value),
                "--checkpoint" => set_some(&mut rt.checkpoint_path, value),
                "--checkpoint-every" => set(&mut rt.checkpoint_every, value),
                "--resume" => set_some(&mut rt.resume_from, value),
                "--max-wall-secs" => set_some(&mut rt.max_wall_secs, value),
                "--max-quarantined" => set(&mut rt.max_quarantined, value),
                "--stop-after" => set_some(&mut rt.stop_after_units, value),
                other => extra(other, Some(value)),
            }
        };
        ok.then_some(())?;
    }
    Some(())
}

/// Reports the resolved worker count on stderr — stdout must stay
/// byte-identical across `--jobs` values (CI diffs it). `shape`
/// prefixes the count with the sweep's dimensions.
fn announce_workers(kind: &str, shape: &str, jobs: usize) {
    eprintln!(
        "{kind}: {shape}{} worker(s)",
        ede_util::pool::Pool::new(jobs).jobs()
    );
}

/// A campaign runtime error (checkpoint/resume) is exit 2.
fn runtime_error(kind: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{kind}: {e}");
    ExitCode::from(2)
}

/// What a finished campaign tells the exit ladder.
struct Verdict<'a> {
    kind: &'a str,
    /// A counterexample, silent corruption, or contract violation.
    failed: bool,
    interrupted: bool,
    /// Units accounted for, out of `total`, and what a unit is called.
    done: usize,
    total: usize,
    noun: &'a str,
    quarantined: &'a [CaseOutcome],
}

/// The one exit ladder. Prints the quarantined harness panics, then:
/// a failure is exit 2 (after `on_failure` prints it); an interrupt is
/// exit 3 with a resume hint on stderr; a quarantine count over the
/// `--max-quarantined` budget is exit 2; otherwise exit 0 (after
/// `on_ok` prints the summary line).
fn exit_ladder(
    v: Verdict,
    rt: &RuntimeOptions,
    on_failure: impl FnOnce(),
    on_ok: impl FnOnce(),
) -> ExitCode {
    for q in v.quarantined {
        if let CaseOutcome::HarnessPanic { payload, case } = q {
            println!("quarantined case {case}: {payload}");
        }
    }
    if !v.quarantined.is_empty() {
        println!("quarantined: {} harness panic(s)", v.quarantined.len());
    }
    if v.failed {
        on_failure();
        ExitCode::from(2)
    } else if v.interrupted {
        println!("INTERRUPTED: {} of {} {}(s) done", v.done, v.total, v.noun);
        // stderr, so stdout stays deterministic.
        if let Some(p) = rt.checkpoint_path.as_ref().or(rt.resume_from.as_ref()) {
            eprintln!("{}: resume with --resume {}", v.kind, p.display());
        }
        ExitCode::from(3)
    } else if v.quarantined.len() as u64 > rt.max_quarantined {
        println!(
            "QUARANTINE BUDGET EXCEEDED: {} harness panic(s), budget {}",
            v.quarantined.len(),
            rt.max_quarantined,
        );
        ExitCode::from(2)
    } else {
        on_ok();
        ExitCode::SUCCESS
    }
}

fn run_fuzz(args: &[String]) -> Option<ExitCode> {
    let mut opts = FuzzOptions {
        // Interactive/CI sessions get a liveness signal on long runs by
        // default; `--progress 0` silences it. Library callers default
        // to silent (`FuzzOptions::default`).
        progress_every: 5000,
        ..FuzzOptions::default()
    };
    let mut metrics = None;
    parse_campaign(
        args,
        shared!(opts, metrics, Some(&mut opts.cases)),
        &[],
        |flag, value| {
            let value = value.unwrap_or_default();
            match flag {
                "--max-cmds" => set(&mut opts.max_cmds, value),
                "--progress" => set(&mut opts.progress_every, value),
                "--fault" => FaultInjection::parse(value)
                    .map(|f| opts.fault = Some(f))
                    .is_some(),
                _ => false,
            }
        },
    )?;

    let arch_labels: Vec<&str> = opts.archs.iter().map(|a| a.label()).collect();
    println!(
        "fuzz: seed {:#x}, {} cases, ≤{} cmds, archs [{}]{}",
        opts.seed,
        opts.cases,
        opts.max_cmds,
        arch_labels.join(", "),
        match opts.fault {
            Some(f) => format!(", injected fault {f:?}"),
            None => String::new(),
        },
    );
    announce_workers("fuzz", "", opts.jobs);
    let report = match fuzz_campaign(&opts) {
        Ok(report) => report,
        Err(e) => return Some(runtime_error("fuzz", e)),
    };
    if let Some(path) = &metrics {
        // Sampled sequential replay: byte-identical for every --jobs.
        let reg = campaign_metrics(&opts, report.cases_run, 16);
        write_or_die(path, &format!("{}\n", reg.to_json()));
        eprintln!("fuzz: campaign metrics written to {path}");
    }
    let verdict = Verdict {
        kind: "fuzz",
        failed: report.failure.is_some(),
        interrupted: report.interrupted,
        done: report.cases_run as usize,
        total: opts.cases as usize,
        noun: "case",
        quarantined: &report.quarantined,
    };
    let on_failure = || {
        let Some(f) = &report.failure else { return };
        println!(
            "FAILURE at case {} (case seed {:#x}) on {}: \
             minimal program after {} shrink steps ({} instructions)",
            f.case,
            f.case_seed,
            f.arch,
            f.shrink_steps,
            f.program.len(),
        );
        println!("commands: {:?}", f.cmds);
        println!("{}", ede_isa::asm::listing_annotated(&f.program));
        for d in &f.diffs {
            println!("diff: {d}");
        }
        println!(
            "replay: ede-sim fuzz --seed {:#x} --cases {} --arch {}",
            opts.seed,
            f.case + 1,
            f.arch.label(),
        );
    };
    let on_ok = || println!("ok: {} cases, zero conformance diffs", report.cases_run);
    Some(exit_ladder(verdict, &opts.runtime, on_failure, on_ok))
}

fn run_inject(args: &[String]) -> Option<ExitCode> {
    let mut opts = InjectOptions::default();
    let mut metrics = None;
    parse_campaign(
        args,
        shared!(opts, metrics, Some(&mut opts.cases)),
        &["--disable-detectors"],
        |flag, value| match (flag, value) {
            ("--disable-detectors", None) => {
                opts.detectors_enabled = false;
                true
            }
            ("--max-cmds", Some(v)) => set(&mut opts.max_cmds, v),
            ("--progress", Some(v)) => set(&mut opts.progress_every, v),
            ("--fault", Some(v)) => set_list(&mut opts.faults, v, FaultInjection::parse),
            _ => false,
        },
    )?;

    let shape = format!(
        "{} fault(s) × {} arch(es) × {} case(s), ",
        opts.faults.len(),
        opts.archs.len(),
        opts.cases
    );
    announce_workers("inject", &shape, opts.jobs);
    let report = match inject_campaign(&opts) {
        Ok(report) => report,
        Err(e) => return Some(runtime_error("inject", e)),
    };
    if let Some(path) = &metrics {
        write_or_die(path, &format!("{}\n", report.metrics().to_json()));
        eprintln!("inject: campaign metrics written to {path}");
    }
    println!("{}", report.to_json());
    let verdict = Verdict {
        kind: "inject",
        failed: !report.all_covered(),
        interrupted: report.interrupted,
        done: report.cells.len() + report.quarantined.len(),
        total: opts.faults.len() * opts.archs.len(),
        noun: "cell",
        quarantined: &report.quarantined,
    };
    let on_failure = || {
        let Some(f) = &report.failure else { return };
        println!(
            "SILENT CORRUPTION: {} on {} at case {} (case seed {:#x}): \
             minimal program after {} shrink steps ({} instructions)",
            f.fault.label(),
            f.arch,
            f.case,
            f.case_seed,
            f.shrink_steps,
            f.program.len(),
        );
        println!("commands: {:?}", f.cmds);
        println!("{}", ede_isa::asm::listing_annotated(&f.program));
        println!(
            "replay: ede-sim inject --seed {:#x} --fault {} --arch {}{}",
            report.seed,
            f.fault.label(),
            f.arch.label(),
            if report.detectors_enabled {
                ""
            } else {
                " --disable-detectors"
            },
        );
    };
    Some(exit_ladder(verdict, &opts.runtime, on_failure, || {}))
}

fn run_corrupt(args: &[String]) -> Option<ExitCode> {
    let mut opts = CorruptOptions::default();
    let mut metrics = None;
    parse_campaign(
        args,
        shared!(opts, metrics, Some(&mut opts.cases)),
        &[],
        |flag, value| {
            let value = value.unwrap_or_default();
            match flag {
                "--progress" => set(&mut opts.progress_every, value),
                "--kind" => set_list(&mut opts.kinds, value, CorruptionKind::parse),
                _ => false,
            }
        },
    )?;

    let shape = format!(
        "{} kind(s) × {} arch(es) × {} case(s), ",
        opts.kinds.len(),
        opts.archs.len(),
        opts.cases
    );
    announce_workers("corrupt", &shape, opts.jobs);
    let report = match corrupt_campaign(&opts) {
        Ok(report) => report,
        Err(e) => return Some(runtime_error("corrupt", e)),
    };
    if let Some(path) = &metrics {
        write_or_die(path, &format!("{}\n", report.metrics().to_json()));
        eprintln!("corrupt: campaign metrics written to {path}");
    }
    println!("{}", report.to_json());
    let verdict = Verdict {
        kind: "corrupt",
        failed: !report.contract_holds(),
        interrupted: report.interrupted,
        done: report.cells.len() + report.quarantined.len(),
        total: opts.kinds.len() * opts.archs.len(),
        noun: "cell",
        quarantined: &report.quarantined,
    };
    let on_failure = || {
        let Some(f) = &report.failure else { return };
        println!(
            "TRIAGE CONTRACT VIOLATION: {} on {} at case {} \
             (case seed {:#x}): {} (minimal after {} shrink steps)",
            f.kind.spec(),
            f.arch,
            f.case,
            f.case_seed,
            f.detail,
            f.shrink_steps,
        );
        println!("corruption ops: {:?}", f.ops);
        println!(
            "replay: ede-sim corrupt --seed {:#x} --kind {} --arch {} --cases {}",
            report.seed,
            f.kind.spec(),
            f.arch.label(),
            f.case + 1,
        );
    };
    Some(exit_ladder(verdict, &opts.runtime, on_failure, || {}))
}

fn run_explore(args: &[String]) -> Option<ExitCode> {
    let mut opts = ExploreOptions::default();
    let mut metrics = None;
    parse_campaign(
        args,
        shared!(opts, metrics, None),
        &["--progress"],
        |flag, value| {
            let Some(value) = value else {
                // The one bare extra flag.
                opts.progress = true;
                return true;
            };
            match flag {
                "--litmus" => {
                    opts.source = Source::Litmus(value.split(',').map(str::to_string).collect());
                    true
                }
                "--cases" => value
                    .parse()
                    .map(|cases| opts.source = Source::Generated { cases })
                    .is_ok(),
                "--tx" => value
                    .parse()
                    .map(|cases| opts.source = Source::Tx { cases })
                    .is_ok(),
                "--max-cmds" => set(&mut opts.max_cmds, value),
                "--max-states" => set(&mut opts.max_states, value),
                "--max-events" => set(&mut opts.max_events, value),
                "--fault" => FaultInjection::parse(value)
                    .map(|f| opts.fault = Some(f))
                    .is_some(),
                _ => false,
            }
        },
    )?;

    announce_workers("explore", "", opts.jobs);
    let report = match explore_campaign(&opts) {
        Ok(report) => report,
        Err(ExploreError::Usage(e)) => {
            eprintln!("explore: {e}");
            return Some(ExitCode::from(1));
        }
        Err(ExploreError::Resume(e)) => return Some(runtime_error("explore", e)),
    };
    if let Some(path) = &metrics {
        write_or_die(path, &format!("{}\n", report.metrics().to_json()));
        eprintln!("explore: metrics written to {path}");
    }
    println!("{}", report.to_json());
    let verdict = Verdict {
        kind: "explore",
        failed: !report.all_proved(),
        interrupted: report.interrupted,
        done: report.cells.len() + report.quarantined.len(),
        total: report.planned_cells,
        noun: "cell",
        quarantined: &report.quarantined,
    };
    let on_failure = || {
        for c in &report.cells {
            if let Some(cx) = &c.counterexample {
                println!(
                    "COUNTEREXAMPLE: {}/{}: {} (after {} shrink steps)",
                    c.name,
                    c.arch.label(),
                    cx.detail,
                    cx.shrink_steps,
                );
                if !cx.cmds.is_empty() {
                    println!("commands: {:?}", cx.cmds);
                }
            }
            for d in &c.impl_diffs {
                println!("IMPL DIFF: {}/{}: {d}", c.name, c.arch.label());
            }
            if c.truncated {
                println!(
                    "BUDGET EXHAUSTED: {}/{}: {} state(s) visited, {} event(s)",
                    c.name,
                    c.arch.label(),
                    c.states,
                    c.events,
                );
            }
        }
    };
    let on_ok = || {
        println!(
            "ok: {} cell(s) proved over every admissible crash state",
            report.cells.len()
        );
    };
    Some(exit_ladder(verdict, &opts.runtime, on_failure, on_ok))
}

fn run_trace(args: &[String]) -> Option<ExitCode> {
    let mut name = "two_update".to_string();
    let mut arch = ArchConfig::WriteBuffer;
    let mut metrics_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut quiet = false;
    let mut fast_forward = true;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quiet" {
            quiet = true;
            continue;
        }
        if flag == "--no-fast-forward" {
            fast_forward = false;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--litmus" => name = value.clone(),
            "--arch" => arch = ArchConfig::ALL.into_iter().find(|a| a.label() == value)?,
            "--metrics" => metrics_path = Some(value.clone()),
            "--chrome" => chrome_path = Some(value.clone()),
            _ => return None,
        }
    }
    let program = litmus::program(&name).or_else(|| {
        eprintln!(
            "unknown litmus program {name:?} (have: {})",
            litmus::NAMES.join(", ")
        );
        None
    })?;
    let mut sim = SimConfig::a72();
    sim.cpu.fast_forward = fast_forward;
    let (result, tracer) = run_program_observed(
        &name,
        raw_output(program.clone()),
        arch,
        &sim,
        TracerConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    if !quiet {
        println!(
            "== {name} on {arch}: {} cycles, {} retired ==",
            result.cycles, result.retired
        );
        print!("{}", litmus::render_events(&program, tracer.events()));
    }
    if let Some(path) = &metrics_path {
        write_or_die(path, &metrics_json(&result));
        eprintln!("trace: metrics written to {path}");
    }
    if let Some(path) = &chrome_path {
        write_or_die(path, &chrome_trace_json(&result, &tracer));
        eprintln!("trace: chrome timeline written to {path}");
    }
    Some(ExitCode::SUCCESS)
}

fn run_validate(args: &[String]) -> Option<ExitCode> {
    let [path] = args else { return None };
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("cannot read {path}: {e}"))
        .ok()?;
    Some(match validate_metrics_json(&text) {
        Ok(()) => {
            println!("ok: {path} is a valid {} document", ede_sim::METRICS_SCHEMA);
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("INVALID: {path}: {e}");
            ExitCode::from(2)
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("inject") => run_inject(&args[1..]),
        Some("explore") => run_explore(&args[1..]),
        Some("corrupt") => run_corrupt(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("validate-metrics") => run_validate(&args[1..]),
        _ => None,
    };
    result.unwrap_or_else(usage)
}
