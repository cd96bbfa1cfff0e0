//! The four workloads, each in two forms.
//!
//! The *untraced* sample calls the library entry point a user runs
//! (`experiment::fig9_with`, `CrashChecker::check_all_images`,
//! `fuzz::fuzz`, `corrupt::corrupt`), so an optimisation inside that
//! entry point shows up in the end-to-end numbers. The *traced* pass
//! repeats the same work through the public calls one layer down, with a
//! span around each, and must produce the same output digest; spans
//! inside the library are not available yet.

use crate::spans::Spans;
use ede_check::corrupt::{corrupt, CellReport, CorruptOptions, CorruptionKind};
use ede_check::fuzz::{campaign_metrics, fuzz, FuzzOptions};
use ede_check::{check_run, cmds_strategy, concretize, golden, GoldenConfig};
use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_mem::PersistTrace;
use ede_nvm::CrashChecker;
use ede_sim::experiment::{fig9_with, ExperimentConfig};
use ede_sim::{geomean, raw_output, run_program, run_program_traced, RunResult, SimConfig};
use ede_util::check::Strategy;
use ede_util::rng::{mix64, SmallRng, SplitMix64};
use ede_workloads::{standard_suite, Workload as App, WorkloadParams};

/// Input sizes of one sample of each workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub fig9_ops: usize,
    pub fig9_prepop: usize,
    pub crash_ops: usize,
    pub crash_ops_per_tx: usize,
    pub crash_prepop: usize,
    pub fuzz_cases: u32,
    pub corrupt_cases: u32,
}

/// The sizes the benchmark runs: each sample takes 0.3–0.5 s on a 2-vCPU
/// host, so a 20-second run holds 25–52 samples, each paired with a
/// probe close to it in time, for a steady median.
pub const FULL: Sizes = Sizes {
    fig9_ops: 50,
    fig9_prepop: 500,
    crash_ops: 2,
    crash_ops_per_tx: 2,
    crash_prepop: 150,
    fuzz_cases: 1_000,
    corrupt_cases: 2,
};

/// Layers the traced pass records. Every other span name is harness:
/// the benchmark's own loop between the calls.
pub const LAYERS: [&str; 16] = [
    "workloads.generate",
    "sim.run_program",
    "sim.run_program_traced",
    "mem.nvm_image_at",
    "nvm.check_image",
    "check.gen",
    "check.concretize",
    "check.golden",
    "check.conform",
    CORRUPT_LAYERS[0],
    CORRUPT_LAYERS[1],
    CORRUPT_LAYERS[2],
    CORRUPT_LAYERS[3],
    CORRUPT_LAYERS[4],
    CORRUPT_LAYERS[5],
    CORRUPT_LAYERS[6],
];

/// One layer per corruption kind, in `CorruptionKind::ALL` order.
pub const CORRUPT_LAYERS: [&str; 7] = [
    "check.corrupt.bit-flip",
    "check.corrupt.torn-word",
    "check.corrupt.sector-tear",
    "check.corrupt.truncate",
    "check.corrupt.duplicate-region",
    "check.corrupt.wipe-zero",
    "check.corrupt.wipe-ones",
];

/// Geomean execution time of SU, IQ, WB and U normalised to B, as the
/// paper reports it (5/15/20/38 % reductions).
const PAPER_GEOMEAN: [f64; 4] = [0.95, 0.85, 0.80, 0.62];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Fig9,
    CrashSweep,
    Fuzz,
    Corrupt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig9,
        Workload::CrashSweep,
        Workload::Fuzz,
        Workload::Corrupt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9 => "fig9",
            Workload::CrashSweep => "crash-sweep",
            Workload::Fuzz => "fuzz",
            Workload::Corrupt => "corrupt",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Builds the inputs the untraced samples consume.
    pub fn setup(self, seed: u64, sizes: &Sizes) -> Result<Prepared, String> {
        Ok(match self {
            Workload::Fig9 => Prepared::Fig9 {
                cfg: Box::new(fig9_config(seed, sizes)),
                suite: standard_suite(),
            },
            Workload::CrashSweep => {
                let params = crash_params(seed, sizes);
                let sim = SimConfig::a72();
                let mut cells = Vec::new();
                for app in standard_suite() {
                    for arch in crash_archs() {
                        let r = ede_sim::run_workload(app.as_ref(), &params, arch, &sim)
                            .map_err(|e| format!("{} on {arch}: {e}", app.name()))?;
                        cells.push(CrashCell {
                            images: r.trace.persist_cycles().len() as u64,
                            checker: CrashChecker::new(&r.output),
                            trace: r.trace,
                        });
                    }
                }
                Prepared::CrashSweep { cells }
            }
            Workload::Fuzz => Prepared::Fuzz(fuzz_options(seed, sizes)),
            Workload::Corrupt => Prepared::Corrupt(corrupt_options(seed, sizes)),
        })
    }

    /// Set-up plus one sample, decomposed into the public calls of each
    /// layer, with a span around every call.
    pub fn traced(self, seed: u64, sizes: &Sizes, spans: &mut Spans) -> Traced {
        match self {
            Workload::Fig9 => traced_fig9(seed, sizes, spans),
            Workload::CrashSweep => traced_crash_sweep(seed, sizes, spans),
            Workload::Fuzz => traced_fuzz(seed, sizes, spans),
            Workload::Corrupt => traced_corrupt(seed, sizes, spans),
        }
    }
}

/// The inputs of a workload's samples.
pub enum Prepared {
    Fig9 {
        cfg: Box<ExperimentConfig>,
        suite: Vec<Box<dyn App>>,
    },
    CrashSweep {
        cells: Vec<CrashCell>,
    },
    Fuzz(FuzzOptions),
    Corrupt(CorruptOptions),
}

pub struct CrashCell {
    images: u64,
    checker: CrashChecker,
    trace: PersistTrace,
}

/// What one untraced sample produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Hash of the sample's checked output; equal across samples and
    /// between the traced and untraced passes.
    pub digest: u64,
    /// Units whose output failed its check.
    pub failed: u64,
}

impl Prepared {
    /// Units of work in one sample: cells, crash images or cases.
    pub fn units(&self) -> u64 {
        match self {
            Prepared::Fig9 { suite, .. } => (suite.len() * ArchConfig::ALL.len()) as u64,
            Prepared::CrashSweep { cells } => cells.iter().map(|c| c.images).sum(),
            Prepared::Fuzz(opts) => u64::from(opts.cases),
            Prepared::Corrupt(opts) => {
                u64::from(opts.cases) * (opts.kinds.len() * opts.archs.len()) as u64
            }
        }
    }

    /// One untraced sample through the library entry point.
    pub fn sample(&self) -> Outcome {
        match self {
            Prepared::Fig9 { cfg, suite } => match fig9_with(cfg, suite) {
                Ok(f) => Outcome {
                    digest: digest(f.rows.iter().flat_map(|r| r.cycles)),
                    failed: 0,
                },
                Err(e) => {
                    eprintln!("fig9: {e}");
                    Outcome {
                        digest: 0,
                        failed: 1,
                    }
                }
            },
            Prepared::CrashSweep { cells } => {
                let mut failed = 0;
                let mut words = Vec::new();
                for cell in cells {
                    let ok = match cell.checker.check_all_images(&cell.trace) {
                        Ok(()) => true,
                        Err((cycle, e)) => {
                            eprintln!("crash-sweep: crash at cycle {cycle}: {e}");
                            failed += 1;
                            false
                        }
                    };
                    words.extend([cell.images, u64::from(ok)]);
                }
                Outcome {
                    digest: digest(words),
                    failed,
                }
            }
            Prepared::Fuzz(opts) => {
                let r = fuzz(opts);
                if let Some(f) = &r.failure {
                    eprintln!("fuzz: case {} on {}: {:?}", f.case, f.arch, f.diffs);
                }
                Outcome {
                    digest: digest([u64::from(r.cases_run), u64::from(r.failure.is_none())]),
                    failed: u64::from(r.failure.is_some())
                        + r.quarantined.len() as u64
                        + u64::from(opts.cases.saturating_sub(r.cases_run)),
                }
            }
            Prepared::Corrupt(opts) => {
                let r = corrupt(opts);
                if let Some(f) = &r.failure {
                    eprintln!("corrupt: {} on {}: {}", f.kind.label(), f.arch, f.detail);
                }
                let missing = opts.kinds.len() * opts.archs.len() - r.cells.len();
                let violations: u64 = r.cells.iter().map(|c| u64::from(c.violations)).sum();
                Outcome {
                    digest: corrupt_digest(&r.cells),
                    failed: violations + r.quarantined.len() as u64 + missing as u64,
                }
            }
        }
    }
}

/// What the traced pass measured besides its spans. Counts are bases for
/// the per-layer ratios.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub digest: u64,
    pub failed: u64,
    /// Simulated cycles, retired instructions and persist events of every
    /// run the pass simulated through a public call.
    pub cycles: u64,
    pub retired: u64,
    pub persist_events: u64,
    /// Whether those runs belong to the sample (not to set-up), so that
    /// dividing by the sample wall gives a simulation rate.
    pub sim_in_sample: bool,
    /// Instructions `Workload::generate` emitted.
    pub generated_insts: u64,
    /// Crash images checked, and the trace events their reconstruction
    /// replayed.
    pub images: u64,
    pub image_events: u64,
    /// Simulations the fuzz campaign ran (cases × architectures).
    pub runs: u64,
    /// Mean absolute error of the fig9 geomeans against the paper.
    pub paper_mae: f64,
    /// Cross-checks against the library that failed.
    pub problems: Vec<String>,
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xEDE0_BE4C, |h, w| mix64(h ^ w))
}

fn corrupt_digest(cells: &[CellReport]) -> u64 {
    digest(cells.iter().flat_map(|c| {
        [
            c.clean,
            c.rolled_back,
            c.repaired_torn,
            c.quarantined,
            c.unrecoverable,
            c.violations,
        ]
        .map(u64::from)
    }))
}

fn crash_archs() -> impl Iterator<Item = ArchConfig> {
    ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe())
}

fn fig9_config(seed: u64, sizes: &Sizes) -> ExperimentConfig {
    ExperimentConfig {
        params: WorkloadParams {
            ops: sizes.fig9_ops,
            ops_per_tx: 100,
            seed,
            prepopulate: sizes.fig9_prepop,
            ..WorkloadParams::default()
        },
        sim: SimConfig::a72(),
        jobs: 1,
    }
}

/// The `tests/crash_consistency.rs` shape: arrays large enough that data
/// stores miss, trees pre-populated just past their first splits.
fn crash_params(seed: u64, sizes: &Sizes) -> WorkloadParams {
    WorkloadParams {
        ops: sizes.crash_ops,
        ops_per_tx: sizes.crash_ops_per_tx,
        seed,
        array_elems: 16 * 1024,
        prepopulate: sizes.crash_prepop,
        ..WorkloadParams::default()
    }
}

fn fuzz_options(seed: u64, sizes: &Sizes) -> FuzzOptions {
    FuzzOptions {
        seed,
        cases: sizes.fuzz_cases,
        jobs: 1,
        ..FuzzOptions::default()
    }
}

fn corrupt_options(seed: u64, sizes: &Sizes) -> CorruptOptions {
    CorruptOptions {
        seed,
        cases: sizes.corrupt_cases,
        jobs: 1,
        ..CorruptOptions::default()
    }
}

/// `run_workload` split into its two public calls, one span each, with
/// the run's counts added to `t`. `keep` takes what the caller needs
/// from the result inside the simulator's span, so that dropping the
/// rest is charged to the simulator, as it is inside the library.
#[allow(clippy::too_many_arguments)]
fn simulate<T>(
    spans: &mut Spans,
    t: &mut Traced,
    cell: u64,
    app: &dyn App,
    params: &WorkloadParams,
    arch: ArchConfig,
    sim: &SimConfig,
    keep: impl FnOnce(RunResult) -> T,
) -> Option<T> {
    let out = spans.span("workloads.generate", cell, |_| app.generate(params, arch));
    t.generated_insts += out.program.len() as u64;
    let run = spans.span("sim.run_program", cell, |_| {
        run_program(app.name(), out, arch, sim).map(|r| {
            let counts = [r.cycles, r.retired, r.metrics.counter("mem.persist_events")];
            (counts, keep(r))
        })
    });
    match run {
        Ok(([cycles, retired, persist_events], kept)) => {
            t.cycles += cycles;
            t.retired += retired;
            t.persist_events += persist_events;
            Some(kept)
        }
        Err(e) => {
            eprintln!("{} on {arch}: {e}", app.name());
            t.failed += 1;
            None
        }
    }
}

fn traced_fig9(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Traced {
    let cfg = fig9_config(seed, sizes);
    let suite = standard_suite();
    let mut t = Traced {
        sim_in_sample: true,
        ..Traced::default()
    };
    let mut tx_cycles = Vec::new();
    spans.span("bench.sample", 0, |spans| {
        for app in &suite {
            for arch in ArchConfig::ALL {
                let cell = tx_cycles.len() as u64;
                let run = spans.span("fig9.cell", cell, |spans| {
                    simulate(
                        spans,
                        &mut t,
                        cell,
                        app.as_ref(),
                        &cfg.params,
                        arch,
                        &cfg.sim,
                        |r| r.tx_cycles,
                    )
                });
                tx_cycles.push(run.unwrap_or(0));
            }
        }
    });
    t.digest = if t.failed == 0 {
        digest(tx_cycles.iter().copied())
    } else {
        0
    };
    // Geomean over apps of each arch's time normalised to B, as
    // `fig9_with` computes it.
    let per_arch = ArchConfig::ALL.len();
    let geo: Vec<f64> = (1..per_arch)
        .map(|i| {
            let xs: Vec<f64> = tx_cycles
                .chunks(per_arch)
                .map(|row| row[i] as f64 / row[0].max(1) as f64)
                .collect();
            geomean(&xs)
        })
        .collect();
    t.paper_mae = geo
        .iter()
        .zip(PAPER_GEOMEAN)
        .map(|(g, p)| (g - p).abs())
        .sum::<f64>()
        / PAPER_GEOMEAN.len() as f64;
    t
}

fn traced_crash_sweep(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Traced {
    let params = crash_params(seed, sizes);
    let sim = SimConfig::a72();
    let mut t = Traced::default();
    let mut cells = Vec::new();
    spans.span("bench.setup", 0, |spans| {
        for app in standard_suite() {
            for arch in crash_archs() {
                let cell = cells.len() as u64;
                let run = simulate(
                    spans,
                    &mut t,
                    cell,
                    app.as_ref(),
                    &params,
                    arch,
                    &sim,
                    |r| (r.output, r.trace),
                );
                cells.push(run.map(|(output, trace)| (CrashChecker::new(&output), trace)));
            }
        }
    });
    let mut words = Vec::new();
    spans.span("bench.sample", 0, |spans| {
        for (cell, c) in cells.iter().enumerate() {
            let Some((checker, trace)) = c else { continue };
            let cell = cell as u64;
            let mut ok = true;
            let cycles = trace.persist_cycles();
            spans.span("crash.trace", cell, |spans| {
                for &cycle in &cycles {
                    t.image_events += (trace.stores.partition_point(|e| e.cycle <= cycle)
                        + trace.persists.partition_point(|e| e.cycle <= cycle))
                        as u64;
                    let image =
                        spans.span("mem.nvm_image_at", cell, |_| nvm_image_at(trace, cycle, 64));
                    let verdict =
                        spans.span("nvm.check_image", cell, |_| checker.check_image(image));
                    if let Err(e) = verdict {
                        if ok {
                            eprintln!("crash-sweep: crash at cycle {cycle}: {e}");
                            t.failed += 1;
                        }
                        ok = false;
                    }
                }
            });
            t.images += cycles.len() as u64;
            words.extend([cycles.len() as u64, u64::from(ok)]);
        }
    });
    t.digest = digest(words);
    t
}

/// The simulation configuration `ede_check::fuzz` runs its cases under,
/// which that module keeps private. A drift shows up as a mismatch with
/// `fuzz::campaign_metrics` in the traced pass.
fn fuzz_sim() -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim
}

fn traced_fuzz(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Traced {
    let opts = fuzz_options(seed, sizes);
    let sim = fuzz_sim();
    let strat = cmds_strategy(opts.max_cmds);
    let golden_cfg = GoldenConfig::default();
    let mut t = Traced {
        sim_in_sample: true,
        ..Traced::default()
    };
    let mut arch_cycles = vec![0u64; opts.archs.len()];
    // The per-case seed stream the campaign draws from.
    let mut seeds = SplitMix64::new(mix64(opts.seed));
    spans.span("bench.sample", 0, |spans| {
        for case in 0..opts.cases {
            let unit = u64::from(case);
            let case_seed = seeds.next_u64();
            spans.span("fuzz.case", unit, |spans| {
                let cmds = spans.span("check.gen", unit, |_| {
                    strat
                        .generate(&mut SmallRng::seed_from_u64(case_seed))
                        .value
                });
                let mut clean = true;
                for (ai, &arch) in opts.archs.iter().enumerate() {
                    // The steps of `fuzz::diff_case_ff`, one span each.
                    let program = spans.span("check.concretize", unit, |_| concretize(&cmds));
                    let golden =
                        spans.span("check.golden", unit, |_| golden::run(&program, &golden_cfg));
                    let diffs = match golden {
                        Err(e) => vec![format!("golden model rejected the program: {e}")],
                        Ok(golden) => {
                            t.runs += 1;
                            let run = spans.span("sim.run_program_traced", unit, |_| {
                                run_program_traced("fuzz", raw_output(program), arch, &sim)
                            });
                            match run {
                                Ok((result, rec)) => {
                                    t.cycles += result.cycles;
                                    t.retired += result.retired;
                                    t.persist_events +=
                                        result.metrics.counter("mem.persist_events");
                                    arch_cycles[ai] += result.metrics.counter("cpu.cycles");
                                    // Moved in, so their drop is charged
                                    // to the checker as in `diff_case_ff`.
                                    spans.span("check.conform", unit, move |_| {
                                        check_run(&result, &rec, &golden)
                                    })
                                }
                                Err(e) => vec![format!("pipeline did not complete: {e:?}")],
                            }
                        }
                    };
                    if !diffs.is_empty() {
                        eprintln!("fuzz: case {case} on {arch}: {diffs:?}");
                        clean = false;
                    }
                }
                t.failed += u64::from(!clean);
            });
        }
    });
    t.digest = digest([u64::from(opts.cases), u64::from(t.failed == 0)]);
    let reference = campaign_metrics(&opts, opts.cases, opts.cases);
    for (arch, &cycles) in opts.archs.iter().zip(&arch_cycles) {
        let want = reference.counter(&format!("{}.cpu.cycles", arch.label()));
        if want != cycles {
            t.problems.push(format!(
                "fuzz: traced pass simulated {cycles} cycles on {arch}, \
                 fuzz::campaign_metrics {want}"
            ));
        }
    }
    t
}

fn traced_corrupt(seed: u64, sizes: &Sizes, spans: &mut Spans) -> Traced {
    let opts = corrupt_options(seed, sizes);
    let mut t = Traced::default();
    let mut cells = Vec::new();
    spans.span("bench.sample", 0, |spans| {
        for (layer, kind) in CORRUPT_LAYERS.into_iter().zip(CorruptionKind::ALL) {
            for &arch in &opts.archs {
                // One filtered campaign per cell: each cell draws its seeds
                // from its (kind, arch) identity, so the cells equal those
                // of the full campaign.
                let one = CorruptOptions {
                    kinds: vec![kind],
                    archs: vec![arch],
                    ..opts.clone()
                };
                let r = spans.span(layer, cells.len() as u64, |_| corrupt(&one));
                if !r.contract_holds() || !r.quarantined.is_empty() || r.cells.len() != 1 {
                    eprintln!("corrupt: {} on {arch}: contract broken", kind.label());
                    t.failed += 1;
                }
                cells.extend(r.cells);
            }
        }
    });
    t.digest = corrupt_digest(&cells);
    t
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Sizes small enough for a unit test.
    pub const TINY: Sizes = Sizes {
        fig9_ops: 10,
        fig9_prepop: 50,
        crash_ops: 2,
        crash_ops_per_tx: 2,
        crash_prepop: 150,
        fuzz_cases: 10,
        corrupt_cases: 1,
    };

    #[test]
    fn traced_pass_repeats_the_untraced_sample() {
        for w in Workload::ALL {
            let prepared = w.setup(7, &TINY).expect("set-up succeeds");
            let a = prepared.sample();
            let b = prepared.sample();
            assert_eq!(a, b, "{}: samples agree", w.name());
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(prepared.units() > 0, "{}", w.name());
            let mut spans = Spans::new();
            let t = w.traced(7, &TINY, &mut spans);
            assert_eq!(t.digest, a.digest, "{}: traced digest", w.name());
            assert_eq!(t.failed, 0, "{}", w.name());
            assert!(t.problems.is_empty(), "{}: {:?}", w.name(), t.problems);
        }
    }

    #[test]
    fn digests_depend_on_the_seed() {
        let a = Workload::Fig9.setup(1, &TINY).unwrap().sample();
        let b = Workload::Fig9.setup(2, &TINY).unwrap().sample();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("explore"), None);
        for (layer, kind) in CORRUPT_LAYERS.into_iter().zip(CorruptionKind::ALL) {
            assert_eq!(layer, format!("check.corrupt.{}", kind.label()));
        }
    }
}
