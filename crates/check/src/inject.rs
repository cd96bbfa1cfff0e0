//! The fault-injection campaign engine.
//!
//! `ede-sim fuzz` answers "does the pipeline conform?"; this module
//! answers the dual question: **if the pipeline (or the memory system)
//! were broken, would the checkers notice?** For every fault in the
//! [`FaultInjection`] taxonomy and every architecture in the sweep, the
//! campaign runs seeded probe programs with the fault injected and
//! classifies each case:
//!
//! * **detected** — a detector fired: a conformance axiom diff, the
//!   pipeline watchdog's deadlock diagnosis, the cycle-budget limit, or
//!   a [`CrashChecker`] failure-atomicity violation;
//! * **tolerated** — no detector fired *and* the run's architectural
//!   outputs (per-address store sequences, per-line persist counts, the
//!   final NVM image — what conformance axioms 4–6 compare, computed by
//!   the same code) are identical to a fault-free run of the same
//!   program, i.e. the fault provably did not corrupt anything this
//!   case could observe (a `drop-persist` fault on a program with no
//!   persists, say);
//! * **silent** — outputs differ from the fault-free run but nothing
//!   detected it. This is the campaign's failure condition: it means a
//!   corruption escaped every checker. The offending program is shrunk
//!   to a minimal reproducer, exactly like a fuzz counterexample.
//!
//! Faults probe the layer they live in. Pipeline faults run the
//! *conformance probe*: random litmus programs (the fuzzer's generator)
//! checked against the golden model. Memory-system faults additionally
//! run the *crash probe*: a transactional program whose every crash
//! instant is replayed through recovery — this is what catches
//! `early-clean-ack`, which perturbs no architectural output but leaves
//! crash images where the commit marker is durable before the data.
//! Damage to crash images at rest is not injected here: the `corrupt`
//! campaign ([`crate::corrupt`]) owns it, under a triage contract that
//! can fail.
//!
//! Outcomes are aggregated into a per-cell detection-coverage matrix
//! ([`InjectReport::to_json`]) and the campaign passes only when no
//! cell recorded a silent corruption. Setting
//! [`InjectOptions::detectors_enabled`] to `false` switches every
//! detector off — a self-test hook proving the campaign *does* fail
//! (with a shrunk reproducer) when corruption goes unobserved.

use crate::campaign::{self, Campaign, Plan, Record};
use crate::conform::{check_run, RunOutputs};
use crate::gen::{cmds_strategy, concretize, Cmd};
use crate::golden::{self, GoldenConfig};
use crate::resume::{CampaignDriver, HarnessPanic, ResumeError, RuntimeOptions};
use ede_isa::{ArchConfig, Program};
use ede_mem::{FaultInjection, FaultLayer};
use ede_nvm::redo::RedoTxWriter;
use ede_nvm::{CrashChecker, Layout, TxOutput, TxWriter};
use ede_sim::{raw_output, run_program, run_program_traced, SimConfig};
use ede_util::check::{minimize, Strategy};
use ede_util::progress;
use ede_util::rng::{mix64, SmallRng, SplitMix64};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct InjectOptions {
    /// Base seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Probe cases per (fault, architecture) cell.
    pub cases: u32,
    /// Maximum commands per generated conformance-probe program.
    pub max_cmds: usize,
    /// Architectures to inject into.
    pub archs: Vec<ArchConfig>,
    /// Faults to sweep (defaults to the whole taxonomy).
    pub faults: Vec<FaultInjection>,
    /// Worker threads across cells: 0 = auto (`EDE_JOBS` or the host
    /// parallelism), 1 = sequential. The report is identical for every
    /// value.
    pub jobs: usize,
    /// Shrink budget for a silent-corruption reproducer.
    pub max_shrink_iters: u32,
    /// `false` switches every detector off (conformance axioms and the
    /// crash checker) — the campaign's self-test hook: with detectors
    /// down, a corrupting fault must surface as a silent case and fail
    /// the campaign. Always `true` outside the self-test.
    pub detectors_enabled: bool,
    /// Emit a per-cell progress line on stderr (0 = silent). stdout is
    /// untouched, so parallel and sequential sessions stay
    /// byte-comparable.
    pub progress_every: u32,
    /// Quiescence-aware fast-forwarding in each simulated run (see
    /// [`ede_cpu::CpuConfig::fast_forward`]). The report is
    /// byte-identical either way; `false` selects the reference
    /// per-cycle path (`--no-fast-forward` in the CLI).
    pub fast_forward: bool,
    /// Checkpoint/resume, deadline, and quarantine-budget settings
    /// (see [`RuntimeOptions`]); excluded from the fingerprint.
    pub runtime: RuntimeOptions,
    /// Self-test hook: deliberately panic the harness on this cell
    /// index, proving the quarantine path is load-bearing
    /// (`--self-test-panic` in the CLI).
    pub self_test_panic: Option<u32>,
}

impl Default for InjectOptions {
    fn default() -> Self {
        InjectOptions {
            seed: 0,
            cases: 3,
            max_cmds: 25,
            archs: vec![
                ArchConfig::Baseline,
                ArchConfig::IssueQueue,
                ArchConfig::WriteBuffer,
            ],
            faults: FaultInjection::ALL.to_vec(),
            jobs: 0,
            max_shrink_iters: 4096,
            detectors_enabled: true,
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
pub fn fingerprint(opts: &InjectOptions) -> String {
    format!(
        "inject seed={:#x} cases={} max_cmds={} archs=[{}] faults={:?} \
         max_shrink_iters={} detectors_enabled={} fast_forward={} self_test_panic={:?}",
        opts.seed,
        opts.cases,
        opts.max_cmds,
        opts.archs
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join(","),
        opts.faults,
        opts.max_shrink_iters,
        opts.detectors_enabled,
        opts.fast_forward,
        opts.self_test_panic,
    )
}

/// How one probe case ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    /// A conformance axiom diffed against the golden model.
    Conformance,
    /// The pipeline watchdog diagnosed a deadlock.
    Watchdog,
    /// The run exceeded the cycle budget.
    CycleLimit,
    /// The crash checker found a failure-atomicity violation.
    CrashChecker,
    /// Outputs identical to a fault-free run; nothing to detect.
    Tolerated,
    /// Outputs corrupted and no detector fired — campaign failure.
    Silent,
}

/// Detection counts for one (fault, architecture) cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellReport {
    /// The injected fault.
    pub fault: FaultInjection,
    /// The architecture injected into.
    pub arch: ArchConfig,
    /// Cases caught by a conformance-axiom diff.
    pub conformance: u32,
    /// Cases caught by the pipeline watchdog.
    pub watchdog: u32,
    /// Cases caught by the cycle-budget limit.
    pub cycle_limit: u32,
    /// Cases caught by the crash checker.
    pub crash_checker: u32,
    /// Cases whose outputs were provably identical to fault-free runs.
    pub tolerated: u32,
    /// Cases where corruption escaped every detector.
    pub silent: u32,
    /// Case index of the first silent corruption, if any.
    first_silent: Option<u32>,
}

/// The names of a cell's counters, in [`CellReport::counts`] order: the
/// metrics registry's outcome keys and the checkpoint payload's.
const COUNTERS: [&str; 6] = [
    "conformance",
    "watchdog",
    "cycle_limit",
    "crash_checker",
    "tolerated",
    "silent",
];

impl CellReport {
    /// Total cases some detector caught.
    pub fn detected(&self) -> u32 {
        self.conformance + self.watchdog + self.cycle_limit + self.crash_checker
    }

    /// The counters, in [`COUNTERS`] order.
    fn counts(&self) -> [u32; 6] {
        [
            self.conformance,
            self.watchdog,
            self.cycle_limit,
            self.crash_checker,
            self.tolerated,
            self.silent,
        ]
    }
}

/// A silent corruption, shrunk to a minimal reproducer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectFailure {
    /// The fault whose corruption went undetected.
    pub fault: FaultInjection,
    /// The architecture it slipped through on.
    pub arch: ArchConfig,
    /// Which case (0-based, within the cell) failed.
    pub case: u32,
    /// The derived per-case seed (for direct replay).
    pub case_seed: u64,
    /// The minimal silently-corrupting command list.
    pub cmds: Vec<Cmd>,
    /// The minimal failing program (concretized `cmds`).
    pub program: Program,
    /// Successful shrink steps taken from the original program.
    pub shrink_steps: u32,
}

/// The campaign's detection-coverage matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectReport {
    /// Echo of the base seed.
    pub seed: u64,
    /// Echo of the per-cell case budget.
    pub cases: u32,
    /// Whether detectors were live (`false` only in the self-test).
    pub detectors_enabled: bool,
    /// One entry per (fault, architecture), in sweep order. Cells the
    /// deadline interrupted or the quarantine caught are absent.
    pub cells: Vec<CellReport>,
    /// The first silent corruption in cell order, already shrunk.
    pub failure: Option<InjectFailure>,
    /// Whether the deadline tripped before every cell completed.
    pub interrupted: bool,
    /// Harness panics caught and quarantined instead of aborting the
    /// sweep ([`HarnessPanic`] records, in cell order).
    pub quarantined: Vec<HarnessPanic>,
}

impl InjectReport {
    /// Whether every injected fault was detected or provably tolerated.
    pub fn all_covered(&self) -> bool {
        self.failure.is_none() && self.cells.iter().all(|c| c.silent == 0)
    }

    /// The matrix as a JSON document (stable key order, no trailing
    /// whitespace) — the campaign's machine-readable artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"cases_per_cell\": {},\n", self.cases));
        s.push_str(&format!(
            "  \"detectors_enabled\": {},\n",
            self.detectors_enabled
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let layer = match c.fault.layer() {
                FaultLayer::Pipeline => "pipeline",
                FaultLayer::MemorySystem => "memory-system",
            };
            s.push_str(&format!(
                "    {{\"fault\": \"{}\", \"layer\": \"{}\", \"arch\": \"{}\", \
                 \"detected\": {{\"conformance\": {}, \"watchdog\": {}, \
                 \"cycle-limit\": {}, \"crash-checker\": {}}}, \
                 \"tolerated\": {}, \"silent\": {}}}{}\n",
                c.fault.label(),
                layer,
                c.arch.label(),
                c.conformance,
                c.watchdog,
                c.cycle_limit,
                c.crash_checker,
                c.tolerated,
                c.silent,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&campaign::runtime_json(self.interrupted, &self.quarantined));
        s.push_str(&format!("  \"covered\": {}\n", self.all_covered()));
        s.push('}');
        s
    }

    /// The detection matrix as a metrics registry:
    /// `inject.<fault>.<arch>.<outcome>` counters plus campaign
    /// roll-ups. Deterministic for every worker count — it is a pure
    /// function of the (already jobs-invariant) report.
    pub fn metrics(&self) -> ede_util::obs::Registry {
        let mut reg = ede_util::obs::Registry::new();
        for c in &self.cells {
            let cell = format!("inject.{}.{}", c.fault.label(), c.arch.label());
            for (outcome, n) in COUNTERS.into_iter().zip(c.counts()) {
                reg.inc(format!("{cell}.{outcome}"), u64::from(n));
            }
        }
        reg.inc("inject.cells", self.cells.len() as u64);
        reg.inc("inject.cases_per_cell", u64::from(self.cases));
        reg.inc(
            "inject.silent_total",
            self.cells.iter().map(|c| u64::from(c.silent)).sum(),
        );
        reg
    }
}

/// The simulation configuration every campaign runs its programs under
/// (inject's probes, fuzz cases, explore's implementation cross-checks
/// and corrupt's fault-free transaction programs): A72 tables, a cycle
/// budget generous for any generated program, and a watchdog tight
/// enough that a fault-induced hang is diagnosed well under the budget
/// (the longest legitimate stall is a few media-write latencies).
/// Pipeline faults are read by the core, memory-system faults by the
/// controller; setting both lets one option inject either layer.
pub(crate) fn inject_sim(fault: Option<FaultInjection>, fast_forward: bool) -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim.cpu.watchdog_cycles = 50_000;
    sim.cpu.fault = fault;
    sim.mem.fault = fault;
    sim.cpu.fast_forward = fast_forward;
    sim
}

/// Runs one conformance-probe case: the generated program with the
/// fault injected, checked by the axioms (when enabled) and compared
/// against a fault-free run of the same program. Cycle timestamps are
/// not compared: a fault that only shifts timing corrupts nothing the
/// [`RunOutputs`] observe, and the crash probe covers the one hazard
/// timing shifts create (persist reordering across a crash).
fn conformance_case(
    cmds: &[Cmd],
    arch: ArchConfig,
    fault: FaultInjection,
    detectors: bool,
    ff: bool,
) -> Outcome {
    let program = concretize(cmds);
    let golden = golden::run(&program, &GoldenConfig::default())
        .expect("the generator only emits programs the golden model accepts");
    let faulty = run_program_traced(
        "inject",
        raw_output(program.clone()),
        arch,
        &inject_sim(Some(fault), ff),
    );
    match faulty {
        Err(e) if e.is_deadlock() => Outcome::Watchdog,
        Err(_) => Outcome::CycleLimit,
        Ok((result, tracer)) => {
            if detectors && !check_run(&result, &tracer, &golden).is_empty() {
                return Outcome::Conformance;
            }
            let clean = run_program("inject", raw_output(program), arch, &inject_sim(None, ff))
                .expect("fault-free probe programs complete");
            if RunOutputs::of(&result) == RunOutputs::of(&clean) {
                Outcome::Tolerated
            } else {
                Outcome::Silent
            }
        }
    }
}

/// The crash probe's transactional program: a handful of words, three
/// transactions of seeded writes — enough slot reuse and commit-marker
/// traffic that persist reordering or image corruption lands somewhere
/// recovery must care about. Written with undo logging, or with redo
/// logging when `redo` is set; the seeded shape is the same.
pub(crate) fn tx_case_program(seed: u64, arch: ArchConfig, redo: bool) -> TxOutput {
    macro_rules! build {
        ($tx:expr) => {{
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tx = $tx;
            let base = tx.heap_alloc(4 * 8, 8);
            for i in 0..4u64 {
                tx.write_init(base + i * 8, i + 1);
            }
            tx.finish_init();
            for t in 0..3u64 {
                tx.begin_tx();
                for _ in 0..2 {
                    let word = base + 8 * rng.gen_range(0u64..4);
                    tx.write(word, 100 + t * 100 + rng.gen_range(0u64..90));
                }
                tx.commit_tx();
            }
            tx.finish()
        }};
    }
    if redo {
        build!(RedoTxWriter::new(Layout::standard(), arch))
    } else {
        build!(TxWriter::new(Layout::standard(), arch))
    }
}

/// Runs one crash-probe case: a transactional program with the fault
/// injected into the memory system, whose every reachable crash image is
/// recovered and checked.
fn crash_case(
    case_seed: u64,
    arch: ArchConfig,
    fault: FaultInjection,
    detectors: bool,
    ff: bool,
) -> Outcome {
    let out = tx_case_program(case_seed, arch, false);
    match run_program("inject-crash", out, arch, &inject_sim(Some(fault), ff)) {
        Err(e) if e.is_deadlock() => Outcome::Watchdog,
        Err(_) => Outcome::CycleLimit,
        Ok(_) if !detectors => Outcome::Tolerated,
        Ok(result) => match CrashChecker::new(&result.output).check_all_images(&result.trace) {
            Err(_) => Outcome::CrashChecker,
            Ok(()) => Outcome::Tolerated,
        },
    }
}

/// Classifies one case of one cell. Precedence: a conformance-probe
/// detection wins outright; otherwise the crash probe (memory-system
/// faults only) may still detect; a conformance-probe silent corruption
/// stands only if no probe detected the fault.
fn run_case(
    cmds: &[Cmd],
    case_seed: u64,
    fault: FaultInjection,
    arch: ArchConfig,
    detectors: bool,
    ff: bool,
) -> Outcome {
    let conf = conformance_case(cmds, arch, fault, detectors, ff);
    if matches!(
        conf,
        Outcome::Conformance | Outcome::Watchdog | Outcome::CycleLimit
    ) {
        return conf;
    }
    if fault.layer() == FaultLayer::MemorySystem {
        let crash = crash_case(case_seed, arch, fault, detectors, ff);
        if matches!(
            crash,
            Outcome::Watchdog | Outcome::CycleLimit | Outcome::CrashChecker
        ) {
            return crash;
        }
    }
    conf
}

/// The per-case seed stream for cell `cell_index` — the master stream
/// fast-forwarded to the cell's chunk, so every job count draws the
/// same seeds.
fn cell_seeds(opts: &InjectOptions, cell_index: usize) -> SplitMix64 {
    let mut seeds = SplitMix64::new(mix64(opts.seed));
    seeds.jump(cell_index as u64 * u64::from(opts.cases));
    seeds
}

fn run_cell(
    opts: &InjectOptions,
    cell_index: usize,
    fault: FaultInjection,
    arch: ArchConfig,
) -> CellReport {
    let mut seeds = cell_seeds(opts, cell_index);
    let strat = cmds_strategy(opts.max_cmds);
    let mut report = CellReport {
        fault,
        arch,
        conformance: 0,
        watchdog: 0,
        cycle_limit: 0,
        crash_checker: 0,
        tolerated: 0,
        silent: 0,
        first_silent: None,
    };
    for case in 0..opts.cases {
        let case_seed = seeds.next_u64();
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let sh = strat.generate(&mut rng);
        match run_case(
            &sh.value,
            case_seed,
            fault,
            arch,
            opts.detectors_enabled,
            opts.fast_forward,
        ) {
            Outcome::Conformance => report.conformance += 1,
            Outcome::Watchdog => report.watchdog += 1,
            Outcome::CycleLimit => report.cycle_limit += 1,
            Outcome::CrashChecker => report.crash_checker += 1,
            Outcome::Tolerated => report.tolerated += 1,
            Outcome::Silent => {
                report.silent += 1;
                report.first_silent.get_or_insert(case);
            }
        }
    }
    if opts.progress_every > 0 {
        progress::stderr().line(&format!(
            "inject: {}/{}: {} detected, {} tolerated, {} silent",
            fault.label(),
            arch.label(),
            report.detected(),
            report.tolerated,
            report.silent
        ));
    }
    report
}

/// Serializes one cell's counters for the checkpoint payload store.
fn cell_payload(c: &CellReport) -> String {
    campaign::counters_payload(&COUNTERS, &c.counts(), "first_silent", c.first_silent)
}

/// Restores one cell from its checkpoint payload.
fn parse_cell_payload(
    data: &str,
    fault: FaultInjection,
    arch: ArchConfig,
) -> Result<CellReport, String> {
    let (n, first_silent) = campaign::parse_counters(data, &COUNTERS, "first_silent")?;
    Ok(CellReport {
        fault,
        arch,
        conformance: n[0],
        watchdog: n[1],
        cycle_limit: n[2],
        crash_checker: n[3],
        tolerated: n[4],
        silent: n[5],
        first_silent,
    })
}

/// Regenerates a cell's silent case from its index and shrinks it —
/// always on the caller's thread, so the reproducer is identical
/// however the campaign was parallelized.
fn silent_failure(
    opts: &InjectOptions,
    cell_index: usize,
    fault: FaultInjection,
    arch: ArchConfig,
    case: u32,
) -> InjectFailure {
    let mut seeds = cell_seeds(opts, cell_index);
    seeds.jump(u64::from(case));
    let case_seed = seeds.next_u64();
    let strat = cmds_strategy(opts.max_cmds);
    let mut rng = SmallRng::seed_from_u64(case_seed);
    let sh = strat.generate(&mut rng);
    let detectors = opts.detectors_enabled;
    let ff = opts.fast_forward;
    let (cmds, shrink_steps) = minimize(sh, opts.max_shrink_iters, |cmds| {
        conformance_case(cmds, arch, fault, detectors, ff) == Outcome::Silent
    });
    let program = concretize(&cmds);
    InjectFailure {
        fault,
        arch,
        case,
        case_seed,
        cmds,
        program,
        shrink_steps,
    }
}

/// Runs the campaign. Deterministic in `opts` — including `jobs`: cells
/// fan out across workers, per-cell seed streams are jumps of one
/// master stream, and the first silent case (in cell order) is
/// regenerated and shrunk sequentially, so every job count yields the
/// same [`InjectReport`] bit for bit.
///
/// # Panics
///
/// When [`InjectOptions::runtime`] persistence hits an I/O error — use
/// [`inject_campaign`] to handle checkpoint failures as values.
pub fn inject(opts: &InjectOptions) -> InjectReport {
    inject_campaign(opts).expect("campaign runtime error")
}

/// [`inject`] with the resilient campaign runtime surfaced: checkpoint
/// and resume errors come back as typed [`ResumeError`]s. Work units
/// are matrix cells; completed cells persist their counters in the
/// checkpoint payload store and are restored verbatim on resume, so a
/// resumed campaign's report is byte-identical to an uninterrupted
/// one.
///
/// # Errors
///
/// A [`ResumeError`] when the resume checkpoint is missing, malformed,
/// or fingerprint-mismatched, or when a checkpoint flush failed.
pub fn inject_campaign(opts: &InjectOptions) -> Result<InjectReport, ResumeError> {
    let sweep = campaign::run(opts)?;
    let failure = sweep.units.iter().find_map(|&(i, ref r)| {
        r.first_silent
            .map(|case| silent_failure(opts, i, r.fault, r.arch, case))
    });
    Ok(InjectReport {
        seed: opts.seed,
        cases: opts.cases,
        detectors_enabled: opts.detectors_enabled,
        cells: sweep.units.into_iter().map(|(_, r)| r).collect(),
        failure,
        interrupted: sweep.interrupted,
        quarantined: sweep.quarantined,
    })
}

impl InjectOptions {
    /// Matrix cell `i` in sweep order: faults outer, archs inner.
    fn cell(&self, i: usize) -> (FaultInjection, ArchConfig) {
        (
            self.faults[i / self.archs.len()],
            self.archs[i % self.archs.len()],
        )
    }
}

/// The detection matrix as a [`Campaign`]: one unit per (fault, arch)
/// cell, whose counters are the checkpoint payload.
impl Campaign for InjectOptions {
    type Unit = CellReport;

    fn plan(&self) -> Plan<'_> {
        Plan {
            kind: "inject",
            noun: "cell",
            fingerprint: fingerprint(self),
            seed: self.seed,
            units: self.faults.len() * self.archs.len(),
            jobs: self.jobs,
            runtime: &self.runtime,
            self_test_panic: self.self_test_panic,
        }
    }

    fn run_unit(&self, unit: usize, _: &CampaignDriver) -> Option<CellReport> {
        let (fault, arch) = self.cell(unit);
        Some(run_cell(self, unit, fault, arch))
    }

    fn record(&self, cell: &CellReport) -> Record {
        Record::Done(Some(cell_payload(cell)))
    }

    fn decode(&self, unit: usize, data: &str) -> Result<CellReport, String> {
        let (fault, arch) = self.cell(unit);
        parse_cell_payload(data, fault, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_faults_are_covered() {
        let report = inject(&InjectOptions {
            cases: 2,
            max_cmds: 20,
            faults: vec![FaultInjection::DropEdeps, FaultInjection::WeakDsb],
            ..InjectOptions::default()
        });
        assert_eq!(report.cells.len(), 6);
        assert!(report.all_covered(), "{report:?}");
        // Every fault must be caught on at least one architecture — a
        // sweep where nothing ever detects anything proves nothing.
        for fault in [FaultInjection::DropEdeps, FaultInjection::WeakDsb] {
            let caught: u32 = report
                .cells
                .iter()
                .filter(|c| c.fault == fault)
                .map(CellReport::detected)
                .sum();
            assert!(caught > 0, "{fault:?} never detected: {report:?}");
        }
    }

    #[test]
    fn stuck_cvap_trips_the_watchdog() {
        let report = inject(&InjectOptions {
            cases: 3,
            faults: vec![FaultInjection::StuckCvap { nth: 0 }],
            archs: vec![ArchConfig::WriteBuffer],
            ..InjectOptions::default()
        });
        assert!(report.all_covered(), "{report:?}");
        assert!(report.cells[0].watchdog > 0, "{report:?}");
    }

    #[test]
    fn disabled_detectors_fail_the_campaign_with_a_reproducer() {
        let report = inject(&InjectOptions {
            cases: 6,
            max_cmds: 30,
            faults: vec![FaultInjection::TornStp],
            archs: vec![ArchConfig::Baseline],
            detectors_enabled: false,
            ..InjectOptions::default()
        });
        assert!(!report.all_covered());
        let failure = report.failure.expect("undetected corruption must surface");
        assert!(!failure.cmds.is_empty());
        assert!(
            conformance_case(&failure.cmds, failure.arch, failure.fault, false, true)
                == Outcome::Silent,
            "the shrunk reproducer still corrupts silently"
        );
    }

    #[test]
    fn report_is_identical_for_every_job_count() {
        let opts = InjectOptions {
            cases: 1,
            max_cmds: 15,
            faults: vec![FaultInjection::WeakDsb, FaultInjection::TornStp],
            jobs: 1,
            ..InjectOptions::default()
        };
        let base = inject(&opts);
        for jobs in [2, 4] {
            let report = inject(&InjectOptions {
                jobs,
                ..opts.clone()
            });
            assert_eq!(report, base, "jobs {jobs}");
            assert_eq!(report.to_json(), base.to_json(), "jobs {jobs}");
        }
    }

    #[test]
    fn cell_payload_round_trips() {
        let cell = CellReport {
            fault: FaultInjection::WeakDsb,
            arch: ArchConfig::IssueQueue,
            conformance: 3,
            watchdog: 1,
            cycle_limit: 0,
            crash_checker: 2,
            tolerated: 7,
            silent: 1,
            first_silent: Some(4),
        };
        let parsed = parse_cell_payload(
            &cell_payload(&cell),
            FaultInjection::WeakDsb,
            ArchConfig::IssueQueue,
        )
        .expect("round trip");
        assert_eq!(parsed, cell);
        assert!(parse_cell_payload("{}", cell.fault, cell.arch).is_err());
    }

    #[test]
    fn self_test_panic_quarantines_the_cell_and_the_sweep_finishes() {
        let report = inject(&InjectOptions {
            cases: 1,
            max_cmds: 12,
            faults: vec![FaultInjection::DropEdeps, FaultInjection::WeakDsb],
            archs: vec![ArchConfig::Baseline],
            self_test_panic: Some(0),
            ..InjectOptions::default()
        });
        // The panicked cell is quarantined; the other still ran.
        assert_eq!(report.cells.len(), 1);
        assert_eq!(
            report.quarantined,
            vec![HarnessPanic {
                unit: 0,
                payload: "deliberate harness panic at cell 0".to_string(),
            }]
        );
        assert!(!report.interrupted);
        assert!(report.to_json().contains("\"quarantined\": [{\"cell\": 0,"));
    }

    #[test]
    fn json_matrix_shape() {
        let report = inject(&InjectOptions {
            cases: 1,
            max_cmds: 12,
            faults: vec![FaultInjection::DropEdeps],
            archs: vec![ArchConfig::Baseline],
            ..InjectOptions::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"fault\": \"drop-edeps\""));
        assert!(json.contains("\"layer\": \"pipeline\""));
        assert!(json.contains("\"arch\": \"B\""));
        assert!(json.contains("\"covered\": true"));
    }
}
