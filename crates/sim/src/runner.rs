//! Running one workload on one configuration.

use crate::config::SimConfig;
use crate::error::SimError;
use ede_core::ordering::{self, InstTiming, OrderRelaxation, Violation};
use ede_cpu::{Core, IssueHistogram, StallTable, Tracer, TracerConfig};
use ede_isa::{ArchConfig, InstId};
use ede_mem::{MemStats, MemSystem, PersistTrace};
use ede_nvm::{CheckFailure, CrashChecker, TxOutput};
use ede_util::obs::Registry;
use ede_workloads::{Workload, WorkloadParams};

/// Builds a [`TxOutput`] wrapper around a raw program with no transaction
/// record (for microbenchmarks and examples).
pub use ede_nvm::codegen::raw_output;

/// Everything one simulation produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which workload ran.
    pub workload: String,
    /// Which configuration it targeted.
    pub arch: ArchConfig,
    /// Total cycles, including the initialization phase.
    pub cycles: u64,
    /// Cycles spent in the transaction phase (the measured region).
    pub tx_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Pipeline squashes.
    pub squashes: u64,
    /// Issue-width histogram (Figure 11).
    pub issue_hist: IssueHistogram,
    /// Persist-buffer occupancy histogram sampled at media writes
    /// (Figure 10): index = pending writes, value = samples.
    pub nvm_occupancy: Vec<u64>,
    /// Memory-system counters.
    pub mem_stats: MemStats,
    /// Per-instruction observed timing.
    pub timings: Vec<InstTiming>,
    /// Store/persist event record (crash reconstruction).
    pub trace: PersistTrace,
    /// Per-stage stall attribution: every cycle decomposes into busy +
    /// exactly one typed cause, so each stage's total equals `cycles`.
    pub attribution: StallTable,
    /// The per-run metrics registry: `cpu.*`, `mem.*`, and `nvm.*`
    /// counters/gauges assembled from every layer.
    pub metrics: Registry,
    /// The generated code and transaction record.
    pub output: TxOutput,
}

impl RunResult {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Validates that every ordering axiom in the trace — execution
    /// dependences, waits, and fences — was honored by this run (empty =
    /// correct).
    pub fn ordering_violations(&self) -> Vec<Violation> {
        ordering::check(&self.output.program, &self.timings, OrderRelaxation::NONE)
    }

    /// Checks failure atomicity at every distinct crash image the run
    /// could leave behind ([`CrashChecker::check_all_images`], recovering
    /// with the protocol the run's [`TxOutput`] records).
    ///
    /// # Errors
    ///
    /// The first violating `(cycle, error)` pair, in cycle order —
    /// expected for the crash-unsafe configurations.
    pub fn crash_consistent(&self) -> Result<(), (u64, CheckFailure)> {
        CrashChecker::new(&self.output).check_all_images(&self.trace)
    }

    /// The cycle at which the transaction phase starts: when the last
    /// instruction before [`TxOutput::tx_phase_start`] completed.
    ///
    /// A phase marker pointing past the recorded timings (possible only
    /// for hand-built [`TxOutput`]s) counts as "no init phase" rather
    /// than panicking — `run_program` rejects such outputs up front, so
    /// this fallback is belt-and-braces for results built by hand.
    pub fn tx_phase_start_cycle(&self) -> u64 {
        match self.output.tx_phase_start {
            // No marker, or nothing before it: the phase opens at cycle 0.
            Some(InstId(0)) | None => 0,
            Some(id) => self.timings.get(id.index() - 1).map_or(0, |t| t.complete),
        }
    }
}

/// Generates the workload's trace for `arch` and simulates it.
///
/// # Errors
///
/// [`SimError::Core`] if the run exceeds `sim.max_cycles` or the
/// watchdog diagnoses a deadlock; [`SimError::Config`] for a malformed
/// run request.
pub fn run_workload(
    workload: &dyn Workload,
    params: &WorkloadParams,
    arch: ArchConfig,
    sim: &SimConfig,
) -> Result<RunResult, SimError> {
    let output = workload.generate(params, arch);
    run_program(workload.name(), output, arch, sim)
}

/// Simulates an already-generated program (for custom traces).
///
/// # Errors
///
/// [`SimError::Core`] if the run exceeds `sim.max_cycles` or the
/// watchdog diagnoses a deadlock; [`SimError::Config`] for a malformed
/// run request.
pub fn run_program(
    name: &str,
    output: TxOutput,
    arch: ArchConfig,
    sim: &SimConfig,
) -> Result<RunResult, SimError> {
    run_program_inner(name, output, arch, sim, None).map(|(r, _)| r)
}

/// Simulates a program with [`TracerConfig::STAGES`] attached: the
/// returned [`Tracer`] holds every dispatch/issue/executed/retire/drain/
/// complete/squash transition of the run and nothing else, with nothing
/// dropped. This is the conformance checker's window into the pipeline's
/// committed order (`ede-check` reads retire order and stage
/// monotonicity from it), and the stream the Chrome timeline and
/// `pipeview` render.
///
/// # Errors
///
/// [`SimError::Core`] if the run exceeds `sim.max_cycles` or the
/// watchdog diagnoses a deadlock; [`SimError::Config`] for a malformed
/// run request.
pub fn run_program_traced(
    name: &str,
    output: TxOutput,
    arch: ArchConfig,
    sim: &SimConfig,
) -> Result<(RunResult, Tracer), SimError> {
    run_program_observed(name, output, arch, sim, TracerConfig::STAGES)
}

/// Simulates a program with a [`Tracer`] built from `tracer` attached —
/// the observability bundle behind `ede-sim trace`: stage transitions
/// plus the sampled stall/occupancy/quiet events, in one ring.
///
/// # Errors
///
/// [`SimError::Core`] if the run exceeds `sim.max_cycles` or the
/// watchdog diagnoses a deadlock; [`SimError::Config`] for a malformed
/// run request.
pub fn run_program_observed(
    name: &str,
    output: TxOutput,
    arch: ArchConfig,
    sim: &SimConfig,
    tracer: TracerConfig,
) -> Result<(RunResult, Tracer), SimError> {
    let (result, tr) = run_program_inner(name, output, arch, sim, Some(tracer))?;
    Ok((result, tr.expect("tracer was attached")))
}

fn run_program_inner(
    name: &str,
    mut output: TxOutput,
    arch: ArchConfig,
    sim: &SimConfig,
    tracer: Option<TracerConfig>,
) -> Result<(RunResult, Option<Tracer>), SimError> {
    if sim.max_cycles == 0 {
        return Err(SimError::Config {
            message: "max_cycles is 0: no run can finish".to_string(),
        });
    }
    if let Some(id) = output.tx_phase_start {
        if id.index() > output.program.len() {
            return Err(SimError::Config {
                message: format!(
                    "tx_phase_start #{} is past the end of the {}-instruction program",
                    id.index(),
                    output.program.len()
                ),
            });
        }
    }
    let mem = MemSystem::new(sim.mem.clone());
    // The core runs the program in place and hands it back at the end.
    let program = std::mem::take(&mut output.program);
    let mut core = Core::new(sim.cpu_for(arch), program, mem);
    if let Some(cfg) = tracer {
        core.set_tracer(Tracer::new(cfg));
    }
    let stats = core.run(sim.max_cycles)?;
    let tr = core.take_tracer();
    let (program, mut mem) = core.into_parts();
    output.program = program;
    // Drain in-flight media writes so the persist trace and the buffer
    // occupancy histogram cover the whole run. Between scheduled events
    // a tick is a no-op (the `next_event_cycle` freeze contract), so
    // under fast-forward the loop jumps straight from event to event;
    // persist-trace stamps use the event's own cycle either way.
    let fast = sim.cpu.fast_forward;
    let mut now = stats.cycles;
    let mut resps = Vec::new();
    while !mem.idle() {
        now = if fast {
            mem.next_event_cycle().map_or(now + 1, |e| e.max(now + 1))
        } else {
            now + 1
        };
        // Nothing waits for these responses any more.
        mem.tick(now, &mut resps);
        resps.clear();
    }
    let mem_stats = *mem.stats();
    let nvm_occupancy = mem.persist_buffer().occupancy_histogram().to_vec();

    // Assemble the per-run metrics registry from every layer. The
    // registry never depends on whether a tracer was attached,
    // so traced and untraced runs of the same program produce identical
    // metrics documents.
    let mut metrics = Registry::new();
    stats.report(&mut metrics);
    mem.report(&mut metrics);
    output.report(&mut metrics);
    let trace = mem.into_trace();

    let mut result = RunResult {
        workload: name.to_string(),
        arch,
        cycles: stats.cycles,
        tx_cycles: 0,
        retired: stats.retired,
        squashes: stats.squashes,
        issue_hist: stats.issue_hist,
        nvm_occupancy,
        mem_stats,
        timings: stats.timings,
        trace,
        attribution: stats.attribution,
        metrics,
        output,
    };
    result.tx_cycles = result.cycles.saturating_sub(result.tx_phase_start_cycle());
    Ok((result, tr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_cpu::PipeStage;
    use ede_workloads::update::Update;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            ops: 30,
            ops_per_tx: 10,
            array_elems: 128,
            ..WorkloadParams::default()
        }
    }

    #[test]
    fn update_runs_on_all_configs() {
        let params = small_params();
        let sim = SimConfig::a72();
        for arch in ArchConfig::ALL {
            let r = run_workload(&Update, &params, arch, &sim).expect("completes");
            assert_eq!(r.arch, arch);
            assert!(r.cycles > 0);
            assert!(r.tx_cycles > 0);
            assert!(r.tx_cycles <= r.cycles);
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn ede_runs_honor_execution_deps() {
        let params = small_params();
        let sim = SimConfig::a72();
        for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let r = run_workload(&Update, &params, arch, &sim).unwrap();
            assert!(r.ordering_violations().is_empty());
        }
    }

    #[test]
    fn safe_configs_are_crash_consistent() {
        let params = small_params();
        let sim = SimConfig::a72();
        for arch in ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe()) {
            let r = run_workload(&Update, &params, arch, &sim).unwrap();
            r.crash_consistent()
                .unwrap_or_else(|(c, e)| panic!("{arch}: cycle {c}: {e}"));
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        // Phase marker past the end of the program.
        let mut b = ede_isa::TraceBuilder::new();
        b.store(0x1_0000_0000, 1);
        let mut out = raw_output(b.finish());
        out.tx_phase_start = Some(InstId(99));
        let err = run_program("bad", out, ArchConfig::Baseline, &SimConfig::a72()).unwrap_err();
        assert!(matches!(err, crate::SimError::Config { .. }), "{err}");
        assert!(err.to_string().contains("tx_phase_start"), "{err}");

        // A zero cycle budget can never finish.
        let mut sim = SimConfig::a72();
        sim.max_cycles = 0;
        let mut b = ede_isa::TraceBuilder::new();
        b.store(0x1_0000_0000, 1);
        let err =
            run_program("bad", raw_output(b.finish()), ArchConfig::Baseline, &sim).unwrap_err();
        assert!(matches!(err, crate::SimError::Config { .. }), "{err}");
    }

    #[test]
    fn injected_hang_surfaces_as_deadlock_error() {
        // A swallowed DC CVAP acknowledgement makes the trailing WAIT_KEY
        // unsatisfiable; the runner must hand back the watchdog's typed
        // diagnosis instead of panicking or spinning to the cycle limit.
        use ede_isa::Edk;
        let key = Edk::new(3).unwrap();
        let mut b = ede_isa::TraceBuilder::new();
        b.store(0x1_0000_0000, 1);
        b.cvap_producing(0x1_0000_0000, key);
        b.wait_key(key);
        let mut sim = SimConfig::a72();
        sim.cpu.watchdog_cycles = 10_000;
        sim.mem.fault = Some(ede_mem::FaultInjection::StuckCvap { nth: 0 });
        let err = run_program(
            "hang",
            raw_output(b.finish()),
            ArchConfig::WriteBuffer,
            &sim,
        )
        .unwrap_err();
        assert!(err.is_deadlock(), "{err}");
        let (inst, cause) = err.deadlock_cause().unwrap();
        assert!(inst.is_some());
        assert_eq!(cause, ede_cpu::core::WaitCause::EdeKey(key));
    }

    #[test]
    fn raw_program_runs() {
        let mut b = ede_isa::TraceBuilder::new();
        b.store(0x1_0000_0000, 1);
        b.cvap(0x1_0000_0000);
        b.dsb_sy();
        let r = run_program(
            "raw",
            raw_output(b.finish()),
            ArchConfig::Baseline,
            &SimConfig::a72(),
        )
        .unwrap();
        assert_eq!(r.retired, 6);
    }

    #[test]
    fn traced_run_records_in_order_retirement() {
        let mut b = ede_isa::TraceBuilder::new();
        b.store(0x1_0000_0000, 1);
        b.cvap(0x1_0000_0000);
        b.dsb_sy();
        let (r, tracer) = run_program_traced(
            "raw",
            raw_output(b.finish()),
            ArchConfig::WriteBuffer,
            &SimConfig::a72(),
        )
        .unwrap();
        assert_eq!(tracer.dropped(), 0);
        assert_eq!(tracer.len(), tracer.stages().count(), "stage events only");
        let retired: Vec<InstId> = tracer
            .stages()
            .filter(|&(_, _, stage)| stage == PipeStage::Retire)
            .map(|(_, id, _)| id)
            .collect();
        assert_eq!(retired.len() as u64, r.retired);
        assert!(retired.windows(2).all(|w| w[0] < w[1]));
    }
}
