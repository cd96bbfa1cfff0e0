//! The out-of-order pipeline.

use crate::config::{CpuConfig, FaultInjection};
use crate::port::MemPort;
use crate::stats::IssueHistogram;
use crate::trace::{PipeStage, StageId, StallCause, StallTable, Tracer};
use crate::wakeup::Wakeups;
use crate::wb::{WbKind, WriteBuffer};
use crate::window::{Class, Window};
use ede_core::ordering::InstTiming;
use ede_core::{EnforcementPoint, SpeculativeEdm};
use ede_isa::{Edk, Inst, InstId, InstKind, Op, Program};
use ede_mem::{MemResp, ReqId, ReqKind};
use ede_util::idmap::IdMap;
use ede_util::obs::Log2Histogram;
use std::collections::VecDeque;
use std::fmt;

/// Result of a completed run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired (equals the trace length).
    pub retired: u64,
    /// Instructions-issued-per-cycle histogram (Figure 11).
    pub issue_hist: IssueHistogram,
    /// Per-instruction observed timing, indexed by trace position; feeds
    /// the `ede-core` ordering validator.
    pub timings: Vec<InstTiming>,
    /// Pipeline squashes taken (mispredicted branches).
    pub squashes: u64,
    /// Per-stage cycle attribution: every cycle is busy or carries one
    /// typed [`StallCause`], so `cycles == busy + Σ causes` per stage.
    pub attribution: StallTable,
    /// Longest run of consecutive cycles the watchdog saw no forward
    /// progress (retirement, completion, or write-buffer drain).
    pub max_quiet_streak: u64,
    /// Log2 histogram of every watchdog-quiet streak value observed (one
    /// sample per no-progress cycle, valued at the streak length so far).
    pub quiet_hist: Log2Histogram,
    /// Peak reorder-buffer occupancy.
    pub rob_peak: usize,
    /// Peak issue-queue occupancy.
    pub iq_peak: usize,
    /// Peak write-buffer occupancy.
    pub wb_peak: usize,
}

impl RunStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Reports the run's counters into a metrics registry under `cpu.*`:
    /// totals, the full stall-attribution table, issue-width histogram,
    /// occupancy peaks, and watchdog-quiet high-water.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        // In name order, so the registry only appends.
        reg.inc("cpu.cycles", self.cycles);
        reg.set_gauge_max("cpu.iq.peak", self.iq_peak as i64);
        self.issue_hist.report(reg);
        reg.inc("cpu.retired", self.retired);
        reg.set_gauge_max("cpu.rob.peak", self.rob_peak as i64);
        reg.inc("cpu.squashes", self.squashes);
        self.attribution.report(reg);
        reg.set_gauge_max(
            "cpu.watchdog.max_quiet_streak",
            self.max_quiet_streak as i64,
        );
        reg.merge_histogram("cpu.watchdog.quiet_streaks", &self.quiet_hist);
        reg.set_gauge_max("cpu.wb.peak", self.wb_peak as i64);
    }
}

/// The resource a deadlocked instruction is blocked on, as diagnosed by
/// the pipeline watchdog.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitCause {
    /// Waiting for the producers of one EDE key to complete
    /// (`WAIT_KEY`, or a consumer's decoded dependence).
    EdeKey(Edk),
    /// Waiting for every outstanding EDE key (`WAIT_ALL_KEYS`).
    AllKeys,
    /// Waiting for one specific producer instruction to complete.
    Producer(InstId),
    /// Waiting for an older instruction to complete (`DSB SY`).
    OlderIncomplete(InstId),
    /// Waiting for a free write-buffer slot.
    WriteBufferFull,
    /// Waiting for a memory response that never arrived.
    MemoryResponse,
    /// The blocking resource could not be identified.
    Unknown,
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::EdeKey(k) => write!(f, "EDE key k{}", k.index()),
            WaitCause::AllKeys => write!(f, "all outstanding EDE keys"),
            WaitCause::Producer(id) => write!(f, "producer instruction #{}", id.0),
            WaitCause::OlderIncomplete(id) => {
                write!(f, "older incomplete instruction #{}", id.0)
            }
            WaitCause::WriteBufferFull => write!(f, "a free write-buffer slot"),
            WaitCause::MemoryResponse => write!(f, "a memory response that never arrived"),
            WaitCause::Unknown => write!(f, "an unidentified resource"),
        }
    }
}

/// Why a run failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// The cycle limit elapsed before the trace finished — either the
    /// limit was too small or the pipeline deadlocked.
    CycleLimit {
        /// Cycle at which the run gave up.
        at: u64,
        /// Instructions retired by then.
        retired: u64,
    },
    /// The watchdog fired: no instruction retired for
    /// [`CpuConfig::watchdog_cycles`] consecutive cycles. Carries the
    /// diagnosis of the oldest blocked instruction.
    Deadlock {
        /// Cycle at which the watchdog gave up.
        at: u64,
        /// Instructions retired by then.
        retired: u64,
        /// The last cycle anything retired (or drained post-retirement).
        last_retire: u64,
        /// The oldest blocked instruction, if one could be identified.
        inst: Option<InstId>,
        /// Mnemonic of the blocked instruction (e.g. `"WAIT_KEY"`).
        op: &'static str,
        /// The pipeline stage it is stuck at (`"issue"`, `"retire"`,
        /// `"execute"`, `"write-buffer"`).
        stage: &'static str,
        /// The resource it waits on.
        cause: WaitCause,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::CycleLimit { at, retired } => write!(
                f,
                "cycle limit reached at cycle {at} with {retired} instructions retired"
            ),
            CoreError::Deadlock {
                at,
                retired,
                last_retire,
                inst,
                op,
                stage,
                cause,
            } => {
                write!(
                    f,
                    "pipeline deadlock at cycle {at} ({retired} retired, \
                     no progress since cycle {last_retire}): "
                )?;
                match inst {
                    Some(id) => write!(
                        f,
                        "oldest blocked instruction #{} ({op}) is stuck at \
                         {stage}, waiting on {cause}",
                        id.0
                    ),
                    None => write!(f, "no blocked instruction identified"),
                }
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Short mnemonic for an operation (deadlock diagnostics).
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Mov { .. } => "MOV",
        Op::Add { .. } => "ADD",
        Op::Cmp { .. } => "CMP",
        Op::Ldr { .. } => "LDR",
        Op::Str { .. } => "STR",
        Op::Stp { .. } => "STP",
        Op::DcCvap { .. } => "DC CVAP",
        Op::DsbSy => "DSB SY",
        Op::DmbSt => "DMB ST",
        Op::DmbSy => "DMB SY",
        Op::Join { .. } => "JOIN",
        Op::WaitKey { .. } => "WAIT_KEY",
        Op::WaitAllKeys => "WAIT_ALL_KEYS",
        Op::Branch { .. } => "B.COND",
        Op::Nop => "NOP",
    }
}

/// Pipeline state of one dynamic instruction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
enum State {
    #[default]
    NotDispatched,
    /// Waiting in the issue queue.
    InIq,
    /// In a functional unit; completion queued.
    Executing,
    /// Issued to memory; waiting for the response.
    WaitMem,
    /// Result produced (register value available / store data+addr ready).
    Executed,
    /// Left the ROB (stores/writebacks: deposited in the write buffer).
    Retired,
    /// Complete in the EDE sense (§IV-B1).
    Complete,
}

#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    epoch: u32,
    state: State,
    pending_regs: u8,
    edep_pending: u8,
    edep_srcs: [Option<InstId>; 2],
}

/// The simulated core.
///
/// Construct with a configuration, a trace, and a memory system; then call
/// [`run`](Self::run). See the [crate documentation](crate) for an
/// example.
pub struct Core<M> {
    cfg: CpuConfig,
    program: Program,
    mem: M,
    now: u64,

    fetch_ptr: usize,
    fetch_resume: u64,
    fetch_q: VecDeque<InstId>,

    rob: VecDeque<InstId>,
    iq: Vec<InstId>,
    lq_used: usize,
    sq_used: usize,
    wbuf: WriteBuffer,

    slots: Vec<Slot>,
    /// Observed timing per instruction, handed to [`RunStats::timings`].
    timings: Vec<InstTiming>,
    /// The youngest dispatched writer of each register, by `Reg::index`.
    scoreboard: [Option<InstId>; 32],
    /// Register consumers waiting for their producer to execute.
    reg_waiters: Wakeups,
    /// IQ-mode execution-dependence consumers waiting for their producer
    /// to complete.
    edep_waiters: Wakeups,

    edm: SpeculativeEdm,
    /// Every dispatched, incomplete instruction, by class.
    window: Window,
    dispatch_block: Option<InstId>,

    req_map: IdMap<ReqId, (InstId, u32)>,
    /// Pending functional-unit results as `(cycle, id, epoch)`. Every
    /// latency is one or two cycles, so the list stays a few entries long.
    fu_done: Vec<(u64, u64, u32)>,
    /// Executed barriers ready to complete this tick (reused).
    barriers_ready: Vec<InstId>,
    /// Memory responses of the current tick (reused across ticks).
    resps: Vec<MemResp>,
    /// Write-buffer entries finished or drainable this tick (reused).
    wb_ready: Vec<InstId>,

    issue_hist: IssueHistogram,
    retired: u64,
    squashes: u64,
    attribution: StallTable,
    max_quiet_streak: u64,
    rob_peak: usize,
    iq_peak: usize,
    wb_peak: usize,
    tracer: Option<Tracer>,
    /// EDE source edges decoded so far (occurrence index for the
    /// `DropOneEdep` fault).
    edep_edge_count: u32,

    /// Whether the current `tick` changed any core-visible state; reset
    /// at the top of every tick and set at each primitive mutation site.
    moved: bool,
    /// When the last tick was fully quiescent, the `[Retire, Issue,
    /// Dispatch]` stall causes it recorded — the certificate that lets
    /// the fast-forward kernel replay the cycle in bulk.
    quiet_causes: Option<[StallCause; 3]>,
    quiet_hist: Log2Histogram,
    /// Fast-forward spans taken (diagnostics; not part of `RunStats`).
    ff_spans: u64,
    /// Cycles skipped by fast-forward (diagnostics; not part of
    /// `RunStats`).
    ff_skipped: u64,
}

impl<M: MemPort> Core<M> {
    /// Builds a core over `program` and `mem`.
    pub fn new(cfg: CpuConfig, program: Program, mem: M) -> Core<M> {
        let mut core = Core {
            cfg: cfg.clone(),
            program: Program::default(),
            mem,
            now: 0,
            fetch_ptr: 0,
            fetch_resume: 0,
            fetch_q: VecDeque::new(),
            rob: VecDeque::new(),
            iq: Vec::new(),
            lq_used: 0,
            sq_used: 0,
            wbuf: WriteBuffer::new(0),
            slots: Vec::new(),
            timings: Vec::new(),
            scoreboard: [None; 32],
            reg_waiters: Wakeups::new(0),
            edep_waiters: Wakeups::new(0),
            edm: SpeculativeEdm::new(),
            window: Window::new(&Program::default()),
            dispatch_block: None,
            req_map: IdMap::default(),
            fu_done: Vec::new(),
            barriers_ready: Vec::new(),
            resps: Vec::new(),
            wb_ready: Vec::new(),
            issue_hist: IssueHistogram::new(0),
            retired: 0,
            squashes: 0,
            attribution: StallTable::default(),
            max_quiet_streak: 0,
            rob_peak: 0,
            iq_peak: 0,
            wb_peak: 0,
            tracer: None,
            edep_edge_count: 0,
            moved: false,
            quiet_causes: None,
            quiet_hist: Log2Histogram::new(),
            ff_spans: 0,
            ff_skipped: 0,
        };
        core.reload(cfg, program);
        core
    }

    /// Returns the core to the state [`new`](Self::new) builds for `cfg`
    /// and `program`, keeping the storage of its queues, tables and
    /// histograms, and hands back the program it held. The tracer is
    /// detached. The memory system is left as it is: its owner resets it
    /// (through [`mem_mut`](Self::mem_mut)).
    pub fn reload(&mut self, cfg: CpuConfig, program: Program) -> Program {
        let Core {
            cfg: own_cfg,
            program: own_program,
            mem: _,
            now,
            fetch_ptr,
            fetch_resume,
            fetch_q,
            rob,
            iq,
            lq_used,
            sq_used,
            wbuf,
            slots,
            timings,
            scoreboard,
            reg_waiters,
            edep_waiters,
            edm,
            window,
            dispatch_block,
            req_map,
            fu_done,
            barriers_ready,
            resps,
            wb_ready,
            issue_hist,
            retired,
            squashes,
            attribution,
            max_quiet_streak,
            rob_peak,
            iq_peak,
            wb_peak,
            tracer,
            edep_edge_count,
            moved,
            quiet_causes,
            quiet_hist,
            ff_spans,
            ff_skipped,
        } = self;
        let n = program.len();
        *now = 0;
        *fetch_ptr = 0;
        *fetch_resume = 0;
        fetch_q.clear();
        rob.clear();
        iq.clear();
        *lq_used = 0;
        *sq_used = 0;
        wbuf.reset(cfg.wb_entries);
        if cfg.fault == Some(FaultInjection::ReorderWriteBuffer) {
            wbuf.set_reorder_same_line(true);
        }
        slots.clear();
        slots.resize(n, Slot::default());
        timings.clear();
        timings.resize(n, InstTiming::default());
        *scoreboard = [None; 32];
        reg_waiters.reset(n);
        edep_waiters.reset(n);
        *edm = SpeculativeEdm::new();
        window.reset(&program);
        *dispatch_block = None;
        req_map.clear();
        fu_done.clear();
        barriers_ready.clear();
        resps.clear();
        wb_ready.clear();
        issue_hist.reset(cfg.issue_width);
        *retired = 0;
        *squashes = 0;
        *attribution = StallTable::default();
        *max_quiet_streak = 0;
        *rob_peak = 0;
        *iq_peak = 0;
        *wb_peak = 0;
        *tracer = None;
        *edep_edge_count = 0;
        *moved = false;
        *quiet_causes = None;
        *quiet_hist = Log2Histogram::new();
        *ff_spans = 0;
        *ff_skipped = 0;
        *own_cfg = cfg;
        std::mem::replace(own_program, program)
    }

    /// A cheap digest of everything the machine can make forward
    /// progress on; the watchdog declares deadlock only after this stays
    /// unchanged for a whole window (so a long post-retirement persist
    /// drain does not trip it).
    fn progress_signature(&self) -> (u64, usize, usize, usize) {
        (
            self.retired,
            self.window.len(Class::Any),
            self.wbuf.len(),
            self.fetch_ptr,
        )
    }

    /// Builds the structured deadlock diagnosis the watchdog reports:
    /// the oldest blocked instruction, the stage it is stuck at, and the
    /// resource it waits on.
    fn diagnose_deadlock(&self, last_retire: u64) -> CoreError {
        let wb_mode = self.cfg.enforcement == Some(EnforcementPoint::WriteBuffer);
        let (inst, op, stage, cause) = if let Some(&id) = self.rob.front() {
            let inst = self.inst(id);
            let slot = &self.slots[id.index()];
            let executed = slot.state >= State::Executed;
            let (stage, cause) = match inst.op {
                Op::DsbSy if executed => (
                    "retire",
                    self.window
                        .iter(Class::Any)
                        .next()
                        .filter(|&m| m < id)
                        .map_or(WaitCause::Unknown, WaitCause::OlderIncomplete),
                ),
                Op::WaitKey { key } if wb_mode && executed => ("retire", WaitCause::EdeKey(key)),
                Op::WaitAllKeys if wb_mode && executed => ("retire", WaitCause::AllKeys),
                Op::Str { .. } | Op::Stp { .. } | Op::DcCvap { .. } | Op::Join { .. }
                    if executed && !self.wbuf.has_space() =>
                {
                    ("retire", WaitCause::WriteBufferFull)
                }
                Op::WaitKey { key } if slot.state == State::InIq => {
                    ("issue", WaitCause::EdeKey(key))
                }
                Op::WaitAllKeys if slot.state == State::InIq => ("issue", WaitCause::AllKeys),
                _ => match slot.state {
                    State::WaitMem => ("execute", WaitCause::MemoryResponse),
                    State::InIq => (
                        "issue",
                        slot.edep_srcs
                            .iter()
                            .flatten()
                            .find(|&&s| self.window.contains(s))
                            .map(|&s| WaitCause::Producer(s))
                            .unwrap_or(WaitCause::Unknown),
                    ),
                    _ => ("retire", WaitCause::Unknown),
                },
            };
            (Some(id), op_name(&inst.op), stage, cause)
        } else if let Some(id) = self.window.iter(Class::Any).next() {
            // Nothing left in the ROB: the hang is a retired entry that
            // never completed — a write-buffer resident blocked on a
            // source tag, or one whose memory response never arrived.
            let cause = self
                .wbuf
                .entries()
                .iter()
                .find(|e| e.id == id)
                .and_then(|e| e.srcs.iter().flatten().next().copied())
                .map(WaitCause::Producer)
                .unwrap_or(WaitCause::MemoryResponse);
            (Some(id), op_name(&self.inst(id).op), "write-buffer", cause)
        } else {
            (None, "?", "?", WaitCause::Unknown)
        };
        CoreError::Deadlock {
            at: self.now,
            retired: self.retired,
            last_retire,
            inst,
            op,
            stage,
            cause,
        }
    }

    /// Attaches an event tracer (see [`crate::trace`]). With no tracer
    /// attached the machine records only the attribution counters — no
    /// event is allocated or buffered.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer, with everything it buffered.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// The per-stage stall-attribution table accumulated so far.
    pub fn attribution(&self) -> &StallTable {
        &self.attribution
    }

    fn emit(&mut self, id: InstId, stage: PipeStage) {
        if let Some(tr) = &mut self.tracer {
            tr.stage(self.now, id, stage);
        }
    }

    fn inst(&self, id: InstId) -> &Inst {
        &self.program[id]
    }

    /// Whether the whole trace has drained from the machine.
    pub fn finished(&self) -> bool {
        self.fetch_ptr >= self.program.len()
            && self.fetch_q.is_empty()
            && self.rob.is_empty()
            && self.wbuf.is_empty()
            && self.window.len(Class::Any) == 0
    }

    /// Runs until the trace finishes or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`CoreError::CycleLimit`] if the limit is hit first;
    /// [`CoreError::Deadlock`] if the watchdog
    /// ([`CpuConfig::watchdog_cycles`]) sees no pipeline progress — no
    /// retirement, completion, or write-buffer drain — for its whole
    /// window, with a diagnosis of the oldest blocked instruction.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, CoreError> {
        let watchdog = self.cfg.watchdog_cycles;
        let mut last_progress = self.now;
        let mut signature = self.progress_signature();
        while !self.finished() {
            if self.now >= max_cycles {
                return Err(CoreError::CycleLimit {
                    at: self.now,
                    retired: self.retired,
                });
            }
            self.tick();
            let sig = self.progress_signature();
            if sig != signature {
                signature = sig;
                last_progress = self.now;
            } else {
                let streak = self.now - last_progress;
                self.note_quiet(streak);
                if watchdog > 0 && streak >= watchdog {
                    return Err(self.diagnose_deadlock(last_progress));
                }
            }
            // Fast-forward: the tick just taken changed nothing and left
            // every stage blocked, so the machine is a pure function of
            // the clock until the next scheduled event. Jump there,
            // crediting the skipped cycles with the identical accounting
            // the reference path would have produced.
            if self.cfg.fast_forward {
                if let Some(causes) = self.quiet_causes {
                    let mut target = match self.next_wake_cycle() {
                        Some(e) => e.saturating_sub(1).min(max_cycles),
                        None => max_cycles,
                    };
                    if watchdog > 0 {
                        target = target.min(last_progress.saturating_add(watchdog));
                    }
                    if target > self.now {
                        self.fast_forward_to(target, causes, last_progress);
                        let streak = self.now - last_progress;
                        if watchdog > 0 && streak >= watchdog {
                            return Err(self.diagnose_deadlock(last_progress));
                        }
                    }
                }
            }
        }
        Ok(self.take_stats())
    }

    /// Records one watchdog-quiet cycle (streak high-water, histogram,
    /// trace sample) exactly as the reference path does per cycle.
    fn note_quiet(&mut self, streak: u64) {
        self.max_quiet_streak = self.max_quiet_streak.max(streak);
        self.quiet_hist.record(streak);
        if let Some(tr) = &mut self.tracer {
            tr.quiet(self.now, streak);
        }
    }

    /// The earliest future cycle at which anything can happen to a fully
    /// blocked core: a memory event, a functional-unit completion, or
    /// fetch resuming after a squash.
    fn next_wake_cycle(&self) -> Option<u64> {
        let mut next = self.mem.next_event_cycle();
        if let Some(cycle) = self.fu_done.iter().map(|&(cycle, _, _)| cycle).min() {
            next = Some(next.map_or(cycle, |n| n.min(cycle)));
        }
        if self.fetch_resume > self.now
            && self.fetch_ptr < self.program.len()
            && self.fetch_q.len() < self.cfg.fetch_width * 2
        {
            next = Some(next.map_or(self.fetch_resume, |n| n.min(self.fetch_resume)));
        }
        next
    }

    /// Jumps the clock from `self.now` to `target` (exclusive of further
    /// events), bulk-accounting every skipped cycle exactly as the
    /// per-cycle path would: stall attribution, zero-issue histogram,
    /// quiet-streak tracking, and (at sampled cycles) the identical trace
    /// events in the identical order.
    fn fast_forward_to(&mut self, target: u64, causes: [StallCause; 3], last_progress: u64) {
        debug_assert!(target > self.now);
        let span = target - self.now;
        self.attribution
            .record_span(StageId::Retire, causes[0], span);
        self.attribution
            .record_span(StageId::Issue, causes[1], span);
        self.attribution
            .record_span(StageId::Dispatch, causes[2], span);
        self.issue_hist.record_n(0, span);
        // Streak values across the span: (now+1 - lp) ..= (target - lp).
        self.quiet_hist
            .record_run(self.now + 1 - last_progress, span);
        self.max_quiet_streak = self.max_quiet_streak.max(target - last_progress);
        self.ff_spans += 1;
        self.ff_skipped += span;
        // Occupancies cannot change across a quiescent span, so the peaks
        // are already up to date; capture them for trace synthesis.
        let (rob, iq, wb) = (
            self.rob.len() as u32,
            self.iq.len() as u32,
            self.wbuf.len() as u32,
        );
        if let Some(tr) = self.tracer.as_mut().filter(|t| t.config().sample_every > 0) {
            let every = tr.config().sample_every;
            let mut c = (self.now + 1).next_multiple_of(every);
            while c <= target {
                tr.stall(c, StageId::Retire, causes[0]);
                tr.stall(c, StageId::Issue, causes[1]);
                tr.stall(c, StageId::Dispatch, causes[2]);
                tr.occupancy(c, rob, iq, wb);
                tr.quiet(c, c - last_progress);
                c += every;
            }
        }
        self.now = target;
    }

    /// Fast-forward spans taken so far (diagnostics for tests; not part
    /// of [`RunStats`], so both execution paths report identical stats).
    pub fn fast_forward_spans(&self) -> u64 {
        self.ff_spans
    }

    /// Cycles skipped by fast-forward so far (diagnostics for tests).
    pub fn fast_forward_skipped(&self) -> u64 {
        self.ff_skipped
    }

    /// The statistics of a finished run, handing over the timings.
    fn take_stats(&mut self) -> RunStats {
        RunStats {
            cycles: self.now,
            retired: self.retired,
            issue_hist: self.issue_hist.clone(),
            timings: std::mem::take(&mut self.timings),
            squashes: self.squashes,
            attribution: self.attribution,
            max_quiet_streak: self.max_quiet_streak,
            quiet_hist: self.quiet_hist.clone(),
            rob_peak: self.rob_peak,
            iq_peak: self.iq_peak,
            wb_peak: self.wb_peak,
        }
    }

    /// Hands back the program the core ran (so a caller that handed its
    /// program over gets it back without a copy), leaving an empty one
    /// until the next [`reload`](Self::reload).
    pub fn take_program(&mut self) -> Program {
        std::mem::take(&mut self.program)
    }

    /// The memory system.
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// The memory system, to drain it, take its persist trace or reset
    /// it.
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// Advances the machine one cycle.
    ///
    /// Each of the three attributed stages records exactly one entry per
    /// call — busy or a single [`StallCause`] — so the attribution table
    /// conserves cycles by construction.
    pub fn tick(&mut self) {
        self.now += 1;
        self.moved = false;

        self.handle_mem_responses();
        self.handle_fu_completions();
        self.check_dmb_sy();
        let retire_block = self.retire_stage();
        self.write_buffer_stage();
        let (issued, issue_block) = self.issue_stage();
        self.issue_hist.record(issued);
        if issued > 0 {
            self.moved = true;
        }
        let dispatch_block = self.dispatch_stage();
        self.fetch_stage();

        self.attribution.record(StageId::Retire, retire_block);
        self.attribution.record(StageId::Issue, issue_block);
        self.attribution.record(StageId::Dispatch, dispatch_block);
        self.rob_peak = self.rob_peak.max(self.rob.len());
        self.iq_peak = self.iq_peak.max(self.iq.len());
        self.wb_peak = self.wb_peak.max(self.wbuf.len());
        if let Some(tr) = &mut self.tracer {
            for (stage, block) in [
                (StageId::Retire, retire_block),
                (StageId::Issue, issue_block),
                (StageId::Dispatch, dispatch_block),
            ] {
                if let Some(cause) = block {
                    tr.stall(self.now, stage, cause);
                }
            }
            tr.occupancy(
                self.now,
                self.rob.len() as u32,
                self.iq.len() as u32,
                self.wbuf.len() as u32,
            );
        }
        // Quiescence certificate for the fast-forward kernel: nothing
        // changed AND every stage reported a stall cause, so replaying
        // this cycle is pure until the next scheduled event.
        self.quiet_causes = if self.moved {
            None
        } else {
            match (retire_block, issue_block, dispatch_block) {
                (Some(r), Some(i), Some(d)) => Some([r, i, d]),
                _ => None,
            }
        };
    }

    // ---- completion plumbing --------------------------------------------

    fn complete_inst(&mut self, id: InstId) {
        let slot = &mut self.slots[id.index()];
        if slot.state == State::Complete {
            return;
        }
        self.moved = true;
        self.slots[id.index()].state = State::Complete;
        self.timings[id.index()].complete = self.now;
        // Control instructions and fences have no observable effect other
        // than the ordering they impose, which binds at completion: under
        // WB enforcement they execute early but take effect at the write
        // buffer / retire.
        if matches!(
            self.program[id].kind(),
            InstKind::EdeControl | InstKind::FenceFull | InstKind::FenceStore | InstKind::FenceMem
        ) {
            self.timings[id.index()].effect = self.now;
        }
        self.emit(id, PipeStage::Complete);
        self.window.complete(id);
        // Only an instruction that defines a key can be bound in the EDM.
        if self.window.is_producer(id) {
            self.edm.complete(id);
        }
        self.wbuf.clear_src(id);

        // Wake IQ-mode execution-dependence waiters.
        let slots = &mut self.slots;
        self.edep_waiters.wake(id, |w, epoch| {
            let ws = &mut slots[w.index()];
            if ws.epoch == epoch && ws.edep_pending > 0 {
                ws.edep_pending -= 1;
            }
        });
    }

    fn handle_mem_responses(&mut self) {
        // `tick` pops only events due by now (the `next_event_cycle`
        // freeze contract), so with none due it would deliver nothing.
        if self.mem.next_event_cycle().is_none_or(|e| e > self.now) {
            return;
        }
        let mut resps = std::mem::take(&mut self.resps);
        resps.clear();
        self.mem.tick(self.now, &mut resps);
        if !resps.is_empty() {
            // Even an all-stale batch changed `req_map`, so count it as
            // activity (conservative for the fast-forward kernel).
            self.moved = true;
        }
        for resp in &resps {
            let Some((id, epoch)) = self.req_map.remove(&resp.id) else {
                continue;
            };
            if self.slots[id.index()].epoch != epoch {
                continue; // stale response for a squashed instruction
            }
            match self.inst(id).kind() {
                InstKind::Load => {
                    self.mark_executed(id);
                    self.complete_inst(id);
                }
                InstKind::Store | InstKind::Writeback => {
                    self.wbuf.complete(id);
                    self.complete_inst(id);
                }
                _ => unreachable!("only memory ops have requests"),
            }
        }
        self.resps = resps;
    }

    fn mark_executed(&mut self, id: InstId) {
        let slot = &mut self.slots[id.index()];
        if slot.state >= State::Executed {
            return;
        }
        self.moved = true;
        let slot = &mut self.slots[id.index()];
        slot.state = State::Executed;
        self.emit(id, PipeStage::Executed);
        let slots = &mut self.slots;
        self.reg_waiters.wake(id, |w, epoch| {
            let ws = &mut slots[w.index()];
            if ws.epoch == epoch && ws.pending_regs > 0 {
                ws.pending_regs -= 1;
            }
        });
    }

    /// Handles every functional-unit result due by now, in `(cycle, id,
    /// epoch)` order. Nothing handled here issues, so the list does not
    /// change while it is walked.
    fn handle_fu_completions(&mut self) {
        let now = self.now;
        if !self.fu_done.iter().any(|&(cycle, _, _)| cycle <= now) {
            return;
        }
        self.fu_done.sort_unstable();
        let due = self.fu_done.partition_point(|&(cycle, _, _)| cycle <= now);
        // Taking a result — even a stale (squashed-epoch) one — changes
        // what future ticks will see, so it counts as activity.
        if due > 0 {
            self.moved = true;
        }
        for at in 0..due {
            let (_, raw, epoch) = self.fu_done[at];
            let id = InstId(raw);
            if self.slots[id.index()].epoch != epoch {
                continue;
            }
            self.mark_executed(id);
            let inst = self.inst(id).clone();
            // Hardware without the WB structures — including non-EDE
            // hardware running EDE code — enforces conservatively at the
            // issue queue.
            let iq_mode = self.cfg.enforcement != Some(EnforcementPoint::WriteBuffer);
            match inst.op {
                Op::Mov { .. } | Op::Add { .. } | Op::Cmp { .. } | Op::Nop => {
                    self.timings[id.index()].effect = self.now;
                    self.complete_inst(id);
                }
                Op::Ldr { .. } => {
                    // Forwarded load (memory loads complete via responses).
                    self.complete_inst(id);
                }
                Op::Branch { mispredicted } => {
                    self.timings[id.index()].effect = self.now;
                    self.complete_inst(id);
                    if mispredicted {
                        self.squash(id);
                    }
                }
                Op::Join { .. } | Op::WaitKey { .. } | Op::WaitAllKeys => {
                    // Under IQ enforcement the condition held at issue, so
                    // the control instruction completes at writeback; under
                    // WB enforcement completion happens later (write
                    // buffer / retire).
                    self.timings[id.index()].effect = self.now;
                    if iq_mode || self.cfg.enforcement.is_none() {
                        self.complete_inst(id);
                    }
                }
                Op::DmbSy | Op::DmbSt | Op::DsbSy => {
                    // Fences complete via their own conditions.
                    self.timings[id.index()].effect = self.now;
                }
                Op::Str { .. } | Op::Stp { .. } | Op::DcCvap { .. } => {
                    // Stores/writebacks complete when drained/acked.
                }
            }
        }
        self.fu_done.drain(..due);
    }

    /// Completes every executed `DMB SY` with no older incomplete memory
    /// op, then every executed `DMB ST` with no older store still short
    /// of global visibility.
    fn check_dmb_sy(&mut self) {
        if self.window.len(Class::DmbSy) == 0 && self.window.len(Class::DmbSt) == 0 {
            return;
        }
        let mut ready = std::mem::take(&mut self.barriers_ready);
        for (barrier, waits_on) in [(Class::DmbSy, Class::Mem), (Class::DmbSt, Class::Store)] {
            ready.clear();
            ready.extend(self.window.iter(barrier).filter(|&d| {
                self.slots[d.index()].state >= State::Executed
                    && !self.window.has_older(waits_on, d)
            }));
            for &d in &ready {
                self.complete_inst(d);
            }
        }
        self.barriers_ready = ready;
    }

    // ---- retire ----------------------------------------------------------

    /// Retires up to `retire_width` instructions; returns `None` if at
    /// least one retired, else the [`StallCause`] that blocked the ROB
    /// head this cycle.
    fn retire_stage(&mut self) -> Option<StallCause> {
        let wb_mode = self.cfg.enforcement == Some(EnforcementPoint::WriteBuffer);
        let drop_edeps = self.cfg.fault == Some(FaultInjection::DropEdeps);
        let mut retired_now = 0u64;
        let mut block = None;
        for _ in 0..self.cfg.retire_width {
            let Some(&id) = self.rob.front() else {
                block = Some(StallCause::Idle);
                break;
            };
            let state = self.slots[id.index()].state;
            if state < State::Executed {
                block = Some(if state == State::WaitMem {
                    StallCause::MemWait
                } else {
                    StallCause::ExecWait
                });
                break;
            }
            let inst = self.inst(id).clone();
            match inst.op {
                Op::DsbSy => {
                    // All older instructions must have completed,
                    // including store drains and persist acks.
                    // (WeakDsb fault: retire without waiting — the
                    // conformance checker must flag the resulting runs.)
                    if self.cfg.fault != Some(FaultInjection::WeakDsb)
                        && self.window.has_older(Class::Any, id)
                    {
                        block = Some(StallCause::DsbDrain);
                        break;
                    }
                    self.rob.pop_front();
                    self.retire_edm(&inst, id);
                    self.complete_inst(id);
                    if self.dispatch_block == Some(id) {
                        self.dispatch_block = None;
                    }
                }
                Op::WaitKey { key } if wb_mode => {
                    if !drop_edeps && self.window.has_older(Class::Producer(key), id) {
                        block = Some(StallCause::EdkWait);
                        break;
                    }
                    self.rob.pop_front();
                    self.retire_edm(&inst, id);
                    self.complete_inst(id);
                }
                Op::WaitAllKeys if wb_mode => {
                    if !drop_edeps && self.window.has_older(Class::Ede, id) {
                        block = Some(StallCause::EdkWait);
                        break;
                    }
                    self.rob.pop_front();
                    self.retire_edm(&inst, id);
                    self.complete_inst(id);
                }
                Op::Str { addr, value, .. } => {
                    if !self.wbuf.has_space() {
                        block = Some(StallCause::WbFull);
                        break;
                    }
                    self.rob.pop_front();
                    self.sq_used -= 1;
                    self.retire_edm(&inst, id);
                    let srcs = self.wb_srcs(id, wb_mode);
                    self.wbuf.push(
                        id,
                        WbKind::Store {
                            addr,
                            width: 8,
                            value: [value, 0],
                        },
                        srcs,
                    );
                    self.slots[id.index()].state = State::Retired;
                }
                Op::Stp { addr, values, .. } => {
                    if !self.wbuf.has_space() {
                        block = Some(StallCause::WbFull);
                        break;
                    }
                    self.rob.pop_front();
                    self.sq_used -= 1;
                    self.retire_edm(&inst, id);
                    let srcs = self.wb_srcs(id, wb_mode);
                    self.wbuf.push(
                        id,
                        WbKind::Store {
                            addr,
                            width: 16,
                            value: values,
                        },
                        srcs,
                    );
                    self.slots[id.index()].state = State::Retired;
                }
                Op::DcCvap { addr, .. } => {
                    if !self.wbuf.has_space() {
                        block = Some(StallCause::WbFull);
                        break;
                    }
                    self.rob.pop_front();
                    self.sq_used -= 1;
                    self.retire_edm(&inst, id);
                    let srcs = self.wb_srcs(id, wb_mode);
                    self.wbuf.push(id, WbKind::Cvap { addr }, srcs);
                    self.slots[id.index()].state = State::Retired;
                }
                Op::Join { .. } if wb_mode => {
                    if !self.wbuf.has_space() {
                        block = Some(StallCause::WbFull);
                        break;
                    }
                    self.rob.pop_front();
                    self.retire_edm(&inst, id);
                    let srcs = self.wb_srcs(id, true);
                    self.wbuf.push(id, WbKind::Join, srcs);
                    self.slots[id.index()].state = State::Retired;
                }
                _ => {
                    self.rob.pop_front();
                    self.retire_edm(&inst, id);
                    if inst.kind() == InstKind::Load {
                        self.lq_used -= 1;
                    }
                    let slot = &mut self.slots[id.index()];
                    if slot.state < State::Retired {
                        slot.state = State::Retired;
                    }
                }
            }
            self.retired += 1;
            retired_now += 1;
            self.emit(id, PipeStage::Retire);
        }
        if retired_now > 0 {
            self.moved = true;
            None
        } else {
            // Every non-retiring path through the loop sets a cause.
            block.or(Some(StallCause::Idle))
        }
    }

    /// Replays a retiring instruction's key definition onto the
    /// non-speculative EDM — unless it already completed (a completed
    /// producer imposes no dependence, so resurrecting its binding would
    /// leave a stale entry behind a squash).
    fn retire_edm(&mut self, inst: &Inst, id: InstId) {
        if self.slots[id.index()].state < State::Complete {
            self.edm.retire(inst, id);
        }
    }

    /// The srcID tags an entry carries into the write buffer: only
    /// producers that are still incomplete (the paper's CAM check at
    /// deposit time).
    fn wb_srcs(&self, id: InstId, wb_mode: bool) -> [Option<InstId>; 2] {
        if !wb_mode {
            return [None, None];
        }
        self.slots[id.index()]
            .edep_srcs
            .map(|src| src.filter(|&s| self.window.contains(s)))
    }

    // ---- write buffer ----------------------------------------------------

    fn write_buffer_stage(&mut self) {
        if self.wbuf.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.wb_ready);
        self.wbuf.take_finished_controls(&mut ready);
        for &id in &ready {
            self.complete_inst(id);
        }
        let line = 64;
        let mut drained = 0;
        // Nothing drains while memory refuses requests, so skip the scan.
        if self.mem.can_accept() {
            self.wbuf.drainable(line, &mut ready);
        } else {
            ready.clear();
        }
        for &id in &ready {
            if drained >= self.cfg.wb_drain_per_cycle || !self.mem.can_accept() {
                break;
            }
            let entry = self
                .wbuf
                .entries()
                .iter()
                .find(|e| e.id == id)
                .copied()
                .expect("drainable entry exists");
            let (kind, addr) = match entry.kind {
                WbKind::Store { addr, width, value } => {
                    (ReqKind::StoreDrain { value, width }, addr)
                }
                WbKind::Cvap { addr } => (ReqKind::Cvap, addr),
                _ => continue,
            };
            let Some(req) = self.mem.try_access(kind, addr, self.now) else {
                break;
            };
            self.wbuf.mark_draining(id);
            self.req_map.insert(req, (id, self.slots[id.index()].epoch));
            self.timings[id.index()].effect = self.now;
            self.emit(id, PipeStage::Drain);
            drained += 1;
            self.moved = true;
        }
        self.wb_ready = ready;
    }

    // ---- issue -----------------------------------------------------------

    /// Issues ready instructions; returns the count plus, when nothing
    /// issued, the [`StallCause`] blocking the *oldest* IQ entry.
    fn issue_stage(&mut self) -> (usize, Option<StallCause>) {
        let iq_mode = self.cfg.enforcement != Some(EnforcementPoint::WriteBuffer);
        let mut issued = 0;
        let mut first_block = None;
        let mut i = 0;
        while i < self.iq.len() && issued < self.cfg.issue_width {
            let id = self.iq[i];
            match self.try_issue(id, iq_mode) {
                Ok(()) => {
                    self.iq.remove(i);
                    self.emit(id, PipeStage::Issue);
                    issued += 1;
                }
                Err(cause) => {
                    // The first failure is the oldest entry's: the IQ is
                    // kept in dispatch order and issued entries leave it.
                    if first_block.is_none() {
                        first_block = Some(cause);
                    }
                    i += 1;
                }
            }
        }
        if issued > 0 {
            (issued, None)
        } else {
            (0, first_block.or(Some(StallCause::Idle)))
        }
    }

    /// Attempts to issue one instruction; `Ok` means it left the IQ, an
    /// error carries the cause that held it.
    fn try_issue(&mut self, id: InstId, iq_mode: bool) -> Result<(), StallCause> {
        let slot = &self.slots[id.index()];
        if slot.pending_regs > 0 || slot.state != State::InIq {
            return Err(StallCause::RegWait);
        }
        let inst = self.inst(id).clone();
        let drop_edeps = self.cfg.fault == Some(FaultInjection::DropEdeps);

        // DMB SY: younger memory operations wait at issue.
        if self.window.is(Class::Mem, id) && self.window.has_older(Class::DmbSy, id) {
            return Err(StallCause::Barrier);
        }

        match inst.op {
            Op::Ldr { addr, .. } => {
                // DMB ST is an LSQ barrier (gem5 semantics): younger
                // memory instructions — loads included — wait until it
                // completes. Only DC CVAP sails past it (SU's unsafety).
                if self.window.has_older(Class::DmbSt, id) {
                    return Err(StallCause::Barrier);
                }
                // EDE consumer loads block at issue under both policies
                // (the §VIII-C extension: loads have no write-buffer stage
                // to defer to).
                if slot.edep_pending > 0 {
                    return Err(StallCause::EdkWait);
                }
                // Store-to-load handling against the youngest older
                // in-flight store to this address.
                if let Some(producer) =
                    self.window
                        .older_rev(Class::Store, id)
                        .find(|&s| match self.program[s].op {
                            Op::Str { addr: a, .. } => a == addr,
                            Op::Stp { addr: a, .. } => a == addr || a + 8 == addr,
                            _ => false,
                        })
                {
                    if self.slots[producer.index()].state >= State::Executed {
                        // Forward from the store queue / write buffer.
                        self.slots[id.index()].state = State::Executing;
                        self.timings[id.index()].effect = self.now;
                        self.fu_done
                            .push((self.now + 2, id.0, self.slots[id.index()].epoch));
                        return Ok(());
                    }
                    return Err(StallCause::MemBusy); // store data not ready yet
                }
                if !self.mem.can_accept() {
                    return Err(StallCause::MemBusy);
                }
                let req = self
                    .mem
                    .try_access(ReqKind::Load, addr, self.now)
                    .expect("can_accept checked");
                let slot = &mut self.slots[id.index()];
                slot.state = State::WaitMem;
                self.req_map.insert(req, (id, slot.epoch));
                self.timings[id.index()].effect = self.now;
                Ok(())
            }
            Op::Str { .. } | Op::Stp { .. } => {
                // DMB ST: younger stores wait for older stores to become
                // visible (the gem5 LSQ-barrier behavior; DC CVAP is *not*
                // ordered — SU's unsafety).
                if self.window.has_older(Class::DmbSt, id) {
                    return Err(StallCause::Barrier);
                }
                if iq_mode && slot.edep_pending > 0 {
                    return Err(StallCause::EdkWait);
                }
                self.execute_simple(id)
            }
            Op::DcCvap { .. } => {
                // The LSQ barrier delays a younger CVAP's *issue* like any
                // memory op, but never its persist completion — ordering
                // of the persist itself is exactly what DMB ST lacks.
                if self.window.has_older(Class::DmbSt, id) {
                    return Err(StallCause::Barrier);
                }
                if iq_mode && slot.edep_pending > 0 {
                    return Err(StallCause::EdkWait);
                }
                self.execute_simple(id)
            }
            Op::Join { .. } => {
                if iq_mode && slot.edep_pending > 0 {
                    return Err(StallCause::EdkWait);
                }
                self.execute_simple(id)
            }
            Op::WaitKey { key } => {
                if iq_mode && !drop_edeps && self.window.has_older(Class::Producer(key), id) {
                    return Err(StallCause::EdkWait);
                }
                self.execute_simple(id)
            }
            Op::WaitAllKeys => {
                if iq_mode && !drop_edeps && self.window.has_older(Class::Ede, id) {
                    return Err(StallCause::EdkWait);
                }
                self.execute_simple(id)
            }
            _ => self.execute_simple(id),
        }
    }

    fn execute_simple(&mut self, id: InstId) -> Result<(), StallCause> {
        let slot = &mut self.slots[id.index()];
        slot.state = State::Executing;
        self.fu_done.push((self.now + 1, id.0, slot.epoch));
        Ok(())
    }

    // ---- dispatch ---------------------------------------------------------

    /// Dispatches up to `decode_width` instructions; returns `None` if at
    /// least one dispatched, else the [`StallCause`] that blocked the
    /// front of the fetch queue this cycle.
    fn dispatch_stage(&mut self) -> Option<StallCause> {
        let enforcement = self.cfg.enforcement;
        let mut block = None;
        for (dispatched, _) in (0..self.cfg.decode_width).enumerate() {
            if self.dispatch_block.is_some() {
                if dispatched == 0 {
                    block = Some(StallCause::DsbDispatch);
                }
                break;
            }
            let Some(&id) = self.fetch_q.front() else {
                if dispatched == 0 {
                    block = Some(if self.fetch_ptr < self.program.len() {
                        // Refilling after a squash, or fetch is behind.
                        StallCause::FrontendEmpty
                    } else {
                        // The whole program is already in flight.
                        StallCause::Idle
                    });
                }
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries {
                if dispatched == 0 {
                    block = Some(StallCause::RobFull);
                }
                break;
            }
            if self.iq.len() >= self.cfg.iq_entries {
                if dispatched == 0 {
                    block = Some(StallCause::IqFull);
                }
                break;
            }
            let inst = self.inst(id).clone();
            let kind = inst.kind();
            match kind {
                InstKind::Load if self.lq_used >= self.cfg.lq_entries => {
                    if dispatched == 0 {
                        block = Some(StallCause::LsqFull);
                    }
                    break;
                }
                InstKind::Store | InstKind::Writeback if self.sq_used >= self.cfg.sq_entries => {
                    if dispatched == 0 {
                        block = Some(StallCause::LsqFull);
                    }
                    break;
                }
                _ => {}
            }
            self.fetch_q.pop_front();

            // Reset the slot for (re)dispatch.
            {
                let slot = &mut self.slots[id.index()];
                slot.epoch = slot.epoch.wrapping_add(1);
                slot.state = State::InIq;
                slot.pending_regs = 0;
                slot.edep_pending = 0;
            }
            let epoch = self.slots[id.index()].epoch;

            // Register renaming: capture current producers.
            for src in inst.src_regs() {
                if let Some(p) = self.scoreboard[usize::from(src.index())] {
                    if self.slots[p.index()].state < State::Executed {
                        self.slots[id.index()].pending_regs += 1;
                        self.reg_waiters.push(p, id, epoch);
                    }
                }
            }
            if let Some(dst) = inst.dst_reg() {
                self.scoreboard[usize::from(dst.index())] = Some(id);
            }

            // Issue-time blocking applies under IQ for everything, and for
            // loads under WB.
            let blocks_at_issue = match enforcement {
                Some(EnforcementPoint::IssueQueue) | None => true,
                Some(EnforcementPoint::WriteBuffer) => kind == InstKind::Load,
            };
            // EDM access (§V-A): find consumed dependences, record
            // produced key. The sources fill `srcs` from the front.
            let deps = self.edm.decode(&inst, id);
            let mut srcs: [Option<InstId>; 2] = [None, None];
            let live = deps.sources().filter(|&s| self.window.contains(s));
            for (at, s) in srcs.iter_mut().zip(live) {
                *at = Some(s);
            }
            // An incomplete older WAIT_ALL_KEYS blocks younger consumers.
            // Under WB, stores are held by the WAIT's retire blocking;
            // consumer loads still need the link.
            if blocks_at_issue
                && inst.is_edk_consumer()
                && !matches!(inst.op, Op::WaitKey { .. } | Op::WaitAllKeys)
            {
                if let Some(w) = self.window.youngest_older(Class::WaitAll, id) {
                    if srcs[0] != Some(w) && srcs[1].is_none() {
                        srcs[usize::from(srcs[0].is_some())] = Some(w);
                    }
                }
            }
            // Fault injection: a pipeline that decoded the keys but then
            // forgot to register the dependences.
            if self.cfg.fault == Some(FaultInjection::DropEdeps) {
                srcs = [None, None];
            }
            // Fault injection: exactly one decoded edge is lost (a single
            // missed wakeup, not a wholesale broken tracker).
            if let Some(FaultInjection::DropOneEdep { nth }) = self.cfg.fault {
                for s in srcs.iter_mut().filter(|s| s.is_some()) {
                    if self.edep_edge_count == nth {
                        *s = None;
                    }
                    self.edep_edge_count += 1;
                }
                if srcs[0].is_none() {
                    srcs = [srcs[1], None];
                }
            }
            self.slots[id.index()].edep_srcs = srcs;
            if blocks_at_issue {
                for s in srcs.into_iter().flatten() {
                    self.slots[id.index()].edep_pending += 1;
                    self.edep_waiters.push(s, id, epoch);
                }
            }

            self.window.insert(id);
            if inst.op == Op::DsbSy {
                self.dispatch_block = Some(id);
            }
            match kind {
                InstKind::Load => self.lq_used += 1,
                InstKind::Store | InstKind::Writeback => self.sq_used += 1,
                _ => {}
            }

            self.rob.push_back(id);
            self.iq.push(id);
            self.moved = true;
            self.emit(id, PipeStage::Dispatch);
        }
        // `block` is only ever set on a zero-dispatch cycle, and every
        // zero-dispatch break sets it.
        block
    }

    // ---- fetch & squash ---------------------------------------------------

    fn fetch_stage(&mut self) {
        if self.now < self.fetch_resume {
            return;
        }
        let cap = self.cfg.fetch_width * 2;
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width
            && self.fetch_q.len() < cap
            && self.fetch_ptr < self.program.len()
        {
            self.fetch_q.push_back(InstId(self.fetch_ptr as u64));
            self.fetch_ptr += 1;
            fetched += 1;
            self.moved = true;
        }
    }

    fn squash(&mut self, branch: InstId) {
        self.moved = true;
        self.squashes += 1;
        // Remove every younger instruction from the back of the ROB.
        while let Some(&id) = self.rob.back() {
            if id <= branch {
                break;
            }
            self.rob.pop_back();
            match self.inst(id).kind() {
                InstKind::Load => self.lq_used -= 1,
                InstKind::Store | InstKind::Writeback => self.sq_used -= 1,
                _ => {}
            }
            let slot = &mut self.slots[id.index()];
            slot.state = State::NotDispatched;
            // Invalidate in-flight FU/memory events for the squashed
            // incarnation immediately (not only at re-dispatch).
            slot.epoch = slot.epoch.wrapping_add(1);
            self.emit(id, PipeStage::Squash);
        }
        self.iq.retain(|&i| i <= branch);
        self.fetch_q.clear();
        for p in &mut self.scoreboard {
            if p.is_some_and(|p| p > branch) {
                *p = None;
            }
        }
        self.window.squash_younger(branch);
        // §V-A1: restore the speculative EDM from the non-speculative
        // copy, then repair it. Older un-retired producers live in the
        // ROB but not in the non-speculative map; replay their key
        // definitions in order.
        self.edm.squash();
        for &id in &self.rob {
            if self.slots[id.index()].state < State::Complete {
                self.edm.replay_spec(&self.program[id], id);
            }
        }
        if matches!(self.dispatch_block, Some(d) if d > branch) {
            self.dispatch_block = None;
        }
        self.fetch_ptr = (branch.0 + 1) as usize;
        self.fetch_resume = self.now + self.cfg.mispredict_penalty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::FixedLatencyMem;
    use ede_core::ordering::OrderRelaxation;
    use ede_isa::{Edk, TraceBuilder};

    const LOAD_LAT: u64 = 10;
    const ACK_LAT: u64 = 50;

    fn run_trace(program: Program, enforcement: Option<EnforcementPoint>) -> RunStats {
        let mut cfg = CpuConfig::a72();
        cfg.enforcement = enforcement;
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(cfg, program, mem);
        core.run(1_000_000).expect("trace terminates")
    }

    fn check_exec_deps(program: &Program, stats: &RunStats) {
        let v = ede_core::ordering::check(program, &stats.timings, OrderRelaxation::NONE);
        assert!(v.is_empty(), "execution-dependence violations: {v:?}");
    }

    /// Runs `program` twice — fast-forward on and off — with a tracer
    /// attached, and returns both outcomes plus the fast path's trace,
    /// the reference trace, and the number of spans the fast path took.
    #[allow(clippy::type_complexity)]
    fn run_differential(
        program: Program,
        enforcement: Option<EnforcementPoint>,
        max_cycles: u64,
    ) -> (
        Result<RunStats, CoreError>,
        Result<RunStats, CoreError>,
        (Vec<crate::trace::TraceEvent>, u64),
        (Vec<crate::trace::TraceEvent>, u64),
        u64,
    ) {
        let mut spans = 0;
        let mut outs = Vec::new();
        for fast in [true, false] {
            let mut cfg = CpuConfig::a72();
            cfg.enforcement = enforcement;
            cfg.fast_forward = fast;
            let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
            let mut core = Core::new(cfg, program.clone(), mem);
            core.set_tracer(Tracer::new(crate::trace::TracerConfig::default()));
            let res = core.run(max_cycles);
            let tr = core.take_tracer().unwrap();
            let dropped = tr.dropped();
            if fast {
                spans = core.fast_forward_spans();
            }
            outs.push((res, (tr.events().copied().collect::<Vec<_>>(), dropped)));
        }
        let (ref_res, ref_tr) = outs.pop().unwrap();
        let (fast_res, fast_tr) = outs.pop().unwrap();
        (fast_res, ref_res, fast_tr, ref_tr, spans)
    }

    /// An idle-heavy trace: persists with a DSB SY between them, so the
    /// core spends most of its time blocked on the 50-cycle persist ack.
    fn idle_heavy_trace() -> Program {
        let mut b = TraceBuilder::new();
        for i in 0..4u64 {
            b.store(0x40 + i * 0x40, i);
            b.cvap(0x40 + i * 0x40);
            b.dsb_sy();
        }
        b.finish()
    }

    #[test]
    fn fast_forward_skips_but_stats_are_identical() {
        let (fast, reference, _, _, spans) = run_differential(idle_heavy_trace(), None, 1_000_000);
        assert!(spans > 0, "idle-heavy trace must trigger fast-forward");
        assert_eq!(fast.unwrap(), reference.unwrap());
    }

    #[test]
    fn fast_forward_trace_streams_are_identical() {
        let (_, _, fast, reference, spans) = run_differential(idle_heavy_trace(), None, 1_000_000);
        assert!(spans > 0);
        assert_eq!(fast.1, reference.1, "dropped counts differ");
        assert_eq!(fast.0, reference.0, "trace event streams differ");
    }

    #[test]
    fn fast_forward_cycle_limit_is_identical() {
        // A limit that lands inside a quiet span: both paths must report
        // the same CycleLimit error at the same cycle.
        let (fast, reference, _, _, _) = run_differential(idle_heavy_trace(), None, 70);
        assert_eq!(fast.unwrap_err(), reference.unwrap_err());
        assert!(matches!(
            run_differential(idle_heavy_trace(), None, 70)
                .0
                .unwrap_err(),
            CoreError::CycleLimit { .. }
        ));
    }

    #[test]
    fn fast_forward_off_takes_no_spans() {
        let mut cfg = CpuConfig::a72();
        cfg.fast_forward = false;
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(cfg, idle_heavy_trace(), mem);
        core.run(1_000_000).unwrap();
        assert_eq!(core.fast_forward_spans(), 0);
        assert_eq!(core.fast_forward_skipped(), 0);
    }

    #[test]
    fn fast_forward_respects_sampling_in_synthesized_trace() {
        // With sample_every > 1 the synthesized quiet-span events must
        // appear only at sampled cycles, and with sample_every 0 not at
        // all, exactly as per-cycle ticking would emit them.
        let sampled = crate::trace::TracerConfig {
            capacity: 1 << 16,
            sample_every: 7,
        };
        for tracer in [sampled, crate::trace::TracerConfig::STAGES] {
            let mut outs = Vec::new();
            for fast in [true, false] {
                let mut cfg = CpuConfig::a72();
                cfg.fast_forward = fast;
                let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
                let mut core = Core::new(cfg, idle_heavy_trace(), mem);
                core.set_tracer(Tracer::new(tracer));
                core.run(1_000_000).unwrap();
                let tr = core.take_tracer().unwrap();
                outs.push((tr.events().copied().collect::<Vec<_>>(), tr.dropped()));
            }
            assert_eq!(outs[0], outs[1], "{tracer:?}");
        }
    }

    #[test]
    fn fast_forward_quiet_histogram_matches_reference() {
        let (fast, reference, _, _, spans) = run_differential(idle_heavy_trace(), None, 1_000_000);
        assert!(spans > 0);
        let (f, r) = (fast.unwrap(), reference.unwrap());
        assert_eq!(f.quiet_hist, r.quiet_hist);
        assert_eq!(f.max_quiet_streak, r.max_quiet_streak);
    }

    #[test]
    fn due_fu_results_are_handled_in_id_order_and_stale_ones_skipped() {
        let mut b = TraceBuilder::new();
        for _ in 0..4 {
            b.nop();
        }
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(CpuConfig::a72(), b.finish(), mem);
        core.set_tracer(Tracer::new(crate::trace::TracerConfig::default()));
        for slot in &mut core.slots[..3] {
            (slot.state, slot.epoch) = (State::Executing, 1);
        }
        // Due results pushed out of id order; id 1's is from a squashed
        // incarnation, and id 3's is not due yet.
        core.fu_done = vec![(1, 2, 1), (2, 3, 1), (1, 1, 0), (1, 0, 1)];
        core.now = 1;
        core.handle_fu_completions();
        let executed: Vec<u64> = core
            .take_tracer()
            .unwrap()
            .events()
            .filter_map(|e| match e.kind {
                crate::trace::TraceEventKind::Stage {
                    id,
                    stage: PipeStage::Executed,
                } => Some(id.0),
                _ => None,
            })
            .collect();
        assert_eq!(executed, [0, 2]);
        assert_eq!(core.slots[1].state, State::Executing);
        assert_eq!(core.fu_done, [(2, 3, 1)]);
        assert!(core.moved);
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let stats = run_trace(Program::new(), None);
        assert_eq!(stats.retired, 0);
    }

    #[test]
    fn alu_chain_serializes() {
        let mut b = TraceBuilder::new();
        b.compute_chain(10);
        let stats = run_trace(b.finish(), None);
        assert_eq!(stats.retired, 10);
        // A serial chain takes at least one cycle per instruction.
        assert!(stats.cycles >= 10);
    }

    #[test]
    fn independent_alus_issue_in_parallel() {
        let mut b = TraceBuilder::new();
        for i in 0..30 {
            b.mov_imm(i);
        }
        let stats = run_trace(b.finish(), None);
        assert_eq!(stats.retired, 30);
        // 3-wide decode bounds the rate; must still beat fully serial.
        assert!(stats.cycles < 30, "took {} cycles", stats.cycles);
    }

    #[test]
    fn load_latency_observed() {
        let mut b = TraceBuilder::new();
        let r = b.load(0x40, 7);
        let _ = r;
        let stats = run_trace(b.finish(), None);
        assert!(stats.cycles >= LOAD_LAT);
    }

    #[test]
    fn store_completes_after_drain() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 7);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let str_timing = stats.timings[2];
        assert!(str_timing.complete >= str_timing.effect + LOAD_LAT);
    }

    #[test]
    fn dsb_waits_for_persist_ack() {
        // str; cvap; dsb; mov — the mov retires only after the ack.
        let mut b = TraceBuilder::new();
        b.store(0x40, 7);
        b.cvap(0x40);
        b.dsb_sy();
        b.mov_imm(1);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let cvap_idx = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Writeback)
            .unwrap()
            .0;
        let mov_idx = InstId(p.len() as u64 - 1);
        let cvap_complete = stats.timings[cvap_idx.index()].complete;
        let mov_effect = stats.timings[mov_idx.index()].effect;
        assert!(
            mov_effect >= cvap_complete,
            "mov executed at {mov_effect}, before cvap ack at {cvap_complete}"
        );
        // And the ack carried the full cvap latency.
        assert!(cvap_complete >= ACK_LAT);
    }

    #[test]
    fn without_dsb_younger_alu_overlaps_persist() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 7);
        b.cvap(0x40);
        b.mov_imm(1);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let cvap_idx = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Writeback)
            .unwrap()
            .0;
        let mov_idx = InstId(p.len() as u64 - 1);
        assert!(
            stats.timings[mov_idx.index()].effect < stats.timings[cvap_idx.index()].complete,
            "mov should not wait for the persist ack"
        );
    }

    fn two_update_trace(arch_ede: bool, fence: bool) -> Program {
        // Two independent log-persist → data-store pairs (the Figure 8
        // pattern), either fenced, EDE-linked, or unordered.
        let mut b = TraceBuilder::new();
        for i in 0..2u64 {
            let log = 0x1000 + i * 0x400;
            let data = 0x2000 + i * 0x400;
            if arch_ede {
                let k = Edk::new((i + 1) as u8).unwrap();
                b.cvap_producing(log, k);
                b.store_consuming(data, 7, k);
                b.cvap(data);
            } else {
                b.cvap(log);
                if fence {
                    b.dsb_sy();
                }
                b.store(data, 7);
                b.cvap(data);
            }
        }
        b.finish()
    }

    #[test]
    fn ede_iq_faster_than_dsb_and_honors_deps() {
        let fenced = run_trace(two_update_trace(false, true), None);
        let iq_prog = two_update_trace(true, false);
        let iq = run_trace(iq_prog.clone(), Some(EnforcementPoint::IssueQueue));
        check_exec_deps(&iq_prog, &iq);
        assert!(
            iq.cycles < fenced.cycles,
            "IQ {} !< fenced {}",
            iq.cycles,
            fenced.cycles
        );
    }

    #[test]
    fn ede_wb_at_least_as_fast_as_iq_and_honors_deps() {
        let prog = two_update_trace(true, false);
        let iq = run_trace(prog.clone(), Some(EnforcementPoint::IssueQueue));
        let wb = run_trace(prog.clone(), Some(EnforcementPoint::WriteBuffer));
        check_exec_deps(&prog, &wb);
        assert!(
            wb.cycles <= iq.cycles,
            "WB {} > IQ {}",
            wb.cycles,
            iq.cycles
        );
    }

    #[test]
    fn unsafe_config_fastest() {
        let unordered = run_trace(two_update_trace(false, false), None);
        let fenced = run_trace(two_update_trace(false, true), None);
        assert!(unordered.cycles < fenced.cycles);
    }

    #[test]
    fn iq_consumer_waits_for_producer_ack() {
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.cvap_producing(0x40, k);
        b.store_consuming(0x1040, 7, k);
        let p = b.finish();
        let stats = run_trace(p.clone(), Some(EnforcementPoint::IssueQueue));
        check_exec_deps(&p, &stats);
    }

    #[test]
    fn wb_consumer_retires_early_but_drains_late() {
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.cvap_producing(0x40, k);
        b.store_consuming(0x1040, 7, k);
        let p = b.finish();
        let stats = run_trace(p.clone(), Some(EnforcementPoint::WriteBuffer));
        check_exec_deps(&p, &stats);
        // The consumer's drain (effect) must follow the producer ack.
        let cvap = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Writeback)
            .unwrap()
            .0;
        let store = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Store)
            .unwrap()
            .0;
        assert!(stats.timings[store.index()].effect >= stats.timings[cvap.index()].complete);
    }

    #[test]
    fn join_waits_for_both_producers() {
        let mut b = TraceBuilder::new();
        let k1 = Edk::new(1).unwrap();
        let k2 = Edk::new(2).unwrap();
        let k3 = Edk::new(3).unwrap();
        b.cvap_producing(0x40, k1);
        b.cvap_producing(0x1040, k2);
        b.join(k3, k1, k2);
        b.store_consuming(0x2040, 9, k3);
        let p = b.finish();
        for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
            let stats = run_trace(p.clone(), Some(point));
            check_exec_deps(&p, &stats);
        }
    }

    #[test]
    fn wait_key_orders_after_all_producers_of_key() {
        let mut b = TraceBuilder::new();
        let k = Edk::new(4).unwrap();
        b.cvap_producing(0x40, k);
        b.cvap_producing(0x1040, k);
        b.wait_key(k);
        b.store_consuming(0x2040, 9, k);
        let p = b.finish();
        for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
            let stats = run_trace(p.clone(), Some(point));
            check_exec_deps(&p, &stats);
        }
    }

    #[test]
    fn wait_all_keys_orders_everything() {
        let mut b = TraceBuilder::new();
        let k1 = Edk::new(1).unwrap();
        let k2 = Edk::new(2).unwrap();
        b.cvap_producing(0x40, k1);
        b.cvap_producing(0x1040, k2);
        b.wait_all_keys();
        b.store_consuming(0x2040, 9, k1);
        let p = b.finish();
        for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
            let stats = run_trace(p.clone(), Some(point));
            check_exec_deps(&p, &stats);
        }
    }

    #[test]
    fn mispredicted_branch_squashes_and_recovers() {
        let mut b = TraceBuilder::new();
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
        for i in 0..10 {
            b.mov_imm(i);
        }
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        assert_eq!(stats.squashes, 1);
        assert_eq!(stats.retired, p.len() as u64);
        // The refetch penalty must be visible.
        assert!(stats.cycles > 15);
    }

    #[test]
    fn squash_restores_edm() {
        // Producer before the branch; consumer after. The squash must not
        // lose the link (non-speculative EDM preserves retired producers;
        // un-retired ones are re-decoded on refetch).
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        b.cvap_producing(0x40, k);
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
        b.store_consuming(0x1040, 7, k);
        let p = b.finish();
        for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
            let stats = run_trace(p.clone(), Some(point));
            assert_eq!(stats.squashes, 1);
            check_exec_deps(&p, &stats);
        }
    }

    #[test]
    fn dmb_st_orders_store_visibility() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1);
        b.dmb_st();
        b.store(0x1040, 2);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let first = p
            .iter()
            .filter(|(_, i)| i.kind() == InstKind::Store)
            .map(|(i, _)| i)
            .next()
            .unwrap();
        let second = p
            .iter()
            .filter(|(_, i)| i.kind() == InstKind::Store)
            .map(|(i, _)| i)
            .nth(1)
            .unwrap();
        assert!(
            stats.timings[second.index()].effect >= stats.timings[first.index()].complete,
            "younger store drained before older completed"
        );
    }

    #[test]
    fn dmb_st_does_not_order_cvap() {
        // The SU unsafety: a cvap after a DMB ST may drain before older
        // stores complete.
        let mut b = TraceBuilder::new();
        b.store(0x40, 1);
        b.cvap(0x40);
        b.dmb_st();
        b.store(0x1040, 2);
        b.cvap(0x1040);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        assert_eq!(stats.retired, p.len() as u64);
    }

    #[test]
    fn dmb_sy_orders_memory_ops() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 1);
        b.dmb_sy();
        b.load(0x1040, 0);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let store = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Store)
            .unwrap()
            .0;
        let load = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Load)
            .unwrap()
            .0;
        assert!(stats.timings[load.index()].effect >= stats.timings[store.index()].complete);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = TraceBuilder::new();
        b.store(0x40, 99);
        b.load(0x40, 99);
        let p = b.finish();
        let stats = run_trace(p.clone(), None);
        let load = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Load)
            .unwrap()
            .0;
        let store = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Store)
            .unwrap()
            .0;
        // Forwarded: load executed before the store's drain completed.
        assert!(stats.timings[load.index()].complete <= stats.timings[store.index()].complete + 2);
    }

    #[test]
    fn stall_attribution_conserves_cycles() {
        for (prog, enf) in [
            (two_update_trace(false, true), None),
            (
                two_update_trace(true, false),
                Some(EnforcementPoint::IssueQueue),
            ),
            (
                two_update_trace(true, false),
                Some(EnforcementPoint::WriteBuffer),
            ),
        ] {
            let stats = run_trace(prog, enf);
            assert!(
                stats.attribution.conserved(stats.cycles),
                "attribution must sum to {} cycles: {:?}",
                stats.cycles,
                stats.attribution
            );
        }
    }

    #[test]
    fn tracer_captures_stage_events_and_stalls() {
        use crate::trace::{TraceEventKind, Tracer, TracerConfig};
        let mut b = TraceBuilder::new();
        b.store(0x40, 7);
        b.cvap(0x40);
        b.dsb_sy();
        b.mov_imm(1);
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(CpuConfig::a72(), b.finish(), mem);
        core.set_tracer(Tracer::new(TracerConfig::default()));
        let stats = core.run(1_000_000).expect("terminates");
        let tr = core.take_tracer().expect("tracer attached");
        let retires = tr
            .events()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::Stage {
                        stage: PipeStage::Retire,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(retires, stats.retired);
        // The DSB SY forces a drain wait, which must surface as a
        // sampled stall event.
        assert!(tr
            .events()
            .any(|e| matches!(e.kind, TraceEventKind::Stall { .. })));
        assert!(tr
            .events()
            .any(|e| matches!(e.kind, TraceEventKind::Occupancy { .. })));
    }

    #[test]
    fn untraced_core_buffers_nothing() {
        let mut b = TraceBuilder::new();
        b.compute_chain(5);
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(CpuConfig::a72(), b.finish(), mem);
        core.run(1_000_000).expect("terminates");
        assert!(core.take_tracer().is_none());
    }

    #[test]
    fn issue_histogram_accounts_all_cycles() {
        let mut b = TraceBuilder::new();
        b.compute_chain(20);
        let stats = run_trace(b.finish(), None);
        assert_eq!(stats.issue_hist.cycles(), stats.cycles);
    }

    #[test]
    fn cycle_limit_error() {
        let mut b = TraceBuilder::new();
        b.compute_chain(100);
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(CpuConfig::a72(), b.finish(), mem);
        let err = core.run(3).unwrap_err();
        assert!(matches!(err, CoreError::CycleLimit { .. }));
        assert!(err.to_string().contains("cycle limit"));
    }

    #[test]
    fn watchdog_names_wait_key_deadlock() {
        // A stuck DC CVAP never acknowledges, so the WAIT_KEY on its key
        // can never retire under WB enforcement. The watchdog must end
        // the run well under the cycle limit and name both the waiting
        // instruction and the key.
        let mut b = TraceBuilder::new();
        let k = Edk::new(3).unwrap();
        let nvm = 0x1_0000_0000;
        b.store(nvm, 7);
        b.cvap_producing(nvm, k);
        b.wait_key(k);
        let p = b.finish();
        let mut cfg = CpuConfig::a72().with_enforcement(EnforcementPoint::WriteBuffer);
        cfg.watchdog_cycles = 10_000;
        let mut mem_cfg = ede_mem::MemConfig::a72_hybrid();
        mem_cfg.fault = Some(FaultInjection::StuckCvap { nth: 0 });
        let mut core = Core::new(cfg, p.clone(), ede_mem::MemSystem::new(mem_cfg));
        let err = core.run(2_000_000_000).unwrap_err();
        let CoreError::Deadlock {
            at,
            inst,
            op,
            stage,
            cause,
            ..
        } = err
        else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert!(at < 100_000, "watchdog fired at cycle {at}, far too late");
        let wait = p
            .iter()
            .find(|(_, i)| matches!(i.op, Op::WaitKey { .. }))
            .unwrap()
            .0;
        assert_eq!(inst, Some(wait));
        assert_eq!(op, "WAIT_KEY");
        assert_eq!(stage, "retire");
        assert_eq!(cause, WaitCause::EdeKey(k));
        assert!(err.to_string().contains("WAIT_KEY"));
        assert!(err.to_string().contains("k3"));
    }

    #[test]
    fn watchdog_diagnoses_dsb_hang() {
        // Baseline shape: the DSB SY waits for the stuck persist ack.
        let mut b = TraceBuilder::new();
        let nvm = 0x1_0000_0000;
        b.store(nvm, 7);
        b.cvap(nvm);
        b.dsb_sy();
        b.mov_imm(1);
        let p = b.finish();
        let mut cfg = CpuConfig::a72();
        cfg.watchdog_cycles = 10_000;
        let mut mem_cfg = ede_mem::MemConfig::a72_hybrid();
        mem_cfg.fault = Some(FaultInjection::StuckCvap { nth: 0 });
        let mut core = Core::new(cfg, p.clone(), ede_mem::MemSystem::new(mem_cfg));
        let err = core.run(2_000_000_000).unwrap_err();
        let CoreError::Deadlock { op, cause, .. } = err else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert_eq!(op, "DSB SY");
        let cvap = p
            .iter()
            .find(|(_, i)| i.kind() == InstKind::Writeback)
            .unwrap()
            .0;
        assert_eq!(cause, WaitCause::OlderIncomplete(cvap));
    }

    #[test]
    fn watchdog_disabled_falls_back_to_cycle_limit() {
        let mut b = TraceBuilder::new();
        let nvm = 0x1_0000_0000;
        b.store(nvm, 7);
        b.cvap(nvm);
        b.dsb_sy();
        let mut cfg = CpuConfig::a72();
        cfg.watchdog_cycles = 0;
        let mut mem_cfg = ede_mem::MemConfig::a72_hybrid();
        mem_cfg.fault = Some(FaultInjection::StuckCvap { nth: 0 });
        let mut core = Core::new(cfg, b.finish(), ede_mem::MemSystem::new(mem_cfg));
        let err = core.run(50_000).unwrap_err();
        assert!(matches!(err, CoreError::CycleLimit { .. }));
    }

    #[test]
    fn drop_one_edep_unblocks_exactly_one_consumer() {
        // Two producer→consumer pairs; dropping edge 0 must break the
        // first pair's ordering while the second stays enforced.
        let p = two_update_trace(true, false);
        let mut cfg = CpuConfig::a72().with_enforcement(EnforcementPoint::IssueQueue);
        cfg.fault = Some(FaultInjection::DropOneEdep { nth: 0 });
        let mem = FixedLatencyMem::new(LOAD_LAT, ACK_LAT);
        let mut core = Core::new(cfg, p.clone(), mem);
        let stats = core.run(1_000_000).expect("terminates");
        let v = ede_core::ordering::check(&p, &stats.timings, OrderRelaxation::NONE);
        assert_eq!(v.len(), 1, "exactly one violated dependence, got {v:?}");
    }

    #[test]
    fn ede_load_consumer_extension() {
        // Hazard-pointer shape: str (1,0) then ldr (0,1) — the load must
        // not execute before the store is visible.
        let mut b = TraceBuilder::new();
        let k = Edk::new(1).unwrap();
        let base = b.lea(0x2040);
        b.store_to_edk(base, 0x2040, 5, ede_isa::EdkPair::producer(k));
        b.release(base);
        let base2 = b.lea(0x4040);
        b.load_from_edk(base2, 0x4040, 0, ede_isa::EdkPair::consumer(k));
        b.release(base2);
        let p = b.finish();
        for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
            let stats = run_trace(p.clone(), Some(point));
            check_exec_deps(&p, &stats);
        }
    }
}
