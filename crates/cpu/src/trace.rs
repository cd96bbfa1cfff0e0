//! Cycle-accurate stall attribution and event tracing.
//!
//! The paper's argument is about *where cycles go*: a `DSB SY` stalls
//! dispatch, an EDE consumer waits at the issue queue (IQ) or holds a
//! write-buffer slot (WB). This module gives every pipeline stage a
//! complete, typed account of each cycle:
//!
//! * [`StallCause`] — the closed taxonomy of reasons a stage made no
//!   progress in a cycle. There is deliberately **no** `Unattributed`
//!   variant: every blocked cycle must classify, and the conservation
//!   invariant (`cycles == busy + Σ causes`, per stage) is checked by
//!   the property suite in `tests/conservation.rs`.
//! * [`StallTable`] — per-stage busy/cause counters, recorded exactly
//!   once per stage per [`Core::tick`](crate::Core::tick), so
//!   conservation holds *by construction*.
//! * [`Tracer`] — the core's one optional event sink: a bounded ring of
//!   [`TraceEvent`]s. Stage transitions ([`PipeStage`]) are the
//!   semantic stream and are never sampled away; stall, occupancy and
//!   quiet samples are recorded every `sample_every` cycles, or not at
//!   all when `sample_every` is 0. [`TracerConfig::STAGES`] keeps every
//!   stage event and nothing else — the stream the conformance checker,
//!   the Chrome timeline and `pipeview` read. Attribution counters are
//!   always on (a handful of array increments per cycle); the ring is
//!   `Option`-gated and allocates nothing unless attached, so the
//!   untraced path stays unchanged.
//!
//! # Example
//!
//! ```
//! use ede_cpu::trace::{StageId, StallCause, StallTable};
//!
//! let mut t = StallTable::default();
//! for stage in StageId::ALL {
//!     t.record(stage, Some(StallCause::Idle));
//!     t.record(stage, None); // made progress: busy
//! }
//! assert_eq!(t.stage(StageId::Retire).total(), 2);
//! assert!(t.conserved(2));
//! ```

use ede_isa::InstId;
use std::collections::VecDeque;
use std::fmt;

/// A pipeline transition of one instruction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PipeStage {
    /// Entered the ROB/issue queue.
    Dispatch,
    /// Left the issue queue for a functional unit or the memory system.
    Issue,
    /// Result produced (writeback).
    Executed,
    /// Left the ROB.
    Retire,
    /// Write-buffer entry pushed to the memory system.
    Drain,
    /// Complete in the EDE sense.
    Complete,
    /// Squashed by a misprediction (the instruction will re-dispatch).
    Squash,
}

impl fmt::Display for PipeStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PipeStage::Dispatch => "dispatch",
            PipeStage::Issue => "issue",
            PipeStage::Executed => "executed",
            PipeStage::Retire => "retire",
            PipeStage::Drain => "drain",
            PipeStage::Complete => "complete",
            PipeStage::Squash => "squash",
        };
        f.write_str(s)
    }
}

/// A pipeline stage that receives per-cycle stall attribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageId {
    /// Decode/rename/dispatch into the ROB and issue queue.
    Dispatch,
    /// Selection out of the issue queue into functional units / memory.
    Issue,
    /// In-order retirement from the ROB head.
    Retire,
}

impl StageId {
    /// Every attributed stage.
    pub const ALL: [StageId; 3] = [StageId::Dispatch, StageId::Issue, StageId::Retire];

    /// Lower-case name used in metrics keys and JSON documents.
    pub fn label(self) -> &'static str {
        match self {
            StageId::Dispatch => "dispatch",
            StageId::Issue => "issue",
            StageId::Retire => "retire",
        }
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a stage made no progress in one cycle.
///
/// One cause per stage per cycle — the *first* blocking condition in the
/// stage's own evaluation order, i.e. the same condition that actually
/// broke the stage's loop. The set is closed: a blocked cycle that fits
/// no variant is a bug, and there is no catch-all to hide it in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallCause {
    /// Nothing to do: no instructions at this stage (program drained,
    /// or the window is empty).
    Idle,
    /// Dispatch: the fetch queue is empty mid-program (refilling after a
    /// squash, or fetch is behind).
    FrontendEmpty,
    /// Dispatch: blocked behind a dispatched-but-unretired `DSB SY`.
    DsbDispatch,
    /// Dispatch: reorder buffer full.
    RobFull,
    /// Dispatch: issue queue full.
    IqFull,
    /// Dispatch: load or store queue full.
    LsqFull,
    /// Issue: the oldest ready candidate waits on register operands.
    RegWait,
    /// Issue/retire: waiting on an EDE execution dependence — a consumer
    /// whose producer has not completed, or a `WAIT_KEY` /
    /// `WAIT_ALL_KEYS` with outstanding producers (the EDK-key wait).
    EdkWait,
    /// Issue: ordered behind a live `DMB SY` / `DMB ST` barrier.
    Barrier,
    /// Issue: the memory system refused the request (MSHRs exhausted) or
    /// forwarded store data is not ready yet.
    MemBusy,
    /// Retire: the ROB head is still executing in a functional unit.
    ExecWait,
    /// Retire: the ROB head waits on a memory response (cache miss or
    /// persist acknowledgement in flight).
    MemWait,
    /// Retire: a `DSB SY` at the head drains older instructions,
    /// store visibility, and persist acknowledgements.
    DsbDrain,
    /// Retire: no free write-buffer slot for a store / `DC CVAP` / JOIN.
    WbFull,
}

impl StallCause {
    /// Every cause, in the order used for counter arrays and JSON.
    pub const ALL: [StallCause; 14] = [
        StallCause::Idle,
        StallCause::FrontendEmpty,
        StallCause::DsbDispatch,
        StallCause::RobFull,
        StallCause::IqFull,
        StallCause::LsqFull,
        StallCause::RegWait,
        StallCause::EdkWait,
        StallCause::Barrier,
        StallCause::MemBusy,
        StallCause::ExecWait,
        StallCause::MemWait,
        StallCause::DsbDrain,
        StallCause::WbFull,
    ];

    /// Number of causes (array size for per-cause counters).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in metrics keys and JSON documents.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Idle => "idle",
            StallCause::FrontendEmpty => "frontend_empty",
            StallCause::DsbDispatch => "dsb_dispatch",
            StallCause::RobFull => "rob_full",
            StallCause::IqFull => "iq_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::RegWait => "reg_wait",
            StallCause::EdkWait => "edk_wait",
            StallCause::Barrier => "barrier",
            StallCause::MemBusy => "mem_busy",
            StallCause::ExecWait => "exec_wait",
            StallCause::MemWait => "mem_wait",
            StallCause::DsbDrain => "dsb_drain",
            StallCause::WbFull => "wb_full",
        }
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("cause is in ALL")
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Busy/stall counters for one stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StageStalls {
    /// Cycles in which the stage made progress.
    pub busy: u64,
    causes: [u64; StallCause::COUNT],
}

impl StageStalls {
    /// Cycles attributed to `cause`.
    pub fn cause(&self, cause: StallCause) -> u64 {
        self.causes[cause.index()]
    }

    /// Total stalled cycles (all causes, `Idle` included).
    pub fn stalled(&self) -> u64 {
        self.causes.iter().sum()
    }

    /// Total attributed cycles: busy + every cause.
    pub fn total(&self) -> u64 {
        self.busy + self.stalled()
    }

    /// `(cause, cycles)` pairs in taxonomy order, zeros included.
    pub fn breakdown(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(|&c| (c, self.cause(c)))
    }
}

/// The per-stage attribution table.
///
/// Filled by [`Core::tick`](crate::Core::tick): each stage records
/// exactly one entry per cycle (busy, or one [`StallCause`]), so for a
/// core driven only by `run`/`tick`, [`conserved`](Self::conserved)
/// holds identically.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StallTable {
    dispatch: StageStalls,
    issue: StageStalls,
    retire: StageStalls,
}

impl StallTable {
    /// The counters for one stage.
    pub fn stage(&self, stage: StageId) -> &StageStalls {
        match stage {
            StageId::Dispatch => &self.dispatch,
            StageId::Issue => &self.issue,
            StageId::Retire => &self.retire,
        }
    }

    /// Records one cycle for `stage`: `None` = progress (busy),
    /// `Some(cause)` = blocked by `cause`.
    pub fn record(&mut self, stage: StageId, blocked: Option<StallCause>) {
        let s = match stage {
            StageId::Dispatch => &mut self.dispatch,
            StageId::Issue => &mut self.issue,
            StageId::Retire => &mut self.retire,
        };
        match blocked {
            None => s.busy += 1,
            Some(cause) => s.causes[cause.index()] += 1,
        }
    }

    /// Credits `cycles` consecutive blocked cycles to `(stage, cause)`
    /// in one O(1) update — exactly equivalent to `cycles` calls of
    /// [`record`](Self::record) with `Some(cause)`.
    ///
    /// Used by the fast-forward kernel: a skipped quiet span is, by
    /// construction, a run of cycles in which each stage was blocked by
    /// one constant cause, so the span's width lands on that cause
    /// wholesale and [`conserved`](Self::conserved) still holds.
    pub fn record_span(&mut self, stage: StageId, cause: StallCause, cycles: u64) {
        let s = match stage {
            StageId::Dispatch => &mut self.dispatch,
            StageId::Issue => &mut self.issue,
            StageId::Retire => &mut self.retire,
        };
        s.causes[cause.index()] += cycles;
    }

    /// Whether every stage's attributed total equals `cycles` — the
    /// conservation invariant (`cycles == busy + Σ stall causes`).
    pub fn conserved(&self, cycles: u64) -> bool {
        StageId::ALL.iter().all(|&s| self.stage(s).total() == cycles)
    }

    /// Reports every counter into a metrics registry under
    /// `cpu.stall.<stage>.busy` / `cpu.stall.<stage>.<cause>`.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        for stage in StageId::ALL {
            let s = self.stage(stage);
            reg.inc(&format!("cpu.stall.{}.busy", stage.label()), s.busy);
            for (cause, cycles) in s.breakdown() {
                reg.inc(
                    &format!("cpu.stall.{}.{}", stage.label(), cause.label()),
                    cycles,
                );
            }
        }
    }
}

/// One entry in the [`Tracer`] ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEventKind {
    /// An instruction crossed a pipeline stage boundary.
    Stage {
        /// The instruction.
        id: InstId,
        /// The transition it made.
        stage: PipeStage,
    },
    /// A stage made no progress this cycle (sampled).
    Stall {
        /// The blocked stage.
        stage: StageId,
        /// Why it was blocked.
        cause: StallCause,
    },
    /// Queue depths at the end of a cycle (sampled).
    Occupancy {
        /// Reorder-buffer entries in use.
        rob: u32,
        /// Issue-queue entries in use.
        iq: u32,
        /// Write-buffer entries in use.
        wb: u32,
    },
    /// The progress watchdog saw no forward progress for `streak`
    /// consecutive cycles (sampled while quiet).
    Quiet {
        /// Length of the no-progress streak ending this cycle.
        streak: u64,
    },
}

/// A timestamped trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The cycle the event occurred in.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Knobs for the [`Tracer`] ring.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TracerConfig {
    /// Maximum buffered events; when full, the *oldest* are dropped (and
    /// counted), so the tail of a run is always retained.
    pub capacity: usize,
    /// Record sampled kinds (stalls, occupancy, quiet) only every this
    /// many cycles; 1 = every cycle, 0 = never. Stage transitions are
    /// never sampled away — they are the semantic event stream.
    pub sample_every: u64,
}

impl TracerConfig {
    /// Every stage transition of a run and nothing else: unbounded, so
    /// nothing is dropped, and no sampled kinds.
    pub const STAGES: TracerConfig = TracerConfig {
        capacity: usize::MAX,
        sample_every: 0,
    };
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            capacity: 1 << 16,
            sample_every: 1,
        }
    }
}

/// A bounded ring of [`TraceEvent`]s attached to a core with
/// [`Core::set_tracer`](crate::Core::set_tracer).
#[derive(Clone, Debug)]
pub struct Tracer {
    cfg: TracerConfig,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// An empty tracer with the given knobs.
    pub fn new(cfg: TracerConfig) -> Tracer {
        Tracer {
            ring: VecDeque::new(),
            cfg,
            dropped: 0,
        }
    }

    fn sampled(&self, cycle: u64) -> bool {
        self.cfg.sample_every != 0 && cycle.is_multiple_of(self.cfg.sample_every)
    }

    /// Pushes an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cfg.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    pub(crate) fn stage(&mut self, cycle: u64, id: InstId, stage: PipeStage) {
        self.push(TraceEvent {
            cycle,
            kind: TraceEventKind::Stage { id, stage },
        });
    }

    pub(crate) fn stall(&mut self, cycle: u64, stage: StageId, cause: StallCause) {
        if self.sampled(cycle) {
            self.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Stall { stage, cause },
            });
        }
    }

    pub(crate) fn occupancy(&mut self, cycle: u64, rob: u32, iq: u32, wb: u32) {
        if self.sampled(cycle) {
            self.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Occupancy { rob, iq, wb },
            });
        }
    }

    pub(crate) fn quiet(&mut self, cycle: u64, streak: u64) {
        if self.sampled(cycle) {
            self.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Quiet { streak },
            });
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// The buffered stage transitions as `(cycle, id, stage)`, oldest
    /// first.
    pub fn stages(&self) -> impl Iterator<Item = (u64, InstId, PipeStage)> + '_ {
        self.ring.iter().filter_map(|e| match e.kind {
            TraceEventKind::Stage { id, stage } => Some((e.cycle, id, stage)),
            _ => None,
        })
    }

    /// The buffered stage transitions of instructions `0..n`, grouped
    /// by instruction: entry `i` holds instruction `i`'s `(cycle, stage)`
    /// pairs, oldest first.
    pub fn stages_by_inst(&self, n: usize) -> Vec<Vec<(u64, PipeStage)>> {
        let mut by_inst = vec![Vec::new(); n];
        for (cycle, id, stage) in self.stages() {
            if let Some(evs) = by_inst.get_mut(id.index()) {
                evs.push((cycle, stage));
            }
        }
        by_inst
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configuration the tracer was built with.
    pub fn config(&self) -> &TracerConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_labels_are_unique() {
        for (i, a) in StallCause::ALL.iter().enumerate() {
            for b in &StallCause::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert_eq!(StallCause::COUNT, StallCause::ALL.len());
    }

    #[test]
    fn table_conservation_by_construction() {
        let mut t = StallTable::default();
        for i in 0..100u64 {
            for stage in StageId::ALL {
                let blocked = if i % 3 == 0 {
                    None
                } else {
                    Some(StallCause::ALL[(i % StallCause::COUNT as u64) as usize])
                };
                t.record(stage, blocked);
            }
        }
        assert!(t.conserved(100));
        assert!(!t.conserved(99));
        let retire = t.stage(StageId::Retire);
        assert_eq!(retire.busy + retire.stalled(), 100);
    }

    #[test]
    fn table_reports_all_counters() {
        let mut t = StallTable::default();
        t.record(StageId::Issue, Some(StallCause::EdkWait));
        let mut reg = ede_util::obs::Registry::new();
        t.report(&mut reg);
        assert_eq!(reg.counter("cpu.stall.issue.edk_wait"), 1);
        // Every stage × cause key exists, zeros included.
        assert_eq!(
            reg.len(),
            StageId::ALL.len() * (StallCause::COUNT + 1)
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        for (capacity, kept) in [(2, 2usize), (0, 0)] {
            let mut tr = Tracer::new(TracerConfig {
                capacity,
                sample_every: 1,
            });
            for c in 0..5u64 {
                tr.push(TraceEvent {
                    cycle: c,
                    kind: TraceEventKind::Quiet { streak: 0 },
                });
            }
            assert_eq!(tr.len(), kept, "capacity {capacity}");
            assert_eq!(tr.dropped(), 5 - kept as u64, "capacity {capacity}");
            let oldest = tr.events().next().map(|e| e.cycle);
            assert_eq!(oldest, (kept > 0).then_some(5 - kept as u64), "capacity {capacity}");
        }
    }

    #[test]
    fn per_instruction_filter() {
        let mut tr = Tracer::new(TracerConfig::default());
        tr.stage(1, InstId(0), PipeStage::Dispatch);
        tr.stall(1, StageId::Issue, StallCause::Idle);
        tr.stage(1, InstId(1), PipeStage::Dispatch);
        tr.stage(2, InstId(0), PipeStage::Issue);
        tr.stage(3, InstId(5), PipeStage::Issue);
        let by_inst = tr.stages_by_inst(2);
        assert_eq!(by_inst[0], [(1, PipeStage::Dispatch), (2, PipeStage::Issue)]);
        assert_eq!(by_inst[1], [(1, PipeStage::Dispatch)]);
    }

    #[test]
    fn display_names() {
        assert_eq!(PipeStage::Drain.to_string(), "drain");
    }

    #[test]
    fn sampling_thins_stall_events_only() {
        let every_10 = TracerConfig {
            capacity: 1000,
            sample_every: 10,
        };
        for (cfg, sampled) in [(every_10, 10), (TracerConfig::STAGES, 0)] {
            let mut tr = Tracer::new(cfg);
            for c in 1..=100u64 {
                tr.stall(c, StageId::Issue, StallCause::Idle);
                tr.occupancy(c, 1, 1, 1);
                tr.quiet(c, c);
                tr.stage(c, InstId(0), PipeStage::Issue);
            }
            let stalls = tr
                .events()
                .filter(|e| matches!(e.kind, TraceEventKind::Stall { .. }))
                .count();
            assert_eq!(stalls, sampled, "{cfg:?}");
            assert_eq!(tr.len(), 3 * sampled + 100, "{cfg:?}");
            assert_eq!(tr.stages().count(), 100, "{cfg:?}");
        }
    }
}
