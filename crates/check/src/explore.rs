//! The bounded-exhaustive persist-order and crash-point model checker.
//!
//! Fuzzing (PR 2) and fault injection (PR 4) sample the behavior space;
//! this module *enumerates* it for small programs, turning "we fuzzed
//! it" into "we enumerated it". For each program the explorer:
//!
//! 1. runs the golden in-order interpreter to learn the program's
//!    persist events and per-event line contents;
//! 2. builds two [`PersistDag`]s over those events — the **reference**
//!    DAG under the full ordering axioms, and a **relaxed** DAG with the
//!    injected fault's edge families removed ([`OrderRelaxation`]);
//! 3. enumerates **every distinct crash state** the relaxed DAG admits.
//!    A crash state is a *downward-closed* set (an ideal) of the persist
//!    partial order: the set of events on persistent media when power
//!    failed. Two linearizations that persist the same set leave the
//!    same NVM image, so enumerating ideals instead of interleavings
//!    collapses `k!` orderings of `k` independent persists into `2^k`
//!    states — and sleep-set pruning (below) visits each state exactly
//!    once;
//! 4. runs an oracle on every state: for raw command programs, the
//!    state must also be an ideal of the *reference* DAG (a state
//!    containing an event but missing one of its axiom-mandated
//!    predecessors is an ordering violation a crash could observe); for
//!    transactional programs, the state's reconstructed NVM image must
//!    recover consistently through [`CrashChecker::check_image`];
//! 5. cross-checks the cycle-level implementation (fault-free cells
//!    only): the pipeline's actual persist order must be a
//!    linearization the reference DAG admits and its final NVM image
//!    must equal the model's.
//!
//! # Sleep-set pruning
//!
//! The frontier search expands a state's *enabled* events (not yet
//! persisted, all predecessors persisted) in ascending event order. Any
//! two events enabled at the same state are independent — neither is a
//! predecessor of the other, so persisting them in either order reaches
//! the same state. The child reached through event `e` therefore
//! inherits a **sleep set** containing every enabled sibling smaller
//! than `e`: re-persisting a slept event somewhere below would rebuild
//! a state some earlier subtree already covers, so the transition is
//! pruned (and counted). Enabled events stay enabled and independent
//! until taken, so sleep sets never need filtering, and each ideal is
//! generated by exactly one surviving path — the one that takes
//! mutually-independent events in ascending order.
//!
//! # Budgets and truncation
//!
//! Exploration is bounded twice: programs with more persist events than
//! [`ExploreOptions::max_events`] (or [`MAX_PERSIST_EVENTS`]) are not
//! explored at all, and the state frontier is cut deterministically at
//! [`ExploreOptions::max_states`] visited states. Either bound turns a
//! would-be `proved` verdict into `budget-exhausted`; a violation found
//! before the cut still yields `counterexample` (finding a real bug is
//! never invalidated by an incomplete search).
//!
//! Results aggregate into the `ede.explore.v1` coverage ledger
//! ([`ExploreReport::to_json`]): states visited, transitions expanded
//! vs. pruned, crash points checked, per-cell verdicts, and shrunk
//! counterexamples in the fuzz-report command-list format.

use crate::campaign::{self, Campaign, Plan, Record};
use crate::gen::{cmds_strategy, concretize, Cmd};
use crate::golden::{self, GoldenConfig, GoldenRun, LINE_BYTES};
use crate::litmus;
use crate::resume::{CampaignDriver, HarnessPanic, ResumeError, RuntimeOptions};
use ede_core::depgraph::{PersistDag, MAX_PERSIST_EVENTS};
use ede_core::ordering::OrderRelaxation;
use ede_isa::{ArchConfig, InstId, Program};
use ede_mem::trace::{nvm_image_at, ImageCursor};
use ede_mem::FaultInjection;
use ede_nvm::CrashChecker;
use ede_sim::{raw_output, run_program};
use ede_util::check::{minimize, shrinkable_vec, Strategy};
use ede_util::idmap::WordMap;
use ede_util::obs::{json, json_escape, Registry};
use ede_util::pool::par_frontier;
use ede_util::progress;
use ede_util::rng::{mix64, SmallRng, SplitMix64};
use std::collections::HashMap;

/// What the explorer enumerates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Source {
    /// Named litmus idioms from [`litmus::cmds`].
    Litmus(Vec<String>),
    /// Seeded random command programs (the fuzzer's generator).
    Generated {
        /// How many programs to generate and explore.
        cases: u32,
    },
    /// Seeded transactional programs (the inject campaign's crash
    /// probe), checked through undo recovery at every crash state.
    Tx {
        /// How many transactional programs to explore.
        cases: u32,
    },
}

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// What to explore.
    pub source: Source,
    /// Base seed for generated/transactional sources.
    pub seed: u64,
    /// Maximum commands per generated program.
    pub max_cmds: usize,
    /// Architectures to cross-check the implementation on (and, for the
    /// transactional source, to generate code for).
    pub archs: Vec<ArchConfig>,
    /// Fault whose relaxation to explore under. Only statically
    /// modelable faults are accepted — see [`relaxation_for`].
    pub fault: Option<FaultInjection>,
    /// State budget: maximum crash states visited per cell.
    pub max_states: usize,
    /// Depth budget: maximum persist events a program may have and
    /// still be explored (capped at [`MAX_PERSIST_EVENTS`]).
    pub max_events: usize,
    /// Worker threads: cells fan out across workers (or, for a single
    /// cell, the state frontier does). 0 = auto (`EDE_JOBS` or host
    /// parallelism), 1 = sequential. The report is identical for every
    /// value.
    pub jobs: usize,
    /// Shrink budget for a counterexample reproducer.
    pub max_shrink_iters: u32,
    /// Quiescence-aware fast-forwarding in the implementation
    /// cross-check runs. The ledger is byte-identical either way.
    pub fast_forward: bool,
    /// Emit per-cell progress lines on stderr. stdout is untouched, so
    /// parallel and sequential sessions stay byte-comparable.
    pub progress: bool,
    /// Checkpoint/resume, deadline, and quarantine-budget settings
    /// (see [`RuntimeOptions`]); excluded from the fingerprint.
    pub runtime: RuntimeOptions,
    /// Self-test hook: deliberately panic the harness on this cell
    /// index, proving the quarantine path is load-bearing
    /// (`--self-test-panic` in the CLI).
    pub self_test_panic: Option<u32>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            source: Source::Litmus(litmus::NAMES.iter().map(|s| s.to_string()).collect()),
            seed: 0,
            max_cmds: 12,
            archs: vec![
                ArchConfig::Baseline,
                ArchConfig::IssueQueue,
                ArchConfig::WriteBuffer,
            ],
            fault: None,
            max_states: 20_000,
            // Room for the tx source's undo programs: three transactions
            // at two writes each now persist a twin marker line per
            // commit on top of entries, data and the primary marker.
            max_events: 20,
            jobs: 0,
            max_shrink_iters: 4096,
            fast_forward: true,
            progress: false,
            runtime: RuntimeOptions::default(),
            self_test_panic: None,
        }
    }
}

/// The canonical options fingerprint recorded in checkpoints: every
/// option that can change the ledger, and nothing that cannot
/// (`jobs`, `progress`, and `runtime` are excluded).
pub fn fingerprint(opts: &ExploreOptions) -> String {
    format!(
        "explore source={:?} seed={:#x} max_cmds={} archs=[{}] fault={:?} \
         max_states={} max_events={} max_shrink_iters={} fast_forward={} \
         self_test_panic={:?}",
        opts.source,
        opts.seed,
        opts.max_cmds,
        opts.archs
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join(","),
        opts.fault,
        opts.max_states,
        opts.max_events,
        opts.max_shrink_iters,
        opts.fast_forward,
        opts.self_test_panic,
    )
}

/// The ordering relaxation a fault induces on the persist model, or
/// `None` for faults the static model cannot express (timing-dependent
/// faults like `drop-one-edep`, controller faults).
pub fn relaxation_for(fault: Option<FaultInjection>) -> Option<OrderRelaxation> {
    match fault {
        None => Some(OrderRelaxation::NONE),
        Some(FaultInjection::DropEdeps) => Some(OrderRelaxation {
            drop_execution: true,
            weak_dsb: false,
        }),
        Some(FaultInjection::WeakDsb) => Some(OrderRelaxation {
            drop_execution: false,
            weak_dsb: true,
        }),
        Some(_) => None,
    }
}

/// A cell's verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every reachable crash state passed the oracle and the search was
    /// complete.
    Proved,
    /// A reachable crash state fails the oracle (or the implementation
    /// cross-check diffed).
    Counterexample,
    /// The search hit a state or event budget before covering the
    /// space.
    BudgetExhausted,
}

impl Verdict {
    /// The stable kebab-case label used in the ledger.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Counterexample => "counterexample",
            Verdict::BudgetExhausted => "budget-exhausted",
        }
    }

    /// Inverse of [`Verdict::label`], for checkpoint payloads.
    fn from_label(label: &str) -> Option<Verdict> {
        match label {
            "proved" => Some(Verdict::Proved),
            "counterexample" => Some(Verdict::Counterexample),
            "budget-exhausted" => Some(Verdict::BudgetExhausted),
            _ => None,
        }
    }
}

/// A crash state that fails the oracle, with its shrunk reproducer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The violating crash state (bitmask over persist events).
    pub state: u64,
    /// The event persisted without its mandated predecessors (command
    /// sources; 0 for transactional failures).
    pub event: usize,
    /// The missing reference predecessors (bitmask; 0 for transactional
    /// failures).
    pub missing: u64,
    /// Human-readable description of the violation.
    pub detail: String,
    /// Minimal command list still exhibiting a violation (empty for
    /// transactional programs, which are not command-built).
    pub cmds: Vec<Cmd>,
    /// Successful shrink steps taken from the original program.
    pub shrink_steps: u32,
}

/// One (program, architecture) cell's exploration outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellResult {
    /// Program name: the litmus idiom, `case-<i>`, or `tx-<i>`.
    pub name: String,
    /// The architecture this cell cross-checked against.
    pub arch: ArchConfig,
    /// The verdict.
    pub verdict: Verdict,
    /// Persist events in the program.
    pub events: usize,
    /// Distinct crash states visited.
    pub states: u64,
    /// Transitions expanded (edges of the search tree taken).
    pub expanded: u64,
    /// Transitions pruned by sleep sets.
    pub pruned: u64,
    /// Crash points checked (one oracle run per state).
    pub crash_points: u64,
    /// Whether a budget cut the search short.
    pub truncated: bool,
    /// The first violating state in search order, shrunk.
    pub counterexample: Option<Counterexample>,
    /// Implementation cross-check diffs (fault-free cells only; any
    /// entry makes the verdict a counterexample).
    pub impl_diffs: Vec<String>,
}

/// Outcome of an exploration session: the coverage ledger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreReport {
    /// The base seed.
    pub seed: u64,
    /// The injected fault, if any.
    pub fault: Option<FaultInjection>,
    /// The state budget cells ran under.
    pub max_states: usize,
    /// The event (depth) budget cells ran under.
    pub max_events: usize,
    /// Per-cell results, in (program, arch) order. Cells the deadline
    /// interrupted or the quarantine caught are absent.
    pub cells: Vec<CellResult>,
    /// Cells the sweep planned (`cells` plus interrupted and
    /// quarantined ones); not serialized into the ledger.
    pub planned_cells: usize,
    /// Whether the deadline tripped before every cell completed.
    pub interrupted: bool,
    /// Harness panics caught and quarantined instead of aborting the
    /// sweep ([`HarnessPanic`] records, in cell order).
    pub quarantined: Vec<HarnessPanic>,
}

impl ExploreReport {
    /// Count of cells with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.cells.iter().filter(|c| c.verdict == v).count()
    }

    /// `true` when every cell proved clean.
    pub fn all_proved(&self) -> bool {
        self.cells.iter().all(|c| c.verdict == Verdict::Proved)
    }

    /// Renders the stable `ede.explore.v1` coverage ledger. Field order
    /// and formatting are part of the format: the golden snapshot tests
    /// and the CI jobs diff this byte for byte across job counts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"format\": \"ede.explore.v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"fault\": {},\n",
            match self.fault {
                Some(f) => format!("\"{}\"", f.label()),
                None => "null".to_string(),
            }
        ));
        s.push_str(&format!("  \"max_states\": {},\n", self.max_states));
        s.push_str(&format!("  \"max_events\": {},\n", self.max_events));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"arch\": \"{}\", \"verdict\": \"{}\", \
                 \"events\": {}, \"states\": {}, \"expanded\": {}, \"pruned\": {}, \
                 \"crash_points\": {}, \"truncated\": {}",
                c.name,
                c.arch.label(),
                c.verdict.label(),
                c.events,
                c.states,
                c.expanded,
                c.pruned,
                c.crash_points,
                c.truncated,
            ));
            if let Some(cx) = &c.counterexample {
                s.push_str(&format!(
                    ", \"counterexample\": {{\"state\": \"{:#x}\", \"event\": {}, \
                     \"missing\": \"{:#x}\", \"shrink_steps\": {}, \"cmds\": [{}], \
                     \"detail\": \"{}\"}}",
                    cx.state,
                    cx.event,
                    cx.missing,
                    cx.shrink_steps,
                    cx.cmds
                        .iter()
                        .map(|c| format!("\"{c:?}\""))
                        .collect::<Vec<_>>()
                        .join(", "),
                    cx.detail,
                ));
            }
            for d in &c.impl_diffs {
                s.push_str(&format!(", \"impl_diff\": \"{d}\""));
            }
            s.push_str(&format!(
                "}}{}\n",
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&campaign::runtime_json(self.interrupted, &self.quarantined));
        s.push_str(&format!(
            "  \"verdicts\": {{\"proved\": {}, \"counterexample\": {}, \
             \"budget-exhausted\": {}}}\n",
            self.count(Verdict::Proved),
            self.count(Verdict::Counterexample),
            self.count(Verdict::BudgetExhausted),
        ));
        s.push('}');
        s
    }

    /// Builds the session's metrics registry (per-cell state/prune
    /// counters plus verdict roll-ups), deterministic in the report.
    pub fn metrics(&self) -> Registry {
        let mut reg = Registry::new();
        for c in &self.cells {
            let cell = format!("explore.{}.{}", c.name, c.arch.label());
            reg.inc(format!("{cell}.states"), c.states);
            reg.inc(format!("{cell}.expanded"), c.expanded);
            reg.inc(format!("{cell}.pruned"), c.pruned);
            reg.inc(format!("{cell}.crash_points"), c.crash_points);
        }
        reg.inc("explore.cells", self.cells.len() as u64);
        reg.inc("explore.proved", self.count(Verdict::Proved) as u64);
        reg.inc(
            "explore.counterexamples",
            self.count(Verdict::Counterexample) as u64,
        );
        reg.inc(
            "explore.budget_exhausted",
            self.count(Verdict::BudgetExhausted) as u64,
        );
        reg
    }
}

/// The model of one program's persist behavior: events, the reference
/// and relaxed orders, and per-event line snapshots.
struct Model {
    events: Vec<(InstId, u64)>,
    /// Fault-free must-order DAG (the oracle).
    refdag: PersistDag,
    /// Fault-relaxed DAG (the reachable-state generator).
    relaxed: PersistDag,
    /// Per-event snapshot of the event's line at its program point.
    snapshots: Vec<WordMap>,
}

/// Builds the model, or `Err(event count)` when the program has more
/// persist events than the budget admits.
fn build_model(
    program: &Program,
    golden: &GoldenRun,
    relax: OrderRelaxation,
    max_events: usize,
) -> Result<Model, usize> {
    let persists = &golden.trace.persists;
    // The golden trace's cycle is the persisting `DC CVAP`'s id.
    let events: Vec<(InstId, u64)> = persists.iter().map(|p| (InstId(p.cycle), p.line)).collect();
    if events.len() > max_events.min(MAX_PERSIST_EVENTS) {
        return Err(events.len());
    }
    let refdag = PersistDag::build(program, &events, OrderRelaxation::NONE)
        .expect("event count checked above");
    let relaxed = PersistDag::build(program, &events, relax).expect("event count checked above");
    // Per-event line snapshots: the golden trace replayed to each
    // persist holds what that persist captured of its line.
    let mut cursor = ImageCursor::new(&golden.trace, LINE_BYTES);
    let snapshots = persists
        .iter()
        .map(|p| {
            cursor.advance_to(p.cycle);
            cursor.line_words(p.line).collect()
        })
        .collect();
    Ok(Model {
        events,
        refdag,
        relaxed,
        snapshots,
    })
}

impl Model {
    /// The NVM image of a crash state: per line, the snapshot of the
    /// latest included event of that line (same-line events are totally
    /// ordered in every ideal, so "latest in program order" is
    /// well-defined).
    fn image(&self, state: u64) -> WordMap {
        let mut latest: HashMap<u64, usize> = HashMap::new();
        for (e, &(_, line)) in self.events.iter().enumerate() {
            if state & (1 << e) != 0 {
                latest.insert(line, e);
            }
        }
        let mut img = WordMap::default();
        for &e in latest.values() {
            for (&a, &v) in &self.snapshots[e] {
                img.insert(a, v);
            }
        }
        img
    }

    /// For command programs: the first event in `state` missing a
    /// reference predecessor, as `(event, missing mask)`.
    fn order_violation(&self, state: u64) -> Option<(usize, u64)> {
        let mut bits = state;
        while bits != 0 {
            let e = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let missing = self.refdag.preds(e) & !state;
            if missing != 0 {
                return Some((e, missing));
            }
        }
        None
    }
}

/// One search node: the crash state reached and the events asleep on
/// this path.
#[derive(Clone, Copy)]
struct Node {
    state: u64,
    sleep: u64,
}

/// Per-state search output, merged deterministically.
struct StateOut {
    state: u64,
    violation: Option<(usize, u64, String)>,
    expanded: u64,
    pruned: u64,
}

/// Enumerates every relaxed-admissible crash state and runs `oracle` on
/// each. Returns `(outputs in deterministic BFS order, truncated)`.
fn enumerate(
    model: &Model,
    jobs: usize,
    max_states: usize,
    oracle: &(dyn Fn(u64) -> Option<(usize, u64, String)> + Sync),
) -> (Vec<StateOut>, bool) {
    let seeds = vec![Node { state: 0, sleep: 0 }];
    par_frontier(jobs, seeds, max_states, |_, node: &Node| {
        let violation = oracle(node.state);
        let enabled = model.relaxed.enabled(node.state);
        let mut children = Vec::new();
        let mut pruned = 0u64;
        let mut bits = enabled;
        while bits != 0 {
            let e = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let bit = 1u64 << e;
            if node.sleep & bit != 0 {
                pruned += 1;
                continue;
            }
            children.push(Node {
                state: node.state | bit,
                // Earlier enabled siblings go to sleep below this child:
                // their interleavings are covered by this node's earlier
                // subtrees.
                sleep: node.sleep | (enabled & (bit - 1)),
            });
        }
        (
            StateOut {
                state: node.state,
                violation,
                expanded: children.len() as u64,
                pruned,
            },
            children,
        )
    })
}

/// `true` when `cmds`, explored under `fault`'s ordering relaxation,
/// admits a crash state the fault-free reference order forbids — i.e.
/// the command list is a genuine reproducer for the fault. Faults with
/// no static model (see [`relaxation_for`]), programs the golden model
/// rejects, and programs over the event budget all answer `false`. The
/// cross-validation suite uses this to re-check every shrunk
/// counterexample the explorer reports.
pub fn reproduces(cmds: &[Cmd], fault: Option<FaultInjection>, max_events: usize) -> bool {
    match relaxation_for(fault) {
        Some(relax) => model_violates(cmds, relax, max_events),
        None => false,
    }
}

/// `true` when `cmds`, modeled under `relax`, admits a crash state the
/// reference order forbids. This is the shrinking predicate: a
/// violating state exists iff some event's reference predecessors
/// exceed its relaxed predecessors (take that event's relaxed downward
/// closure as the witness state), so no enumeration is needed.
fn model_violates(cmds: &[Cmd], relax: OrderRelaxation, max_events: usize) -> bool {
    let program = concretize(cmds);
    let Ok(golden) = golden::run(&program, &GoldenConfig::default()) else {
        return false;
    };
    let Ok(model) = build_model(&program, &golden, relax, max_events) else {
        return false;
    };
    (0..model.events.len()).any(|e| model.refdag.preds(e) & !model.relaxed.preds(e) != 0)
}

/// Cross-checks one cycle-level run against the reference model: the
/// pipeline's persist admissions, matched per line in FIFO order, must
/// form a linearization the reference DAG admits, and the final NVM
/// image must equal the golden model's. Returns diffs (empty = pass).
fn impl_check(
    program_name: &str,
    program: &Program,
    model: &Model,
    golden: &GoldenRun,
    arch: ArchConfig,
    fast_forward: bool,
) -> Vec<String> {
    let mut diffs = Vec::new();
    let sim = crate::inject::inject_sim(None, fast_forward);
    let result = match run_program(program_name, raw_output(program.clone()), arch, &sim) {
        Ok(result) => result,
        Err(e) => return vec![format!("pipeline did not complete: {e:?}")],
    };
    // Map each trace persist to the model event it must realize: the
    // k-th admission of a line is the k-th program-order event of that
    // line (persist-buffer admission is per-line FIFO).
    let mut by_line: HashMap<u64, Vec<usize>> = HashMap::new();
    for (e, &(_, line)) in model.events.iter().enumerate() {
        by_line.entry(line).or_default().push(e);
    }
    let mut cursor: HashMap<u64, usize> = HashMap::new();
    let mut order = Vec::new();
    for p in &result.trace.persists {
        let k = cursor.entry(p.line).or_insert(0);
        match by_line.get(&p.line).and_then(|v| v.get(*k)) {
            Some(&e) => order.push(e),
            None => diffs.push(format!(
                "impl persisted line {:#x} more often than the model ({} events)",
                p.line,
                by_line.get(&p.line).map_or(0, |v| v.len()),
            )),
        }
        *k += 1;
    }
    if order.len() < model.events.len() && diffs.is_empty() {
        diffs.push(format!(
            "impl persisted {} of the model's {} events",
            order.len(),
            model.events.len(),
        ));
    }
    if let Err((pred, ev)) = model.refdag.check_linearization(&order) {
        diffs.push(format!(
            "impl persist order violates the reference model: event {ev} before its predecessor {pred}",
        ));
    }
    let impl_image = nvm_image_at(&result.trace, result.trace.horizon(), LINE_BYTES);
    let model_image = model.image(if model.events.is_empty() {
        0
    } else {
        u64::MAX >> (64 - model.events.len())
    });
    if impl_image != model_image {
        let mut keys: Vec<&u64> = impl_image.keys().chain(model_image.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        for a in keys {
            let i = impl_image.get(a);
            let m = model_image.get(a);
            if i != m {
                diffs.push(format!("final image at {a:#x}: impl {i:?}, model {m:?}"));
            }
        }
    }
    // The golden image restricted to persisted words must agree too —
    // a mismatch here is a model bug, not a pipeline bug.
    let golden_image = nvm_image_at(&golden.trace, golden.trace.horizon(), LINE_BYTES);
    for (&a, &v) in &model_image {
        if golden_image.get(&a) != Some(&v) {
            diffs.push(format!(
                "model image at {a:#x} disagrees with the golden interpreter",
            ));
        }
    }
    diffs
}

/// What a cell explores.
#[derive(Clone)]
enum Spec {
    Cmds {
        name: String,
        cmds: Vec<Cmd>,
        /// Seed/case identity for generated programs (shrink regen).
        case: Option<(u32, u64)>,
    },
    Tx {
        name: String,
        case_seed: u64,
    },
}

/// The per-case seed stream (shared with regeneration during shrink).
fn case_seeds(opts: &ExploreOptions) -> SplitMix64 {
    SplitMix64::new(mix64(opts.seed))
}

fn specs(opts: &ExploreOptions) -> Result<Vec<Spec>, String> {
    match &opts.source {
        Source::Litmus(names) => names
            .iter()
            .map(|n| {
                litmus::cmds(n)
                    .map(|cmds| Spec::Cmds {
                        name: n.clone(),
                        cmds,
                        case: None,
                    })
                    .ok_or_else(|| format!("unknown litmus idiom: {n}"))
            })
            .collect(),
        Source::Generated { cases } => {
            let mut seeds = case_seeds(opts);
            let strat = cmds_strategy(opts.max_cmds);
            Ok((0..*cases)
                .map(|case| {
                    let case_seed = seeds.next_u64();
                    let mut rng = SmallRng::seed_from_u64(case_seed);
                    Spec::Cmds {
                        name: format!("case-{case}"),
                        cmds: strat.generate(&mut rng).value,
                        case: Some((case, case_seed)),
                    }
                })
                .collect())
        }
        Source::Tx { cases } => {
            let mut seeds = case_seeds(opts);
            Ok((0..*cases)
                .map(|case| Spec::Tx {
                    name: format!("tx-{case}"),
                    case_seed: seeds.next_u64(),
                })
                .collect())
        }
    }
}

/// Regenerates a generated case's rose tree and shrinks its command
/// list while the model still reports a violation — always sequential,
/// so the reproducer is identical however the session parallelized.
fn shrink_cmds(
    opts: &ExploreOptions,
    spec_cmds: &[Cmd],
    case: Option<(u32, u64)>,
    relax: OrderRelaxation,
) -> (Vec<Cmd>, u32) {
    let sh = match case {
        // Generated case: shrink the original rose tree, which knows
        // each command's own sub-shrinks.
        Some((_, case_seed)) => {
            let strat = cmds_strategy(opts.max_cmds);
            let mut rng = SmallRng::seed_from_u64(case_seed);
            strat.generate(&mut rng)
        }
        // Litmus catalog entry: element-removal shrinks only.
        None => shrinkable_vec(spec_cmds.to_vec(), 0),
    };
    let max_events = opts.max_events;
    minimize(sh, opts.max_shrink_iters, |cmds| {
        model_violates(cmds, relax, max_events)
    })
}

fn budget_cell(name: &str, arch: ArchConfig, events: usize) -> CellResult {
    CellResult {
        name: name.to_string(),
        arch,
        verdict: Verdict::BudgetExhausted,
        events,
        states: 0,
        expanded: 0,
        pruned: 0,
        crash_points: 0,
        truncated: true,
        counterexample: None,
        impl_diffs: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_cell(
    name: &str,
    arch: ArchConfig,
    model: &Model,
    outputs: Vec<StateOut>,
    truncated: bool,
    impl_diffs: Vec<String>,
    counterexample: impl FnOnce(&(usize, u64, String), u64) -> Counterexample,
) -> CellResult {
    let states = outputs.len() as u64;
    let expanded: u64 = outputs.iter().map(|o| o.expanded).sum();
    let pruned: u64 = outputs.iter().map(|o| o.pruned).sum();
    let first = outputs
        .iter()
        .find(|o| o.violation.is_some())
        .map(|o| (o.state, o.violation.clone().expect("just checked")));
    let verdict = if first.is_some() || !impl_diffs.is_empty() {
        Verdict::Counterexample
    } else if truncated {
        Verdict::BudgetExhausted
    } else {
        Verdict::Proved
    };
    CellResult {
        name: name.to_string(),
        arch,
        verdict,
        events: model.events.len(),
        states,
        expanded,
        pruned,
        crash_points: states,
        truncated,
        counterexample: first.map(|(state, v)| counterexample(&v, state)),
        impl_diffs,
    }
}

fn run_cmds_cell(
    opts: &ExploreOptions,
    frontier_jobs: usize,
    name: &str,
    cmds: &[Cmd],
    case: Option<(u32, u64)>,
    arch: ArchConfig,
    relax: OrderRelaxation,
) -> CellResult {
    let program = concretize(cmds);
    let golden = match golden::run(&program, &GoldenConfig::default()) {
        Ok(g) => g,
        Err(e) => {
            let mut cell = budget_cell(name, arch, 0);
            cell.verdict = Verdict::Counterexample;
            cell.impl_diffs = vec![format!("golden model rejected the program: {e}")];
            return cell;
        }
    };
    let model = match build_model(&program, &golden, relax, opts.max_events) {
        Ok(m) => m,
        Err(n) => return budget_cell(name, arch, n),
    };
    let (outputs, truncated) = enumerate(&model, frontier_jobs, opts.max_states, &|state| {
        model.order_violation(state).map(|(e, missing)| {
            let (id, line) = model.events[e];
            (
                e,
                missing,
                format!(
                    "state {state:#x} persisted event {e} (inst #{}, line {line:#x}) \
                     without required predecessor(s) {missing:#x}",
                    id.index(),
                ),
            )
        })
    });
    // Fault-free cells also cross-check the cycle-level pipeline.
    let impl_diffs = if opts.fault.is_none() {
        impl_check(name, &program, &model, &golden, arch, opts.fast_forward)
    } else {
        Vec::new()
    };
    finish_cell(
        name,
        arch,
        &model,
        outputs,
        truncated,
        impl_diffs,
        |&(event, missing, ref detail), state| {
            let (shrunk, shrink_steps) = shrink_cmds(opts, cmds, case, relax);
            Counterexample {
                state,
                event,
                missing,
                detail: detail.clone(),
                cmds: shrunk,
                shrink_steps,
            }
        },
    )
}

fn run_tx_cell(
    opts: &ExploreOptions,
    frontier_jobs: usize,
    name: &str,
    case_seed: u64,
    arch: ArchConfig,
    relax: OrderRelaxation,
) -> CellResult {
    let out = crate::inject::tx_case_program(case_seed, arch, false);
    // TxWriter programs use base+offset addressing the strict register
    // cross-check doesn't model; trace-resolved addresses and values
    // stay authoritative.
    let golden_cfg = GoldenConfig {
        strict_registers: false,
    };
    let golden = match golden::run(&out.program, &golden_cfg) {
        Ok(g) => g,
        Err(e) => {
            let mut cell = budget_cell(name, arch, 0);
            cell.verdict = Verdict::Counterexample;
            cell.impl_diffs = vec![format!("golden model rejected the program: {e}")];
            return cell;
        }
    };
    let model = match build_model(&out.program, &golden, relax, opts.max_events) {
        Ok(m) => m,
        Err(n) => return budget_cell(name, arch, n),
    };
    let checker = CrashChecker::new(&out);
    let (outputs, truncated) = enumerate(&model, frontier_jobs, opts.max_states, &|state| {
        checker
            .check_image(model.image(state))
            .err()
            .map(|e| (0, 0, format!("state {state:#x}: {e}")))
    });
    let impl_diffs = if opts.fault.is_none() {
        impl_check(name, &out.program, &model, &golden, arch, opts.fast_forward)
    } else {
        Vec::new()
    };
    finish_cell(
        name,
        arch,
        &model,
        outputs,
        truncated,
        impl_diffs,
        |&(event, missing, ref detail), state| Counterexample {
            state,
            event,
            missing,
            detail: detail.clone(),
            cmds: Vec::new(),
            shrink_steps: 0,
        },
    )
}

/// Serializes one clean cell (no counterexample, no impl diffs) for
/// the checkpoint payload store. Dirty cells are never checkpointed —
/// their reproducers are regenerated deterministically on resume.
fn cell_payload(c: &CellResult) -> String {
    format!(
        "{{\"name\": {}, \"verdict\": {}, \"events\": {}, \"states\": {}, \
         \"expanded\": {}, \"pruned\": {}, \"crash_points\": {}, \"truncated\": {}}}",
        json_escape(&c.name),
        json_escape(c.verdict.label()),
        c.events,
        c.states,
        c.expanded,
        c.pruned,
        c.crash_points,
        c.truncated,
    )
}

/// Restores one clean cell from its checkpoint payload.
fn parse_cell_payload(data: &str, arch: ArchConfig) -> Result<CellResult, String> {
    let doc = json::parse(data).map_err(|e| format!("cell payload: {e}"))?;
    let counter = |key: &str| {
        doc.get(key)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("cell payload lacks counter {key}"))
    };
    let verdict = doc
        .get("verdict")
        .and_then(json::Json::as_str)
        .and_then(Verdict::from_label)
        .ok_or_else(|| "cell payload lacks a verdict".to_string())?;
    if verdict == Verdict::Counterexample {
        return Err("checkpoint stored a counterexample cell; dirty cells must re-run".to_string());
    }
    Ok(CellResult {
        name: doc
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| "cell payload lacks a name".to_string())?
            .to_string(),
        arch,
        verdict,
        events: counter("events")? as usize,
        states: counter("states")?,
        expanded: counter("expanded")?,
        pruned: counter("pruned")?,
        crash_points: counter("crash_points")?,
        truncated: doc
            .get("truncated")
            .and_then(json::Json::as_bool)
            .ok_or_else(|| "cell payload lacks truncated".to_string())?,
        counterexample: None,
        impl_diffs: Vec::new(),
    })
}

/// An explore session failure: either bad options (CLI exit 1) or a
/// campaign runtime problem (CLI exit 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// Unknown litmus idiom or a fault with no static ordering model.
    Usage(String),
    /// Checkpoint/resume failure.
    Resume(ResumeError),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Usage(msg) => write!(f, "{msg}"),
            ExploreError::Resume(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Runs the explorer. Deterministic in `opts` — including `jobs`: cells
/// fan out across workers (the frontier does when there is only one
/// cell), outputs merge in a fixed order, and counterexamples are
/// shrunk sequentially, so every job count yields the same
/// [`ExploreReport`] bit for bit.
///
/// # Errors
///
/// A usage-level message when the source names an unknown litmus idiom
/// or the fault has no static ordering model (plus a rendered
/// [`ResumeError`] if the runtime options fail — use
/// [`explore_campaign`] to tell them apart).
pub fn explore(opts: &ExploreOptions) -> Result<ExploreReport, String> {
    explore_campaign(opts).map_err(|e| e.to_string())
}

/// [`explore`] with usage and campaign-runtime failures separated.
/// Work units are (program, arch) cells; clean cells persist their
/// counters in the checkpoint payload store, while cells with a
/// counterexample or impl diff re-run on resume (their reproducers
/// regenerate deterministically), so a resumed session's ledger is
/// byte-identical to an uninterrupted one.
///
/// # Errors
///
/// [`ExploreError::Usage`] for bad options, [`ExploreError::Resume`]
/// for checkpoint/resume failures.
pub fn explore_campaign(opts: &ExploreOptions) -> Result<ExploreReport, ExploreError> {
    let relax = relaxation_for(opts.fault).ok_or_else(|| {
        ExploreError::Usage(format!(
            "fault {} has no static ordering model; explore supports drop-edeps and weak-dsb",
            opts.fault.map_or("<none>", |f| f.label()),
        ))
    })?;
    let specs = specs(opts).map_err(ExploreError::Usage)?;
    let cells: Vec<(usize, ArchConfig)> = (0..specs.len())
        .flat_map(|s| opts.archs.iter().map(move |&a| (s, a)))
        .collect();
    // One cell: give the workers to the state frontier. Many cells:
    // fan cells out and keep each frontier sequential (no nested
    // pools).
    let (cell_jobs, frontier_jobs) = if cells.len() == 1 {
        (1, opts.jobs)
    } else {
        (opts.jobs, 1)
    };
    let planned_cells = cells.len();
    let mut done = Vec::new();
    let sweep = campaign::run(
        &ExploreSweep {
            opts,
            specs,
            cells,
            relax,
            cell_jobs,
            frontier_jobs,
        },
        |_, cell| done.push(cell),
    )
    .map_err(ExploreError::Resume)?;
    Ok(ExploreReport {
        seed: opts.seed,
        fault: opts.fault,
        max_states: opts.max_states,
        max_events: opts.max_events,
        cells: done,
        planned_cells,
        interrupted: sweep.interrupted,
        quarantined: sweep.quarantined,
    })
}

/// The explorer as a [`Campaign`]: one unit per (program, arch) cell.
/// Clean cells checkpoint their counters; cells with a counterexample
/// or impl diff re-run on resume.
struct ExploreSweep<'a> {
    opts: &'a ExploreOptions,
    specs: Vec<Spec>,
    cells: Vec<(usize, ArchConfig)>,
    relax: OrderRelaxation,
    cell_jobs: usize,
    frontier_jobs: usize,
}

impl Campaign for ExploreSweep<'_> {
    type Unit = CellResult;

    fn plan(&self) -> Plan<'_> {
        Plan {
            kind: "explore",
            noun: "cell",
            fingerprint: fingerprint(self.opts),
            seed: self.opts.seed,
            units: self.cells.len(),
            jobs: self.cell_jobs,
            runtime: &self.opts.runtime,
            self_test_panic: self.opts.self_test_panic,
        }
    }

    fn run_unit(&self, unit: usize, _: &CampaignDriver) -> Option<CellResult> {
        let (s, arch) = self.cells[unit];
        let (opts, jobs, relax) = (self.opts, self.frontier_jobs, self.relax);
        let cell = match &self.specs[s] {
            Spec::Cmds { name, cmds, case } => {
                run_cmds_cell(opts, jobs, name, cmds, *case, arch, relax)
            }
            Spec::Tx { name, case_seed } => run_tx_cell(opts, jobs, name, *case_seed, arch, relax),
        };
        if opts.progress {
            progress::stderr().line(&format!(
                "explore: {}/{}: {} states, {} pruned, {}",
                cell.name,
                cell.arch.label(),
                cell.states,
                cell.pruned,
                cell.verdict.label(),
            ));
        }
        Some(cell)
    }

    fn record(&self, cell: &CellResult) -> Record {
        if cell.counterexample.is_none() && cell.impl_diffs.is_empty() {
            Record::Done(Some(cell_payload(cell)))
        } else {
            Record::Rerun
        }
    }

    fn decode(&self, unit: usize, data: &str) -> Result<CellResult, String> {
        parse_cell_payload(data, self.cells[unit].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn litmus_opts(names: &[&str]) -> ExploreOptions {
        ExploreOptions {
            source: Source::Litmus(names.iter().map(|s| s.to_string()).collect()),
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn hazard_is_proved_on_all_archs() {
        let report = explore(&litmus_opts(&["hazard"])).expect("valid options");
        assert_eq!(report.cells.len(), 3);
        for c in &report.cells {
            assert_eq!(c.verdict, Verdict::Proved, "{}: {:?}", c.arch, c.impl_diffs);
            assert_eq!(c.events, 2);
            // Two ordered events: states ∅, {A}, {A,F}.
            assert_eq!(c.states, 3);
            assert_eq!(c.crash_points, 3);
            assert!(!c.truncated);
        }
        assert!(report.all_proved());
    }

    #[test]
    fn hazard_under_drop_edeps_finds_a_shrunk_counterexample() {
        let report = explore(&ExploreOptions {
            fault: Some(FaultInjection::DropEdeps),
            ..litmus_opts(&["hazard"])
        })
        .expect("valid options");
        for c in &report.cells {
            assert_eq!(c.verdict, Verdict::Counterexample, "{}", c.arch);
            let cx = c.counterexample.as_ref().expect("counterexample");
            // The flag persisted without the data persist.
            assert_eq!(cx.missing, 0b01);
            assert!(!cx.cmds.is_empty());
            // The shrunk reproducer still violates the model.
            assert!(model_violates(
                &cx.cmds,
                relaxation_for(Some(FaultInjection::DropEdeps)).unwrap(),
                16,
            ));
        }
    }

    #[test]
    fn sleep_sets_prune_independent_interleavings() {
        // two_update has two independent data persists: 4 data states
        // visited once each, with the duplicate path pruned.
        let report = explore(&litmus_opts(&["two_update"])).expect("valid options");
        let c = &report.cells[0];
        assert_eq!(c.verdict, Verdict::Proved, "{:?}", c.impl_diffs);
        assert_eq!(c.events, 3);
        // Ideals: ∅, {A}, {B}, {A,B}, {A,B,F} — each exactly once.
        assert_eq!(c.states, 5);
        assert!(c.pruned > 0, "sleep sets never engaged");
        // Every reachable state visited exactly once: expansions equal
        // states minus the root.
        assert_eq!(c.expanded, c.states - 1);
    }

    #[test]
    fn state_budget_truncates_with_explicit_report() {
        let report = explore(&ExploreOptions {
            max_states: 2,
            ..litmus_opts(&["two_update"])
        })
        .expect("valid options");
        let c = &report.cells[0];
        assert_eq!(c.verdict, Verdict::BudgetExhausted);
        assert!(c.truncated);
        assert_eq!(c.states, 2);
    }

    #[test]
    fn event_budget_reports_budget_exhausted() {
        let report = explore(&ExploreOptions {
            max_events: 1,
            ..litmus_opts(&["two_update"])
        })
        .expect("valid options");
        assert!(report
            .cells
            .iter()
            .all(|c| c.verdict == Verdict::BudgetExhausted));
    }

    #[test]
    fn unsupported_fault_is_rejected() {
        let err = explore(&ExploreOptions {
            fault: Some(FaultInjection::DropOneEdep { nth: 0 }),
            ..litmus_opts(&["hazard"])
        })
        .expect_err("drop-one-edep is timing-dependent");
        assert!(err.contains("drop-one-edep"), "{err}");
    }

    #[test]
    fn unknown_litmus_name_is_an_error() {
        assert!(explore(&litmus_opts(&["nonesuch"])).is_err());
    }

    #[test]
    fn ledger_is_identical_for_every_job_count() {
        let base = explore(&ExploreOptions {
            jobs: 1,
            ..litmus_opts(&["two_update", "hazard"])
        })
        .expect("valid options");
        for jobs in [2, 4] {
            let r = explore(&ExploreOptions {
                jobs,
                ..litmus_opts(&["two_update", "hazard"])
            })
            .expect("valid options");
            assert_eq!(r.to_json(), base.to_json(), "jobs {jobs}");
        }
    }

    #[test]
    fn clean_cell_payload_round_trips() {
        let report = explore(&litmus_opts(&["hazard"])).expect("valid options");
        let cell = &report.cells[0];
        let parsed = parse_cell_payload(&cell_payload(cell), cell.arch).expect("round trip");
        assert_eq!(&parsed, cell);
        assert!(parse_cell_payload("{}", cell.arch).is_err());
    }

    #[test]
    fn self_test_panic_quarantines_the_cell_and_the_sweep_finishes() {
        let report = explore(&ExploreOptions {
            self_test_panic: Some(1),
            ..litmus_opts(&["hazard"])
        })
        .expect("valid options");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.planned_cells, 3);
        assert!(!report.interrupted);
        assert_eq!(
            report.quarantined,
            vec![HarnessPanic {
                unit: 1,
                payload: "deliberate harness panic at cell 1".to_string(),
            }]
        );
        assert!(report.to_json().contains("\"quarantined\": [{\"cell\": 1,"));
    }

    #[test]
    fn tx_source_proves_the_undo_protocol() {
        let report = explore(&ExploreOptions {
            source: Source::Tx { cases: 1 },
            archs: vec![ArchConfig::Baseline],
            ..ExploreOptions::default()
        })
        .expect("valid options");
        let c = &report.cells[0];
        assert_eq!(
            c.verdict,
            Verdict::Proved,
            "{:?} {:?}",
            c.impl_diffs,
            c.counterexample
        );
        assert!(c.states > 1);
    }
}
