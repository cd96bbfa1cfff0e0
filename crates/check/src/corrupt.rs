//! The at-rest corruption campaign engine.
//!
//! `ede-sim inject` asks *"if the machine were broken, would the
//! checkers notice?"*; this module asks the storage-side dual: **if the
//! medium rots while the machine is off, does recovery triage keep its
//! promises?** For every corruption kind in the [`CorruptionKind`]
//! taxonomy and every architecture in the sweep, the campaign draws
//! seeded crash images from real simulated transaction programs (undo
//! and redo protocols), damages them at the byte level, runs
//! [`ede_nvm::triage`] recovery, and asserts the triage contract on
//! every case:
//!
//! * **no panic** — triage must classify arbitrary damage, never crash
//!   on it. Harness panics are quarantined per cell ([`HarnessPanic`]
//!   records) and the CLI budget for them is 0.
//! * **no silent wrong image** — whenever triage makes a *strong claim*
//!   ([`RecoveryOutcome::is_strong_claim`](ede_nvm::RecoveryOutcome::is_strong_claim): `Clean`, `RolledBack`,
//!   `RepairedTorn`), the recovered image is checked differentially
//!   against recovery of the *uncorrupted* image: the resolved committed
//!   id must match and every heap word must agree. Three principled
//!   carve-outs apply: corrupted heap words (the heap is
//!   [`RegionClass::Unprotected`](ede_nvm::RegionClass::Unprotected) — triage explicitly does not vouch for
//!   it), words whose only log witness was itself destroyed (an erased
//!   slot is indistinguishable from an unused one; no single-copy
//!   format can detect that), and damage to a **twin marker word** —
//!   the commit-point authority. The twin persists strictly first, so
//!   wiping it inside the window where the primary has not caught up
//!   leaves an image byte-identical to a legitimate earlier crash
//!   state; recovery then lands in a consistent-but-older state that no
//!   detector can distinguish.
//! * **every corrupted region accounted for** — each damaged word is
//!   either inside a region the [`TriageReport`] names, or was erased
//!   outright (absent/zero words are indistinguishable from unused
//!   space — the documented detection limit).
//!
//! A contract violation is the campaign's failure condition: the
//! corruption op list is shrunk to a minimal reproducer, exactly like a
//! fuzz counterexample. Results aggregate into a per-(kind, arch)
//! triage matrix ([`CorruptReport::to_json`]) with `corrupt.*` metrics,
//! byte-identical across worker counts and across interrupt + resume
//! (the campaign runs on the shared resilient runtime:
//! checkpoint/resume, wall-clock deadline, panic quarantine).

use crate::campaign::{self, Campaign, Plan, Record};
use crate::resume::{CampaignDriver, HarnessPanic, ResumeError, RuntimeOptions};
use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_nvm::recovery::NvmImage;
use ede_nvm::triage::{log_slots, recover, Protocol, TriageReport};
use ede_nvm::Layout;
use ede_sim::run_program;
use ede_util::check::{minimize, shrinkable_vec};
use ede_util::progress;
use ede_util::rng::{mix64, SmallRng, SplitMix64};
use std::collections::BTreeSet;

/// One kind of at-rest media damage, applied to a crash image before
/// recovery. Labels, `ALL`, and `parse` mirror the
/// [`FaultInjection`](ede_mem::FaultInjection) conventions (`NAME[:N]`
/// count suffixes on the countable kinds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptionKind {
    /// `count` independent single-bit flips in existing words.
    BitFlip {
        /// How many bits to flip.
        count: u32,
    },
    /// `count` 8-byte words keep only one 32-bit half (a torn word
    /// write that straddled the crash).
    TornWord {
        /// How many words to tear.
        count: u32,
    },
    /// One 512-byte sector never reached the media: every word in it
    /// reads as pre-run zero.
    SectorTear,
    /// The image is cut off at a seeded word: everything at or above it
    /// is gone (a partial restore or a shrunk device).
    Truncate,
    /// One 64-byte line is overwritten with a copy of another line
    /// (firmware remap / wear-leveling bug).
    DuplicateRegion,
    /// One 64-byte line is wiped to all-zero bytes.
    WipeZero,
    /// One 64-byte line is wiped to all-one bits (erased flash block).
    WipeOnes,
}

impl CorruptionKind {
    /// Every kind, with count 1 on the countable ones — the default
    /// sweep.
    pub const ALL: [CorruptionKind; 7] = [
        CorruptionKind::BitFlip { count: 1 },
        CorruptionKind::TornWord { count: 1 },
        CorruptionKind::SectorTear,
        CorruptionKind::Truncate,
        CorruptionKind::DuplicateRegion,
        CorruptionKind::WipeZero,
        CorruptionKind::WipeOnes,
    ];

    /// Stable kebab-case label (report keys, metrics, CLI).
    pub fn label(self) -> &'static str {
        match self {
            CorruptionKind::BitFlip { .. } => "bit-flip",
            CorruptionKind::TornWord { .. } => "torn-word",
            CorruptionKind::SectorTear => "sector-tear",
            CorruptionKind::Truncate => "truncate",
            CorruptionKind::DuplicateRegion => "duplicate-region",
            CorruptionKind::WipeZero => "wipe-zero",
            CorruptionKind::WipeOnes => "wipe-ones",
        }
    }

    /// The label plus a `:N` count suffix when the count is not 1 —
    /// the exact string [`parse`](Self::parse) accepts.
    pub fn spec(self) -> String {
        match self {
            CorruptionKind::BitFlip { count } | CorruptionKind::TornWord { count }
                if count != 1 =>
            {
                format!("{}:{count}", self.label())
            }
            _ => self.label().to_string(),
        }
    }

    /// Parses a label, with an optional `:N` count suffix on the
    /// countable kinds (`bit-flip:8`).
    pub fn parse(s: &str) -> Option<CorruptionKind> {
        let (name, count) = match s.split_once(':') {
            Some((n, c)) => (n, Some(c.parse::<u32>().ok().filter(|&c| c > 0)?)),
            None => (s, None),
        };
        Some(match name {
            "bit-flip" => CorruptionKind::BitFlip {
                count: count.unwrap_or(1),
            },
            "torn-word" => CorruptionKind::TornWord {
                count: count.unwrap_or(1),
            },
            other => {
                if count.is_some() {
                    return None; // only the countable kinds take :N
                }
                match other {
                    "sector-tear" => CorruptionKind::SectorTear,
                    "truncate" => CorruptionKind::Truncate,
                    "duplicate-region" => CorruptionKind::DuplicateRegion,
                    "wipe-zero" => CorruptionKind::WipeZero,
                    "wipe-ones" => CorruptionKind::WipeOnes,
                    _ => return None,
                }
            }
        })
    }
}

/// One concrete byte-level mutation of a crash image. A corruption kind
/// lowers to a list of these against the pristine image, so any subset
/// is applicable — which is what makes the list shrinkable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptOp {
    /// Overwrite the 8-byte word at `addr`.
    Write {
        /// Word address (8-byte aligned).
        addr: u64,
        /// The damaged value.
        value: u64,
    },
    /// The word at `addr` never reached the media (reads as zero).
    Erase {
        /// Word address (8-byte aligned).
        addr: u64,
    },
}

impl CorruptOp {
    fn addr(self) -> u64 {
        match self {
            CorruptOp::Write { addr, .. } | CorruptOp::Erase { addr } => addr,
        }
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CorruptOptions {
    /// Base seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Cases per (kind, architecture) cell.
    pub cases: u32,
    /// Architectures whose crash images are drawn (crash-safe set).
    pub archs: Vec<ArchConfig>,
    /// Corruption kinds to sweep (defaults to the whole taxonomy).
    pub kinds: Vec<CorruptionKind>,
    /// Worker threads across cells: 0 = auto (`EDE_JOBS` or the host
    /// parallelism), 1 = sequential. The report is identical for every
    /// value.
    pub jobs: usize,
    /// Shrink budget for a contract-violation reproducer.
    pub max_shrink_iters: u32,
    /// Emit a per-cell progress line on stderr (0 = silent).
    pub progress_every: u32,
    /// Quiescence-aware fast-forwarding in each simulated run; the
    /// report is byte-identical either way.
    pub fast_forward: bool,
    /// Checkpoint/resume, deadline, and quarantine-budget settings
    /// (see [`RuntimeOptions`]); excluded from the fingerprint.
    pub runtime: RuntimeOptions,
    /// Self-test hook: deliberately panic the harness on this cell
    /// index (`--self-test-panic` in the CLI).
    pub self_test_panic: Option<u32>,
}

impl Default for CorruptOptions {
    fn default() -> Self {
        CorruptOptions {
            seed: 0,
            cases: 3,
            archs: vec![
                ArchConfig::Baseline,
                ArchConfig::IssueQueue,
                ArchConfig::WriteBuffer,
            ],
            kinds: CorruptionKind::ALL.to_vec(),
            jobs: 0,
            max_shrink_iters: 4096,
            progress_every: 0,
            fast_forward: true,
            runtime: RuntimeOptions::default(),
            self_test_panic: None,
        }
    }
}

/// The canonical options fingerprint recorded in checkpoints: every
/// option that can change the report, and nothing that cannot.
pub fn fingerprint(opts: &CorruptOptions) -> String {
    format!(
        "corrupt seed={:#x} cases={} archs=[{}] kinds=[{}] \
         max_shrink_iters={} fast_forward={} self_test_panic={:?}",
        opts.seed,
        opts.cases,
        opts.archs
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join(","),
        opts.kinds
            .iter()
            .map(|k| k.spec())
            .collect::<Vec<_>>()
            .join(","),
        opts.max_shrink_iters,
        opts.fast_forward,
        opts.self_test_panic,
    )
}

/// Triage-outcome counts (by [`RecoveryOutcome`] label) plus contract
/// violations for one (kind, architecture) cell.
///
/// [`RecoveryOutcome`]: ede_nvm::RecoveryOutcome
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellReport {
    /// The corruption kind applied.
    pub kind: CorruptionKind,
    /// The architecture whose crash images were damaged.
    pub arch: ArchConfig,
    /// Cases triage concluded `Clean`.
    pub clean: u32,
    /// Cases triage concluded `RolledBack`.
    pub rolled_back: u32,
    /// Cases triage concluded `RepairedTorn`.
    pub repaired_torn: u32,
    /// Cases triage concluded `Quarantined`.
    pub quarantined: u32,
    /// Cases triage concluded `Unrecoverable`.
    pub unrecoverable: u32,
    /// Cases where a triage contract was violated.
    pub violations: u32,
    /// Case index of the first violation, if any.
    first_violation: Option<u32>,
}

/// The names of a cell's counters, in [`CellReport::counts`] order: the
/// metrics registry's outcome keys and the checkpoint payload's.
const COUNTERS: [&str; 6] = [
    "clean",
    "rolled_back",
    "repaired_torn",
    "quarantined",
    "unrecoverable",
    "violations",
];

impl CellReport {
    /// Total cases the cell ran.
    pub fn total(&self) -> u32 {
        self.clean + self.rolled_back + self.repaired_torn + self.quarantined + self.unrecoverable
    }

    /// The counters, in [`COUNTERS`] order.
    fn counts(&self) -> [u32; 6] {
        [
            self.clean,
            self.rolled_back,
            self.repaired_torn,
            self.quarantined,
            self.unrecoverable,
            self.violations,
        ]
    }
}

/// A triage-contract violation, shrunk to a minimal corruption op list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorruptFailure {
    /// The corruption kind that produced the violating damage.
    pub kind: CorruptionKind,
    /// The architecture whose crash image it damaged.
    pub arch: ArchConfig,
    /// Which case (0-based, within the cell) failed.
    pub case: u32,
    /// The derived per-case seed (for direct replay).
    pub case_seed: u64,
    /// The minimal violating corruption op list.
    pub ops: Vec<CorruptOp>,
    /// Which contract broke, and how.
    pub detail: String,
    /// Successful shrink steps taken from the original op list.
    pub shrink_steps: u32,
}

/// The campaign's triage matrix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorruptReport {
    /// Echo of the base seed.
    pub seed: u64,
    /// Echo of the per-cell case budget.
    pub cases: u32,
    /// One entry per (kind, architecture), in sweep order. Cells the
    /// deadline interrupted or the quarantine caught are absent.
    pub cells: Vec<CellReport>,
    /// The first contract violation in cell order, already shrunk.
    pub failure: Option<CorruptFailure>,
    /// Whether the deadline tripped before every cell completed.
    pub interrupted: bool,
    /// Harness panics caught and quarantined instead of aborting the
    /// sweep, in cell order.
    pub quarantined: Vec<HarnessPanic>,
}

impl CorruptReport {
    /// Whether every case honored the triage contract.
    pub fn contract_holds(&self) -> bool {
        self.failure.is_none() && self.cells.iter().all(|c| c.violations == 0)
    }

    /// The matrix as a JSON document (stable key order, no trailing
    /// whitespace) — the campaign's machine-readable artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"cases_per_cell\": {},\n", self.cases));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kind\": \"{}\", \"arch\": \"{}\", \
                 \"outcomes\": {{\"clean\": {}, \"rolled-back\": {}, \
                 \"repaired-torn\": {}, \"quarantined\": {}, \
                 \"unrecoverable\": {}}}, \"violations\": {}}}{}\n",
                c.kind.spec(),
                c.arch.label(),
                c.clean,
                c.rolled_back,
                c.repaired_torn,
                c.quarantined,
                c.unrecoverable,
                c.violations,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&campaign::runtime_json(self.interrupted, &self.quarantined));
        s.push_str(&format!(
            "  \"contract_holds\": {}\n",
            self.contract_holds()
        ));
        s.push('}');
        s
    }

    /// The triage matrix as a metrics registry:
    /// `corrupt.<kind>.<arch>.<outcome>` counters plus campaign
    /// roll-ups. A pure function of the (already jobs-invariant)
    /// report.
    pub fn metrics(&self) -> ede_util::obs::Registry {
        let mut reg = ede_util::obs::Registry::new();
        for c in &self.cells {
            let cell = format!("corrupt.{}.{}", c.kind.label(), c.arch.label());
            for (outcome, n) in COUNTERS.into_iter().zip(c.counts()) {
                reg.inc(format!("{cell}.{outcome}"), u64::from(n));
            }
        }
        reg.inc("corrupt.cells", self.cells.len() as u64);
        reg.inc("corrupt.cases_per_cell", u64::from(self.cases));
        reg.inc(
            "corrupt.violations_total",
            self.cells.iter().map(|c| u64::from(c.violations)).sum(),
        );
        reg
    }
}

/// Everything one case needs besides the corruption itself — built once
/// and reused across shrink iterations, so shrinking never re-runs the
/// simulator.
struct CaseContext {
    protocol: Protocol,
    layout: Layout,
    /// The uncorrupted crash image (init writes merged in).
    pristine: NvmImage,
    /// Recovery of the uncorrupted image: the differential oracle.
    golden: NvmImage,
    golden_report: TriageReport,
    /// The seeded corruption for this case.
    ops: Vec<CorruptOp>,
}

/// Lowers one corruption kind to a concrete op list against `image`.
/// Targets only addresses the image holds (and, for wipes, the rest of
/// their 64-byte lines), so damage always lands where it can matter.
fn gen_ops(kind: CorruptionKind, rng: &mut SmallRng, image: &NvmImage) -> Vec<CorruptOp> {
    // HashMap iteration order is arbitrary: sort for determinism.
    let mut addrs: Vec<u64> = image.keys().copied().collect();
    addrs.sort_unstable();
    if addrs.is_empty() {
        return Vec::new();
    }
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let pick =
        |rng: &mut SmallRng, addrs: &[u64]| addrs[rng.gen_range(0..addrs.len() as u64) as usize];
    let mut ops = Vec::new();
    match kind {
        CorruptionKind::BitFlip { count } => {
            for _ in 0..count {
                let addr = pick(rng, &addrs);
                let bit = rng.gen_range(0u64..64);
                ops.push(CorruptOp::Write {
                    addr,
                    value: rd(addr) ^ (1u64 << bit),
                });
            }
        }
        CorruptionKind::TornWord { count } => {
            for _ in 0..count {
                let addr = pick(rng, &addrs);
                let keep = if rng.gen_bool(0.5) {
                    0xFFFF_FFFFu64
                } else {
                    !0xFFFF_FFFFu64
                };
                ops.push(CorruptOp::Write {
                    addr,
                    value: rd(addr) & keep,
                });
            }
        }
        CorruptionKind::SectorTear => {
            let sector = pick(rng, &addrs) & !511;
            for &a in addrs.iter().filter(|&&a| a & !511 == sector) {
                ops.push(CorruptOp::Erase { addr: a });
            }
        }
        CorruptionKind::Truncate => {
            let cutoff = pick(rng, &addrs);
            for &a in addrs.iter().filter(|&&a| a >= cutoff) {
                ops.push(CorruptOp::Erase { addr: a });
            }
        }
        CorruptionKind::DuplicateRegion => {
            let mut lines: Vec<u64> = addrs.iter().map(|&a| a & !63).collect();
            lines.dedup();
            let src = pick(rng, &lines);
            let dst = pick(rng, &lines);
            for w in 0..8u64 {
                ops.push(match image.get(&(src + w * 8)) {
                    Some(&v) => CorruptOp::Write {
                        addr: dst + w * 8,
                        value: v,
                    },
                    None => CorruptOp::Erase { addr: dst + w * 8 },
                });
            }
        }
        CorruptionKind::WipeZero => {
            let line = pick(rng, &addrs) & !63;
            for w in 0..8u64 {
                ops.push(CorruptOp::Write {
                    addr: line + w * 8,
                    value: 0,
                });
            }
        }
        CorruptionKind::WipeOnes => {
            let line = pick(rng, &addrs) & !63;
            for w in 0..8u64 {
                ops.push(CorruptOp::Write {
                    addr: line + w * 8,
                    value: u64::MAX,
                });
            }
        }
    }
    ops
}

/// Applies `ops` to a copy of `pristine`; returns the damaged image and
/// the set of words whose *read value* changed (absent reads as zero).
fn apply_ops(pristine: &NvmImage, ops: &[CorruptOp]) -> (NvmImage, BTreeSet<u64>) {
    let mut image = pristine.clone();
    for op in ops {
        match *op {
            CorruptOp::Write { addr, value } => {
                image.insert(addr, value);
            }
            CorruptOp::Erase { addr } => {
                image.remove(&addr);
            }
        }
    }
    let rd = |img: &NvmImage, a: u64| img.get(&a).copied().unwrap_or(0);
    let dirty = ops
        .iter()
        .map(|op| op.addr())
        .filter(|&a| rd(pristine, a) != rd(&image, a))
        .collect();
    (image, dirty)
}

/// Whether a heap-word mismatch at `addr` is excused because its only
/// log witness was destroyed: some entry in the *pristine* image
/// targets `addr` and that entry's slot line intersects the damage. An
/// erased or zeroed slot is indistinguishable from an unused one — no
/// single-copy log format can detect the loss.
fn witness_destroyed(
    addr: u64,
    pristine: &NvmImage,
    layout: &Layout,
    dirty: &BTreeSet<u64>,
) -> bool {
    log_slots(pristine, layout).iter().any(|s| {
        s.entry.is_some_and(|e| e.addr == addr) && dirty.range(s.addr..s.addr + 64).next().is_some()
    })
}

/// Whether the damage touched a **twin** marker word — the commit-point
/// authority itself. The twin is written strictly first, so it is
/// always the newest witness; if corruption rewrites or erases it
/// inside the window where the primary has not caught up yet (e.g. the
/// very first commit, primary still fresh), the damaged image is
/// byte-indistinguishable from a legitimate *earlier* crash state, and
/// recovery lands in a consistent-but-older state no detector can tell
/// apart. Damage confined to the primary never qualifies: the surviving
/// twin either heals it or outranks it.
fn commit_witness_destroyed(ctx: &CaseContext, dirty: &BTreeSet<u64>) -> bool {
    let (_, twin) = ctx.protocol.superblock(&ctx.layout);
    ctx.protocol
        .marker_offsets()
        .iter()
        .any(|&off| dirty.contains(&(twin + off)))
}

/// Evaluates the triage contract for one damaged image. `None` means
/// the contract held; `Some` names the first violated clause.
fn evaluate(ctx: &CaseContext, ops: &[CorruptOp]) -> Option<String> {
    if !ctx.golden_report.outcome.is_strong_claim() {
        return Some(format!(
            "uncorrupted image did not triage to a strong claim: {}",
            ctx.golden_report.outcome
        ));
    }
    let (damaged, dirty) = apply_ops(&ctx.pristine, ops);
    let mut recovered = damaged.clone();
    let report = recover(&mut recovered, &ctx.layout, ctx.protocol);
    let rd = |img: &NvmImage, a: u64| img.get(&a).copied().unwrap_or(0);
    // Contract B: a strong claim must match recovery of the undamaged
    // image — same committed id, same heap contents (modulo the
    // carve-outs the module docs spell out). When the twin marker — the
    // commit witness everything downstream keys off — was itself
    // damaged, the differential check is unsound and the whole clause
    // is excused.
    if report.outcome.is_strong_claim() && !commit_witness_destroyed(ctx, &dirty) {
        if report.committed != ctx.golden_report.committed {
            return Some(format!(
                "strong claim `{}` resolved committed tx {} but the undamaged \
                 image resolves tx {}",
                report.outcome.label(),
                report.committed,
                ctx.golden_report.committed
            ));
        }
        let heap_words: BTreeSet<u64> = ctx
            .golden
            .keys()
            .chain(recovered.keys())
            .copied()
            .filter(|&a| a >= ctx.layout.heap_base)
            .collect();
        for a in heap_words {
            let want = rd(&ctx.golden, a);
            let got = rd(&recovered, a);
            if want == got {
                continue;
            }
            if dirty.contains(&a) {
                continue; // unprotected heap damage — triage never vouched
            }
            if witness_destroyed(a, &ctx.pristine, &ctx.layout, &dirty) {
                continue; // the word's only log witness was destroyed
            }
            return Some(format!(
                "strong claim `{}` but heap word {a:#x} recovered to {got:#x}, \
                 undamaged recovery gives {want:#x}",
                report.outcome.label()
            ));
        }
    }
    // Contract C: every damaged word is accounted for — inside a
    // reported region, or erased outright (undetectable).
    for &a in &dirty {
        if report.region_covering(a).is_some() {
            continue;
        }
        if rd(&damaged, a) == 0 {
            continue; // erased to blank — indistinguishable from unused
        }
        return Some(format!(
            "damaged word {a:#x} (value {:#x}) is in no reported region",
            rd(&damaged, a)
        ));
    }
    None
}

/// Builds one case: seeded protocol choice, the simulated transaction
/// program, a seeded crash instant's image, the golden recovery of it,
/// and the seeded corruption ops.
fn build_case(case_seed: u64, kind: CorruptionKind, arch: ArchConfig, ff: bool) -> CaseContext {
    let mut rng = SmallRng::seed_from_u64(mix64(case_seed ^ 0xC0_44_0F));
    // A fair coin picks undo (heads) or redo logging.
    let redo = !rng.gen_bool(0.5);
    let out = crate::inject::tx_case_program(case_seed, arch, redo);
    let result = run_program("corrupt", out, arch, &crate::inject::inject_sim(None, ff))
        .expect("corruption-probe programs complete");
    let (layout, protocol) = (result.output.layout, result.output.protocol);
    let mut cycles: Vec<u64> = result.trace.persists.iter().map(|p| p.cycle).collect();
    cycles.sort_unstable();
    cycles.dedup();
    let crash = if cycles.is_empty() {
        result.trace.horizon()
    } else {
        cycles[rng.gen_range(0..cycles.len() as u64) as usize]
    };
    let mut pristine = nvm_image_at(&result.trace, crash, 64);
    for &(a, v) in result.output.init_writes.iter() {
        pristine.entry(a).or_insert(v);
    }
    let mut golden = pristine.clone();
    let golden_report = recover(&mut golden, &layout, protocol);
    let ops = gen_ops(kind, &mut rng, &pristine);
    CaseContext {
        protocol,
        layout,
        pristine,
        golden,
        golden_report,
        ops,
    }
}

/// The per-case seed stream for one (kind, arch) cell — derived from
/// the master seed and the cell's *identity*, not its position in the
/// sweep matrix, so a single-cell replay (`--kind X --arch Y`) draws
/// exactly the seeds the full-matrix campaign drew for that cell, and
/// every job count and kind/arch filter sees the same stream.
fn cell_seeds(opts: &CorruptOptions, kind: CorruptionKind, arch: ArchConfig) -> SplitMix64 {
    let mut h = mix64(opts.seed);
    for b in kind.spec().bytes().chain(arch.label().bytes()) {
        h = mix64(h ^ u64::from(b));
    }
    SplitMix64::new(h)
}

fn run_cell(opts: &CorruptOptions, kind: CorruptionKind, arch: ArchConfig) -> CellReport {
    let mut seeds = cell_seeds(opts, kind, arch);
    let mut report = CellReport {
        kind,
        arch,
        clean: 0,
        rolled_back: 0,
        repaired_torn: 0,
        quarantined: 0,
        unrecoverable: 0,
        violations: 0,
        first_violation: None,
    };
    for case in 0..opts.cases {
        let case_seed = seeds.next_u64();
        let ctx = build_case(case_seed, kind, arch, opts.fast_forward);
        let (damaged, _) = apply_ops(&ctx.pristine, &ctx.ops);
        let mut recovered = damaged;
        let outcome = recover(&mut recovered, &ctx.layout, ctx.protocol).outcome;
        match outcome.label() {
            "clean" => report.clean += 1,
            "rolled-back" => report.rolled_back += 1,
            "repaired-torn" => report.repaired_torn += 1,
            "quarantined" => report.quarantined += 1,
            _ => report.unrecoverable += 1,
        }
        if evaluate(&ctx, &ctx.ops).is_some() {
            report.violations += 1;
            report.first_violation.get_or_insert(case);
        }
    }
    if opts.progress_every > 0 {
        progress::stderr().line(&format!(
            "corrupt: {}/{}: {} case(s), {} violation(s)",
            kind.label(),
            arch.label(),
            report.total(),
            report.violations,
        ));
    }
    report
}

/// Serializes one cell's counters for the checkpoint payload store.
fn cell_payload(c: &CellReport) -> String {
    campaign::counters_payload(&COUNTERS, &c.counts(), "first_violation", c.first_violation)
}

/// Restores one cell from its checkpoint payload.
fn parse_cell_payload(
    data: &str,
    kind: CorruptionKind,
    arch: ArchConfig,
) -> Result<CellReport, String> {
    let (n, first_violation) = campaign::parse_counters(data, &COUNTERS, "first_violation")?;
    Ok(CellReport {
        kind,
        arch,
        clean: n[0],
        rolled_back: n[1],
        repaired_torn: n[2],
        quarantined: n[3],
        unrecoverable: n[4],
        violations: n[5],
        first_violation,
    })
}

/// Regenerates a cell's violating case from its index and shrinks the
/// corruption op list — always on the caller's thread, so the
/// reproducer is identical however the campaign was parallelized.
/// Shrinking re-evaluates against the cached case context (no simulator
/// re-runs).
fn violation_failure(
    opts: &CorruptOptions,
    kind: CorruptionKind,
    arch: ArchConfig,
    case: u32,
) -> CorruptFailure {
    let mut seeds = cell_seeds(opts, kind, arch);
    seeds.jump(u64::from(case));
    let case_seed = seeds.next_u64();
    let ctx = build_case(case_seed, kind, arch, opts.fast_forward);
    let (ops, shrink_steps) = minimize(
        shrinkable_vec(ctx.ops.clone(), 0),
        opts.max_shrink_iters,
        |ops| evaluate(&ctx, ops).is_some(),
    );
    let detail = evaluate(&ctx, &ops)
        .unwrap_or_else(|| "violation did not reproduce at regeneration".to_string());
    CorruptFailure {
        kind,
        arch,
        case,
        case_seed,
        ops,
        detail,
        shrink_steps,
    }
}

/// Runs the campaign. Deterministic in `opts` — including `jobs`: cells
/// fan out across workers, per-cell seed streams derive from each
/// cell's (kind, arch) identity, and the first violation (in cell
/// order) is regenerated and shrunk sequentially, so every job count
/// yields the same [`CorruptReport`] bit for bit.
///
/// # Panics
///
/// When [`CorruptOptions::runtime`] persistence hits an I/O error — use
/// [`corrupt_campaign`] to handle checkpoint failures as values.
pub fn corrupt(opts: &CorruptOptions) -> CorruptReport {
    corrupt_campaign(opts).expect("campaign runtime error")
}

/// [`corrupt`] with the resilient campaign runtime surfaced: checkpoint
/// and resume errors come back as typed [`ResumeError`]s. Work units
/// are matrix cells; completed cells persist their counters in the
/// checkpoint payload store and are restored verbatim on resume, so a
/// resumed campaign's report is byte-identical to an uninterrupted one.
///
/// # Errors
///
/// A [`ResumeError`] when the resume checkpoint is missing, malformed,
/// or fingerprint-mismatched, or when a checkpoint flush failed.
pub fn corrupt_campaign(opts: &CorruptOptions) -> Result<CorruptReport, ResumeError> {
    let (mut cells, mut failure) = (Vec::new(), None);
    let sweep = campaign::run(opts, |_, r: CellReport| {
        if failure.is_none() {
            failure = r
                .first_violation
                .map(|case| violation_failure(opts, r.kind, r.arch, case));
        }
        cells.push(r);
    })?;
    Ok(CorruptReport {
        seed: opts.seed,
        cases: opts.cases,
        cells,
        failure,
        interrupted: sweep.interrupted,
        quarantined: sweep.quarantined,
    })
}

impl CorruptOptions {
    /// Matrix cell `i` in sweep order: kinds outer, archs inner.
    fn cell(&self, i: usize) -> (CorruptionKind, ArchConfig) {
        (
            self.kinds[i / self.archs.len()],
            self.archs[i % self.archs.len()],
        )
    }
}

/// The triage matrix as a [`Campaign`]: one unit per (kind, arch)
/// cell, whose counters are the checkpoint payload.
impl Campaign for CorruptOptions {
    type Unit = CellReport;

    fn plan(&self) -> Plan<'_> {
        Plan {
            kind: "corrupt",
            noun: "cell",
            fingerprint: fingerprint(self),
            seed: self.seed,
            units: self.kinds.len() * self.archs.len(),
            jobs: self.jobs,
            runtime: &self.runtime,
            self_test_panic: self.self_test_panic,
        }
    }

    fn run_unit(&self, unit: usize, _: &CampaignDriver) -> Option<CellReport> {
        let (kind, arch) = self.cell(unit);
        Some(run_cell(self, kind, arch))
    }

    fn record(&self, cell: &CellReport) -> Record {
        Record::Done(Some(cell_payload(cell)))
    }

    fn decode(&self, unit: usize, data: &str) -> Result<CellReport, String> {
        let (kind, arch) = self.cell(unit);
        parse_cell_payload(data, kind, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_nvm::RecoveryOutcome;

    #[test]
    fn kind_labels_parse_and_round_trip() {
        for kind in CorruptionKind::ALL {
            assert_eq!(CorruptionKind::parse(&kind.spec()), Some(kind));
            assert_eq!(CorruptionKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(
            CorruptionKind::parse("bit-flip:8"),
            Some(CorruptionKind::BitFlip { count: 8 })
        );
        assert_eq!(CorruptionKind::BitFlip { count: 8 }.spec(), "bit-flip:8");
        assert_eq!(CorruptionKind::parse("bit-flip:0"), None);
        assert_eq!(CorruptionKind::parse("wipe-zero:2"), None);
        assert_eq!(CorruptionKind::parse("rowhammer"), None);
    }

    #[test]
    fn every_kind_holds_the_contract_on_baseline() {
        let report = corrupt(&CorruptOptions {
            cases: 2,
            archs: vec![ArchConfig::Baseline],
            ..CorruptOptions::default()
        });
        assert_eq!(report.cells.len(), CorruptionKind::ALL.len());
        assert!(report.contract_holds(), "{report:?}");
        // The sweep is not vacuous: corruption must actually perturb
        // triage somewhere (repairs, quarantines, or refusals).
        let perturbed: u32 = report
            .cells
            .iter()
            .map(|c| c.repaired_torn + c.quarantined + c.unrecoverable)
            .sum();
        assert!(perturbed > 0, "no corruption was ever noticed: {report:?}");
    }

    #[test]
    fn ede_archs_hold_the_contract() {
        let report = corrupt(&CorruptOptions {
            cases: 2,
            archs: vec![ArchConfig::IssueQueue, ArchConfig::WriteBuffer],
            kinds: vec![
                CorruptionKind::TornWord { count: 1 },
                CorruptionKind::WipeZero,
            ],
            ..CorruptOptions::default()
        });
        assert!(report.contract_holds(), "{report:?}");
        assert_eq!(report.cells.len(), 4);
    }

    #[test]
    fn torn_superblock_case_lands_in_repaired_torn() {
        // A torn primary commit marker, by hand: the twin heals it and
        // the repaired image equals golden recovery exactly.
        let ctx = build_case(
            7,
            CorruptionKind::TornWord { count: 1 },
            ArchConfig::Baseline,
            true,
        );
        let marker = ctx.pristine[&ctx.layout.log_header];
        let ops = vec![CorruptOp::Write {
            addr: ctx.layout.log_header,
            value: marker & 0xFFFF_FFFF,
        }];
        assert_eq!(evaluate(&ctx, &ops), None);
        let (damaged, _) = apply_ops(&ctx.pristine, &ops);
        let mut recovered = damaged;
        let report = recover(&mut recovered, &ctx.layout, ctx.protocol);
        assert!(
            matches!(report.outcome, RecoveryOutcome::RepairedTorn { .. }),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.committed, ctx.golden_report.committed);
        assert_eq!(
            recovered[&ctx.layout.log_header], ctx.golden[&ctx.layout.log_header],
            "the torn marker was healed to the golden value"
        );
    }

    /// Cases (by seed) on B and WB that draw `protocol` and whose crash
    /// image holds log slot 0, so damage to the log lands on live words.
    fn cases_with_a_logged_slot(protocol: Protocol) -> Vec<CaseContext> {
        let slot = Layout::standard().slot_addr(0);
        let cases: Vec<CaseContext> = [ArchConfig::Baseline, ArchConfig::WriteBuffer]
            .into_iter()
            .flat_map(|arch| {
                (0u64..64)
                    .map(move |seed| {
                        build_case(seed, CorruptionKind::BitFlip { count: 1 }, arch, true)
                    })
                    .filter(|ctx| {
                        ctx.protocol == protocol
                            && (0..8u64).any(|w| ctx.pristine.contains_key(&(slot + 8 * w)))
                    })
                    .take(3)
            })
            .collect();
        assert_eq!(cases.len(), 6, "{protocol:?}");
        cases
    }

    #[test]
    fn log_slot_bit_flips_hold_the_contract() {
        for protocol in [Protocol::Undo, Protocol::Redo] {
            for ctx in cases_with_a_logged_slot(protocol) {
                let slots = ctx.layout.slot_addr(0)..ctx.layout.slot_addr(2);
                let words: Vec<(u64, u64)> = ctx
                    .pristine
                    .iter()
                    .filter(|(a, _)| slots.contains(a))
                    .map(|(&a, &v)| (a, v))
                    .collect();
                assert!(!words.is_empty());
                for (addr, value) in words {
                    for bit in [0, 31, 32, 63] {
                        let ops = [CorruptOp::Write {
                            addr,
                            value: value ^ (1u64 << bit),
                        }];
                        let verdict = evaluate(&ctx, &ops);
                        assert_eq!(verdict, None, "{protocol:?}: bit {bit} of {addr:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn lost_lines_hold_the_contract() {
        for protocol in [Protocol::Undo, Protocol::Redo] {
            for ctx in cases_with_a_logged_slot(protocol) {
                for line in [
                    ctx.layout.heap_base,
                    ctx.layout.slot_addr(0),
                    ctx.layout.log_header,
                ] {
                    let line = line & !63;
                    let ops: Vec<CorruptOp> = (0..8u64)
                        .map(|w| CorruptOp::Erase { addr: line + 8 * w })
                        .collect();
                    assert_eq!(
                        evaluate(&ctx, &ops),
                        None,
                        "{protocol:?}: line {line:#x} lost"
                    );
                }
            }
        }
    }

    #[test]
    fn shrinking_reduces_to_the_essential_op() {
        // A wipe of the whole twin line violates nothing by itself, but
        // the predicate "ops touch the twin marker word" must shrink to
        // exactly that one op.
        let layout = Layout::standard();
        let ops: Vec<CorruptOp> = (0..8u64)
            .map(|w| CorruptOp::Write {
                addr: layout.log_header_twin + w * 8,
                value: 0,
            })
            .collect();
        let (minimal, steps) = minimize(shrinkable_vec(ops, 0), 4096, |ops| {
            ops.iter().any(|op| op.addr() == layout.log_header_twin)
        });
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].addr(), layout.log_header_twin);
        assert!(steps > 0);
    }

    #[test]
    fn report_is_identical_for_every_job_count() {
        let opts = CorruptOptions {
            cases: 1,
            kinds: vec![
                CorruptionKind::BitFlip { count: 1 },
                CorruptionKind::WipeOnes,
            ],
            archs: vec![ArchConfig::Baseline, ArchConfig::WriteBuffer],
            jobs: 1,
            ..CorruptOptions::default()
        };
        let base = corrupt(&opts);
        for jobs in [2, 4] {
            let report = corrupt(&CorruptOptions {
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
            kind: CorruptionKind::SectorTear,
            arch: ArchConfig::IssueQueue,
            clean: 3,
            rolled_back: 2,
            repaired_torn: 1,
            quarantined: 4,
            unrecoverable: 0,
            violations: 1,
            first_violation: Some(6),
        };
        let parsed = parse_cell_payload(
            &cell_payload(&cell),
            CorruptionKind::SectorTear,
            ArchConfig::IssueQueue,
        )
        .expect("round trip");
        assert_eq!(parsed, cell);
        assert!(parse_cell_payload("{}", cell.kind, cell.arch).is_err());
    }

    #[test]
    fn self_test_panic_quarantines_the_cell_and_the_sweep_finishes() {
        let report = corrupt(&CorruptOptions {
            cases: 1,
            kinds: vec![CorruptionKind::WipeZero, CorruptionKind::WipeOnes],
            archs: vec![ArchConfig::Baseline],
            self_test_panic: Some(0),
            ..CorruptOptions::default()
        });
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
        let report = corrupt(&CorruptOptions {
            cases: 1,
            kinds: vec![CorruptionKind::BitFlip { count: 1 }],
            archs: vec![ArchConfig::Baseline],
            ..CorruptOptions::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"kind\": \"bit-flip\""));
        assert!(json.contains("\"arch\": \"B\""));
        assert!(json.contains("\"outcomes\": {\"clean\":"));
        assert!(json.contains("\"contract_holds\": true"));
        let reg = report.metrics();
        assert!(reg.to_json().contains("corrupt.bit-flip.B.clean"));
    }
}
