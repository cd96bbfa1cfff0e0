//! Recovery — one entry point per failure-atomicity protocol, hardened
//! against at-rest corruption.
//!
//! [`recover`] runs a [`Protocol`]'s recovery over an NVM image (undo
//! rollback, redo replay, or CoW root resolution) and reports **what it
//! found, what it repaired, and what it cannot vouch for**. The same
//! path serves crash images the simulated machine left behind (the crash
//! checker, where every byte was written by our own code) and images
//! damaged at rest by media bit rot, torn sectors or partial wipes (the
//! `corrupt` campaign in `ede_check`). Every result uses one taxonomy:
//!
//! | outcome                    | meaning                                      |
//! |----------------------------|----------------------------------------------|
//! | [`RecoveryOutcome::Clean`] | nothing to do; image already consistent      |
//! | [`RecoveryOutcome::RolledBack`] | ordinary recovery work (undo/redo/none) |
//! | [`RecoveryOutcome::RepairedTorn`] | damage found *and fully repaired* from redundancy |
//! | [`RecoveryOutcome::Quarantined`] | damage found that redundancy cannot disambiguate |
//! | [`RecoveryOutcome::Unrecoverable`] | the image is not (or no longer) ours |
//!
//! The first three are **strong claims**: the recovered image is
//! byte-equal to what recovery of the uncorrupted image would have
//! produced (the `corrupt` campaign enforces this differentially). The
//! last two are honest refusals with a diagnosis; the crash checker
//! refuses only `Unrecoverable`.
//!
//! Repair is possible because the image format carries redundancy:
//! every log entry is checksummed ([`decode_entry`]), the superblock
//! marker words are self-validating ([`classify_marker`]) and duplicated
//! on a non-adjacent twin line written strictly first
//! ([`resolve_marker`]), and both header lines carry a [`MAGIC`] word so
//! a wiped image is distinguishable from a fresh one.
//!
//! Undo and redo share the superblock triage and one walk over the log
//! slots that hold stored words ([`log_slots`]); CoW resolves its
//! twin root lines. [`scrub`] reports the same verdict without
//! modifying the image.
//!
//! Each protocol's recovery is one step sequence run in two stages: an
//! in-place replay (superblock triage, slot walk, heals, the selected
//! entries applied) and a report builder that classifies and describes
//! every region of the replayed image. [`recover`] and [`scrub`] run
//! both. [`replay`] runs only the first and returns the committed id or
//! the unrecoverable diagnosis. The crash checker reads nothing else,
//! and the report formats a detail per region, which costs about as
//! much as the replay itself.

use crate::cow::{decode_root, CowMeta};
use crate::layout::Layout;
use crate::log::{
    classify_marker, decode_entry, resolve_marker, LogEntry, MarkerCopy, MAGIC, OFF_MAGIC,
};
use crate::recovery::NvmImage;
use crate::redo::OFF_APPLIED;
use std::fmt;

/// The failure-atomicity protocol that wrote an image (§II-A), which
/// picks the recovery [`recover`] runs. Each writer records its own in
/// [`TxOutput::protocol`](crate::TxOutput::protocol).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// Undo logging: roll back entries newer than the committed marker.
    Undo,
    /// Redo logging: replay entries committed but not yet applied.
    Redo,
    /// Copy-on-write: resolve the root line pair; no log to walk.
    Cow(CowMeta),
}

impl Protocol {
    /// The `(primary, twin)` superblock lines holding the commit point:
    /// the log header pair for undo and redo, the root lines for CoW.
    pub fn superblock(&self, layout: &Layout) -> (u64, u64) {
        match self {
            Protocol::Undo | Protocol::Redo => (layout.log_header, layout.log_header_twin),
            Protocol::Cow(meta) => (meta.root_line, meta.root_twin),
        }
    }

    /// Byte offsets, within each superblock line, of the words the
    /// commit point is made of: the committed marker (plus redo's
    /// applied marker), or CoW's `(root ptr, marker)` pair.
    pub fn marker_offsets(&self) -> &'static [u64] {
        match self {
            Protocol::Undo => &[0],
            Protocol::Redo => &[0, OFF_APPLIED],
            Protocol::Cow(_) => &[0, 8],
        }
    }
}

/// What triage concluded about an image, strongest guarantee first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoveryOutcome {
    /// No uncommitted work, no damage: the image was already consistent.
    Clean,
    /// Ordinary recovery ran (undo rollback or redo replay of `entries`
    /// log entries); no media damage was found.
    RolledBack {
        /// Log entries rolled back (undo) or replayed (redo).
        entries: usize,
    },
    /// Media damage was found and *fully repaired* from on-image
    /// redundancy (twin superblock line, entry checksums); the repaired
    /// image is byte-equal to recovery of an undamaged one.
    RepairedTorn {
        /// Log entries processed by the recovery that ran after repair.
        entries: usize,
    },
    /// Damage was found that redundancy cannot disambiguate; recovery
    /// ran best-effort but the result carries no consistency claim.
    Quarantined {
        /// Damaged regions that could not be repaired.
        entries: usize,
        /// The first (most severe) diagnosis.
        reason: String,
    },
    /// The image does not identify as ours (magic destroyed on both
    /// header lines) or every copy of a critical structure is gone.
    /// Nothing was modified.
    Unrecoverable {
        /// Why no recovery was attempted.
        diagnosis: String,
    },
}

impl RecoveryOutcome {
    /// Stable kebab-case label (metrics keys, report matrices).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::RolledBack { .. } => "rolled-back",
            RecoveryOutcome::RepairedTorn { .. } => "repaired-torn",
            RecoveryOutcome::Quarantined { .. } => "quarantined",
            RecoveryOutcome::Unrecoverable { .. } => "unrecoverable",
        }
    }

    /// Whether this outcome claims the recovered image is byte-equal to
    /// recovery of an undamaged image (the differential contract the
    /// `corrupt` campaign enforces).
    pub fn is_strong_claim(&self) -> bool {
        matches!(
            self,
            RecoveryOutcome::Clean
                | RecoveryOutcome::RolledBack { .. }
                | RecoveryOutcome::RepairedTorn { .. }
        )
    }
}

impl fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryOutcome::Clean => write!(f, "clean"),
            RecoveryOutcome::RolledBack { entries } => {
                write!(f, "rolled back {entries} entries")
            }
            RecoveryOutcome::RepairedTorn { entries } => {
                write!(
                    f,
                    "repaired torn superblock, then processed {entries} entries"
                )
            }
            RecoveryOutcome::Quarantined { entries, reason } => {
                write!(f, "quarantined {entries} regions: {reason}")
            }
            RecoveryOutcome::Unrecoverable { diagnosis } => {
                write!(f, "unrecoverable: {diagnosis}")
            }
        }
    }
}

/// How one byte range of the image reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionClass {
    /// Decodes and validates (or is legitimately blank).
    Valid,
    /// Damaged, but healed from redundancy — post-triage content is
    /// trustworthy.
    Repaired,
    /// Damaged beyond what redundancy can disambiguate.
    Quarantined,
    /// Carries no media-level integrity (application heap data): triage
    /// can neither validate nor refute it.
    Unprotected,
}

impl RegionClass {
    /// Stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            RegionClass::Valid => "valid",
            RegionClass::Repaired => "repaired",
            RegionClass::Quarantined => "quarantined",
            RegionClass::Unprotected => "unprotected",
        }
    }
}

/// One classified byte range `[start, end)` of the image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionReport {
    /// First byte of the region.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// The classification.
    pub class: RegionClass,
    /// Human-readable diagnosis ("log entry tx 3", "trailing garbage…").
    pub detail: String,
}

impl fmt::Display for RegionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#x}, {:#x}) {}: {}",
            self.start,
            self.end,
            self.class.label(),
            self.detail
        )
    }
}

/// The structured result of a triage pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TriageReport {
    /// The overall conclusion.
    pub outcome: RecoveryOutcome,
    /// The committed transaction id triage resolved (0 when
    /// unrecoverable).
    pub committed: u64,
    /// Every classified byte range, ascending by `start`.
    pub regions: Vec<RegionReport>,
}

impl TriageReport {
    /// Number of regions in `class`.
    pub fn count(&self, class: RegionClass) -> usize {
        self.regions.iter().filter(|r| r.class == class).count()
    }

    /// The region containing byte `addr`, if any.
    pub fn region_covering(&self, addr: u64) -> Option<&RegionReport> {
        self.regions
            .iter()
            .find(|r| r.start <= addr && addr < r.end)
    }
}

/// One log slot holding at least one nonzero word, as the slot walk
/// reads it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogSlot {
    /// Slot index, `0..layout.log_slots`.
    pub index: u64,
    /// First byte of the slot's 64-byte line.
    pub addr: u64,
    /// The entry, when its checksum validates.
    pub entry: Option<LogEntry>,
    /// Whether a word beyond the 32-byte entry is nonzero.
    pub trailing_garbage: bool,
}

impl LogSlot {
    /// Whether triage quarantines the slot: trailing garbage, or a
    /// non-blank entry that fails its checksum.
    fn is_damaged(&self) -> bool {
        self.trailing_garbage || self.entry.is_none()
    }

    fn region(&self) -> RegionReport {
        let (class, detail) = if self.trailing_garbage {
            (
                RegionClass::Quarantined,
                format!("log slot {}: garbage beyond the 32-byte entry", self.index),
            )
        } else if let Some(e) = self.entry {
            // Byte-identical slots are *not* flagged: the redo writer
            // appends one entry per `write` call, so a transaction that
            // stores the same value to the same word twice legitimately
            // leaves two identical slots — and replaying (or rolling
            // back) a duplicated entry is idempotent, so a copied slot
            // line cannot change what recovery produces.
            (
                RegionClass::Valid,
                format!("log entry tx {} for {:#x}", e.txid, e.addr),
            )
        } else {
            (
                RegionClass::Quarantined,
                format!(
                    "log slot {}: non-blank entry fails checksum validation",
                    self.index
                ),
            )
        };
        RegionReport {
            start: self.addr,
            end: self.addr + 64,
            class,
            detail,
        }
    }
}

/// The log slots of `image` that hold a nonzero word, ascending by
/// index. They are found from the image's keys, so the walk costs the
/// size of the image rather than a probe of every slot.
pub fn log_slots(image: &NvmImage, layout: &Layout) -> Vec<LogSlot> {
    let slots_end = layout.log_base + layout.log_slots * 64;
    let mut indices: Vec<u64> = image
        .keys()
        .filter(|&&a| (layout.log_base..slots_end).contains(&a))
        .map(|&a| (a - layout.log_base) / 64)
        .collect();
    indices.sort_unstable();
    indices.dedup();
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    indices
        .into_iter()
        .filter_map(|index| {
            let addr = layout.log_base + index * 64;
            let words: [u64; 8] = std::array::from_fn(|w| rd(addr + w as u64 * 8));
            // A slot whose stored words are all zero is blank.
            if words.iter().all(|&w| w == 0) {
                return None;
            }
            Some(LogSlot {
                index,
                addr,
                entry: decode_entry(addr, |a| words[((a - addr) / 8) as usize]),
                trailing_garbage: words[4..].iter().any(|&w| w != 0),
            })
        })
        .collect()
}

/// The committed id and the entries `protocol`'s log recovery applies,
/// in application order: undo rolls back entries newer than the
/// committed marker, newest transaction first, so an address touched
/// by several uncommitted transactions ends at its oldest pre-image;
/// redo replays `applied < txid ≤ committed` oldest first, so later
/// transactions' values win. Slot order breaks ties within a
/// transaction. CoW has no log: empty.
fn select_entries(
    image: &NvmImage,
    layout: &Layout,
    protocol: Protocol,
    slots: &[LogSlot],
) -> (u64, Vec<LogEntry>) {
    let marker = |off: u64| {
        let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
        resolve_marker(
            rd(layout.log_header + off),
            rd(layout.log_header_twin + off),
        )
    };
    let committed = marker(0);
    let entries = slots.iter().filter_map(|s| s.entry);
    let mut selected: Vec<LogEntry> = match protocol {
        Protocol::Undo => entries.filter(|e| e.txid > committed).collect(),
        Protocol::Redo => {
            let applied = marker(OFF_APPLIED);
            entries
                .filter(|e| e.txid > applied && e.txid <= committed)
                .collect()
        }
        Protocol::Cow(_) => Vec::new(),
    };
    match protocol {
        Protocol::Undo => selected.sort_by_key(|e| std::cmp::Reverse(e.txid)),
        _ => selected.sort_by_key(|e| e.txid),
    }
    (committed, selected)
}

/// The log entries [`recover`] applies to an image it accepts, in the
/// order it applies them (each writes `old` to `addr`; for redo the
/// payload field carries the *new* value). Empty for CoW.
pub fn recovery_entries(image: &NvmImage, layout: &Layout, protocol: Protocol) -> Vec<LogEntry> {
    select_entries(image, layout, protocol, &log_slots(image, layout)).1
}

/// Superblock analysis shared by the undo and redo paths.
struct SuperblockTriage {
    unrecoverable: Option<String>,
    quarantine: Vec<String>,
    /// `(address, healed value)` writes that repair damage in place.
    heals: Vec<(u64, u64)>,
    /// Primary-line byte offsets (within the 64-byte line) repaired.
    repaired_primary: Vec<u64>,
    /// Twin-line byte offsets repaired.
    repaired_twin: Vec<u64>,
    /// Byte offsets whose damage is quarantined, per line.
    quarantined_primary: Vec<u64>,
    quarantined_twin: Vec<u64>,
}

fn triage_superblock(
    image: &NvmImage,
    layout: &Layout,
    marker_offsets: &[u64],
) -> SuperblockTriage {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let mut t = SuperblockTriage {
        unrecoverable: None,
        quarantine: Vec::new(),
        heals: Vec::new(),
        repaired_primary: Vec::new(),
        repaired_twin: Vec::new(),
        quarantined_primary: Vec::new(),
        quarantined_twin: Vec::new(),
    };
    let magic_p = rd(layout.log_header + OFF_MAGIC);
    let magic_t = rd(layout.log_header_twin + OFF_MAGIC);
    if magic_p != MAGIC && magic_t != MAGIC {
        t.unrecoverable = Some(
            "superblock magic missing on both header lines — \
             not an EDE NVM image (or both copies destroyed)"
                .into(),
        );
        return t;
    }
    // The magic word is a constant: one surviving copy repairs the other.
    if magic_p != MAGIC {
        t.heals.push((layout.log_header + OFF_MAGIC, MAGIC));
        t.repaired_primary.push(OFF_MAGIC);
    }
    if magic_t != MAGIC {
        t.heals.push((layout.log_header_twin + OFF_MAGIC, MAGIC));
        t.repaired_twin.push(OFF_MAGIC);
    }
    for &off in marker_offsets {
        let p = rd(layout.log_header + off);
        let tw = rd(layout.log_header_twin + off);
        match (classify_marker(p), classify_marker(tw)) {
            (MarkerCopy::Corrupt, MarkerCopy::Corrupt) => {
                t.unrecoverable = Some(format!(
                    "both copies of the marker at header offset {off} fail validation"
                ));
                return t;
            }
            (MarkerCopy::Corrupt, MarkerCopy::Valid(_)) => {
                // Twin-first: the surviving twin is exact, not a lower
                // bound — a clean repair.
                t.heals.push((layout.log_header + off, tw));
                t.repaired_primary.push(off);
            }
            (MarkerCopy::Corrupt, MarkerCopy::Fresh) => {
                t.quarantine.push(format!(
                    "primary marker at offset {off} damaged with a blank twin — \
                     cannot distinguish a pre-commit scribble from a wiped twin"
                ));
                t.quarantined_primary.push(off);
            }
            (_, MarkerCopy::Corrupt) => {
                t.quarantine.push(format!(
                    "twin marker at offset {off} lost — the sole repair witness \
                     is destroyed, the primary cannot be vouched for"
                ));
                t.quarantined_twin.push(off);
            }
            (MarkerCopy::Valid(k), MarkerCopy::Fresh) if k > 0 => {
                t.quarantine.push(format!(
                    "marker at offset {off}: primary claims tx {k} but the twin is \
                     blank — twin-first ordering violated, the id is unverifiable"
                ));
                t.quarantined_twin.push(off);
            }
            (MarkerCopy::Valid(a), MarkerCopy::Valid(b)) if a > b => {
                t.quarantine.push(format!(
                    "marker at offset {off}: primary (tx {a}) is newer than the \
                     twin (tx {b}) — impossible under twin-first commit"
                ));
                t.quarantined_twin.push(off);
            }
            (MarkerCopy::Valid(a), MarkerCopy::Valid(b)) if b > a => {
                // Mid-commit crash: the twin persisted, the primary is
                // one commit stale. Recovery resolves to the twin either
                // way (resolve_marker takes the max); finishing the
                // interrupted primary write makes the recovered image
                // canonical — byte-equal whether the primary was stale,
                // torn, or already current.
                t.heals.push((layout.log_header + off, tw));
                t.repaired_primary.push(off);
            }
            (MarkerCopy::Fresh, MarkerCopy::Valid(b)) if b > 0 => {
                // Same, for the very first commit: the twin landed, the
                // primary line is still fresh zeros.
                t.heals.push((layout.log_header + off, tw));
                t.repaired_primary.push(off);
            }
            _ => {}
        }
    }
    t
}

fn header_line_regions(
    layout: &Layout,
    sb: &SuperblockTriage,
    marker_offsets: &[u64],
    image: &NvmImage,
) -> Vec<RegionReport> {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let mut regions = Vec::new();
    for (line, name, repaired, quarantined) in [
        (
            layout.log_header,
            "primary superblock",
            &sb.repaired_primary,
            &sb.quarantined_primary,
        ),
        (
            layout.log_header_twin,
            "twin superblock",
            &sb.repaired_twin,
            &sb.quarantined_twin,
        ),
    ] {
        // Trailing words of a header line must be blank; marker and
        // magic words are accounted for by the superblock triage.
        let mut accounted: Vec<u64> = marker_offsets.to_vec();
        accounted.push(OFF_MAGIC);
        let garbage = (0..8)
            .map(|w| w * 8)
            .any(|off| !accounted.contains(&off) && rd(line + off) != 0);
        let (class, detail) = if sb.unrecoverable.is_some() {
            (
                RegionClass::Quarantined,
                format!("{name}: {}", sb.unrecoverable.as_deref().unwrap_or("")),
            )
        } else if garbage {
            (
                RegionClass::Quarantined,
                format!("{name}: garbage in reserved words"),
            )
        } else if !quarantined.is_empty() {
            (
                RegionClass::Quarantined,
                format!("{name}: marker damage at offsets {quarantined:?}"),
            )
        } else if !repaired.is_empty() {
            (
                RegionClass::Repaired,
                format!("{name}: healed offsets {repaired:?} from the other copy"),
            )
        } else {
            (RegionClass::Valid, name.to_string())
        };
        regions.push(RegionReport {
            start: line,
            end: line + 64,
            class,
            detail,
        });
    }
    regions
}

/// The heap (and any stray low addresses) carry no integrity metadata.
fn unprotected_regions(image: &NvmImage, layout: &Layout) -> Vec<RegionReport> {
    let mut regions = Vec::new();
    let max_heap = image.keys().filter(|&&a| a >= layout.heap_base).max();
    if let Some(&max) = max_heap {
        regions.push(RegionReport {
            start: layout.heap_base,
            end: max + 8,
            class: RegionClass::Unprotected,
            detail: "persistent heap (application data, no media-level integrity)".into(),
        });
    }
    let max_low = image.keys().filter(|&&a| a < layout.log_header).max();
    if let Some(&max) = max_low {
        regions.push(RegionReport {
            start: 0,
            end: max + 8,
            class: RegionClass::Unprotected,
            detail: "below the persistent log (volatile scratch)".into(),
        });
    }
    regions
}

fn sort_regions(mut regions: Vec<RegionReport>) -> Vec<RegionReport> {
    regions.sort_by_key(|r| r.start);
    regions
}

fn build_report(
    image: &NvmImage,
    layout: &Layout,
    sb: &SuperblockTriage,
    marker_offsets: &[u64],
    slots: &[LogSlot],
    committed: u64,
    entries: usize,
) -> TriageReport {
    let slot_quarantined = slots.iter().filter(|s| s.is_damaged()).count();
    let mut regions = header_line_regions(layout, sb, marker_offsets, image);
    regions.extend(slots.iter().map(LogSlot::region));
    regions.extend(unprotected_regions(image, layout));
    let regions = sort_regions(regions);
    let outcome = if let Some(diagnosis) = &sb.unrecoverable {
        RecoveryOutcome::Unrecoverable {
            diagnosis: diagnosis.clone(),
        }
    } else if !sb.quarantine.is_empty() || slot_quarantined > 0 {
        let reason = sb.quarantine.first().cloned().unwrap_or_else(|| {
            regions
                .iter()
                .find(|r| r.class == RegionClass::Quarantined)
                .map(|r| r.detail.clone())
                .unwrap_or_else(|| "quarantined log content".into())
        });
        RecoveryOutcome::Quarantined {
            entries: sb.quarantined_primary.len() + sb.quarantined_twin.len() + slot_quarantined,
            reason,
        }
    } else if !sb.heals.is_empty() {
        RecoveryOutcome::RepairedTorn { entries }
    } else if entries > 0 {
        RecoveryOutcome::RolledBack { entries }
    } else {
        RecoveryOutcome::Clean
    };
    TriageReport {
        outcome,
        committed,
        regions,
    }
}

/// Read-only [`recover`]: classifies every region of the image and
/// reports the outcome recovery *would* reach, without modifying it.
///
/// # Example
///
/// ```
/// use ede_nvm::log::{header_word, MAGIC, OFF_MAGIC};
/// use ede_nvm::recovery::NvmImage;
/// use ede_nvm::triage::{scrub, Protocol, RecoveryOutcome};
/// use ede_nvm::Layout;
///
/// let layout = Layout::standard();
/// let mut image = NvmImage::default();
/// for line in [layout.log_header, layout.log_header_twin] {
///     image.insert(line + OFF_MAGIC, MAGIC);
///     image.insert(line, header_word(1));
/// }
/// let report = scrub(&image, &layout, Protocol::Undo);
/// assert_eq!(report.outcome, RecoveryOutcome::Clean);
/// assert_eq!(report.committed, 1);
/// ```
pub fn scrub(image: &NvmImage, layout: &Layout, protocol: Protocol) -> TriageReport {
    let mut clone = image.clone();
    recover(&mut clone, layout, protocol)
}

/// Runs `protocol`'s recovery over `image` in place — the one recovery
/// entry point. See the module docs for the outcome taxonomy.
///
/// Undo and redo first triage the superblock: the commit markers are
/// resolved from both header copies through [`resolve_marker`] (the
/// newest validating copy wins, so a torn primary is healed from the
/// twin), and damage the twin can repair is repaired in place. One walk
/// over the stored log slots ([`log_slots`]) then classifies each slot
/// and decodes its entry, and the entries [`recovery_entries`] names
/// are applied: undo rolls uncommitted writes back, redo replays
/// committed-but-unapplied ones forward. CoW resolves its root line
/// pair instead, healing a torn primary from the twin.
///
/// That replay is [`replay`]'s; `recover` then classifies every region
/// of the replayed image into the report. An `Unrecoverable` image is
/// left untouched.
///
/// # Example
///
/// ```
/// use ede_nvm::log::{
///     checksum, header_word, MAGIC, OFF_ADDR, OFF_CSUM, OFF_MAGIC, OFF_OLD, OFF_TXID,
/// };
/// use ede_nvm::recovery::NvmImage;
/// use ede_nvm::triage::{recover, Protocol, RecoveryOutcome};
/// use ede_nvm::Layout;
///
/// let layout = Layout::standard();
/// let mut image = NvmImage::default();
/// for line in [layout.log_header, layout.log_header_twin] {
///     image.insert(line + OFF_MAGIC, MAGIC);
///     image.insert(line, header_word(1)); // tx 1 committed
/// }
/// // A valid undo entry from uncommitted tx 2.
/// let slot = layout.slot_addr(0);
/// let (addr, old) = (layout.heap_base, 7u64);
/// image.insert(slot + OFF_ADDR, addr);
/// image.insert(slot + OFF_OLD, old);
/// image.insert(slot + OFF_TXID, 2);
/// image.insert(slot + OFF_CSUM, checksum(addr, old, 2));
/// image.insert(addr, 99); // tx 2's (partially persisted) write
///
/// let r = recover(&mut image, &layout, Protocol::Undo);
/// assert_eq!(r.committed, 1);
/// assert_eq!(r.outcome, RecoveryOutcome::RolledBack { entries: 1 });
/// assert_eq!(image[&addr], 7);
/// ```
pub fn recover(image: &mut NvmImage, layout: &Layout, protocol: Protocol) -> TriageReport {
    replay_in_place(image, layout, protocol).report(image, layout)
}

/// [`recover`] without its report: the same in-place replay, returning
/// the committed transaction id, or the diagnosis of an image
/// [`recover`] finds [`RecoveryOutcome::Unrecoverable`] (left
/// untouched). The image ends byte-equal to what [`recover`] leaves.
/// The crash checker reads only these, so it skips classifying and
/// describing every region.
///
/// # Errors
///
/// The diagnosis [`RecoveryOutcome::Unrecoverable`] carries.
pub fn replay(image: &mut NvmImage, layout: &Layout, protocol: Protocol) -> Result<u64, String> {
    replay_in_place(image, layout, protocol).verdict()
}

/// What the in-place replay read and did: everything the report is built
/// from.
enum Replayed {
    /// Undo or redo: the superblock triage, the stored log slots, and the
    /// committed id and count of entries applied (both 0 when the image
    /// is unrecoverable).
    Log {
        marker_offsets: &'static [u64],
        sb: SuperblockTriage,
        slots: Vec<LogSlot>,
        committed: u64,
        entries: usize,
    },
    /// CoW: the `(root ptr, marker)` pairs of the primary and twin root
    /// lines, decoded to their transaction ids where they validate.
    Cow {
        meta: CowMeta,
        primary: Option<u64>,
        twin: Option<u64>,
    },
}

const COW_ROOTS_LOST: &str = "both root-line copies fail validation — no tree to walk";

/// The one step sequence of [`recover`] and [`replay`]. Undo and redo
/// triage the superblock, walk the stored slots, heal the superblock
/// and apply the selected entries; an unrecoverable image is not
/// modified. CoW heals the primary root line from the twin.
fn replay_in_place(image: &mut NvmImage, layout: &Layout, protocol: Protocol) -> Replayed {
    if let Protocol::Cow(meta) = protocol {
        return replay_cow(image, meta);
    }
    let marker_offsets = protocol.marker_offsets();
    let sb = triage_superblock(image, layout, marker_offsets);
    let slots = log_slots(image, layout);
    let (committed, entries) = if sb.unrecoverable.is_some() {
        (0, 0)
    } else {
        for &(a, v) in &sb.heals {
            image.insert(a, v);
        }
        let (committed, selected) = select_entries(image, layout, protocol, &slots);
        for e in &selected {
            image.insert(e.addr, e.old);
        }
        (committed, selected.len())
    };
    Replayed::Log {
        marker_offsets,
        sb,
        slots,
        committed,
        entries,
    }
}

/// CoW's replay: validates the packed `(root ptr, marker)` pairs on the
/// primary and twin root lines ([`decode_root`]) and copies the twin's
/// pair over the primary when it is torn, or one commit behind (a crash
/// between the twin and primary switches). CoW needs no log replay —
/// recovery *is* resolving the root, which afterwards sits on the
/// primary line.
fn replay_cow(image: &mut NvmImage, meta: CowMeta) -> Replayed {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let twin_pair = (rd(meta.root_twin), rd(meta.root_twin + 8));
    let primary = decode_root(rd(meta.root_line), rd(meta.root_line + 8));
    let twin = decode_root(twin_pair.0, twin_pair.1);
    // A torn primary (`None`) reads older than any twin that validates;
    // the twin's pair is exact, by twin-first.
    if twin > primary {
        image.insert(meta.root_line, twin_pair.0);
        image.insert(meta.root_line + 8, twin_pair.1);
    }
    Replayed::Cow {
        meta,
        primary,
        twin,
    }
}

impl Replayed {
    /// The committed id, or why the image is refused.
    fn verdict(self) -> Result<u64, String> {
        match self {
            Replayed::Log { sb, committed, .. } => match sb.unrecoverable {
                Some(diagnosis) => Err(diagnosis),
                None => Ok(committed),
            },
            // The newest root that validates wins.
            Replayed::Cow { primary, twin, .. } => {
                primary.max(twin).ok_or_else(|| COW_ROOTS_LOST.into())
            }
        }
    }

    /// The report [`recover`] returns, over the replayed image.
    fn report(self, image: &NvmImage, layout: &Layout) -> TriageReport {
        match self {
            Replayed::Log {
                marker_offsets,
                sb,
                slots,
                committed,
                entries,
            } => build_report(
                image,
                layout,
                &sb,
                marker_offsets,
                &slots,
                committed,
                entries,
            ),
            Replayed::Cow {
                meta,
                primary,
                twin,
            } => cow_report(image, &meta, primary, twin),
        }
    }
}

/// CoW's report: the two root lines classified (the sole-witness cases
/// quarantined), and the tree as one unprotected span.
fn cow_report(
    image: &NvmImage,
    meta: &CowMeta,
    primary: Option<u64>,
    twin: Option<u64>,
) -> TriageReport {
    let mut regions = Vec::new();
    let mut push = |start: u64, class: RegionClass, detail: String| {
        regions.push(RegionReport {
            start,
            end: start + 64,
            class,
            detail,
        });
    };
    let outcome = match (primary, twin) {
        (None, None) => {
            push(
                meta.root_line,
                RegionClass::Quarantined,
                "primary root line fails validation".into(),
            );
            push(
                meta.root_twin,
                RegionClass::Quarantined,
                "twin root line fails validation".into(),
            );
            RecoveryOutcome::Unrecoverable {
                diagnosis: COW_ROOTS_LOST.into(),
            }
        }
        (None, Some(b)) => {
            push(
                meta.root_line,
                RegionClass::Repaired,
                format!("primary root line healed from the twin (tx {b})"),
            );
            push(meta.root_twin, RegionClass::Valid, "twin root line".into());
            RecoveryOutcome::RepairedTorn { entries: 1 }
        }
        (Some(_), None) => {
            push(
                meta.root_line,
                RegionClass::Valid,
                "primary root line".into(),
            );
            push(
                meta.root_twin,
                RegionClass::Quarantined,
                "twin root line lost — the sole repair witness is destroyed".into(),
            );
            RecoveryOutcome::Quarantined {
                entries: 1,
                reason: "twin root line lost — a newer commit may have been \
                         destroyed with it"
                    .into(),
            }
        }
        (Some(a), Some(b)) if a > b => {
            push(
                meta.root_line,
                RegionClass::Valid,
                "primary root line".into(),
            );
            push(
                meta.root_twin,
                RegionClass::Quarantined,
                format!("twin (tx {b}) older than primary (tx {a})"),
            );
            RecoveryOutcome::Quarantined {
                entries: 1,
                reason: format!(
                    "primary root (tx {a}) newer than the twin (tx {b}) — \
                     impossible under twin-first commit"
                ),
            }
        }
        (Some(_), Some(_)) => {
            push(
                meta.root_line,
                RegionClass::Valid,
                "primary root line".into(),
            );
            push(meta.root_twin, RegionClass::Valid, "twin root line".into());
            RecoveryOutcome::Clean
        }
    };
    let in_root_line = |a: u64| {
        (meta.root_line..meta.root_line + 64).contains(&a)
            || (meta.root_twin..meta.root_twin + 64).contains(&a)
    };
    let tree = image
        .keys()
        .copied()
        .filter(|&a| !in_root_line(a))
        .fold(None, |span: Option<(u64, u64)>, a| {
            Some(span.map_or((a, a), |(lo, hi)| (lo.min(a), hi.max(a))))
        });
    if let Some((lo, hi)) = tree {
        regions.push(RegionReport {
            start: lo,
            end: hi + 8,
            class: RegionClass::Unprotected,
            detail: "CoW tree (pointers and data blocks carry no per-block integrity)".into(),
        });
    }
    TriageReport {
        outcome,
        committed: primary.max(twin).unwrap_or(0),
        regions: sort_regions(regions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{checksum, header_word, OFF_ADDR, OFF_CSUM, OFF_OLD, OFF_TXID};

    fn formatted_image(layout: &Layout) -> NvmImage {
        let mut image = NvmImage::default();
        for line in [layout.log_header, layout.log_header_twin] {
            image.insert(line + OFF_MAGIC, MAGIC);
        }
        image
    }

    fn put_entry(image: &mut NvmImage, layout: &Layout, slot: u64, addr: u64, old: u64, txid: u64) {
        let s = layout.slot_addr(slot);
        image.insert(s + OFF_ADDR, addr);
        image.insert(s + OFF_OLD, old);
        image.insert(s + OFF_TXID, txid);
        image.insert(s + OFF_CSUM, checksum(addr, old, txid));
    }

    #[test]
    fn clean_image_is_clean() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        for line in [layout.log_header, layout.log_header_twin] {
            image.insert(line, header_word(2));
        }
        put_entry(&mut image, &layout, 0, layout.heap_base, 1, 2); // committed
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert_eq!(r.outcome, RecoveryOutcome::Clean);
        assert_eq!(r.committed, 2);
        assert_eq!(r.count(RegionClass::Quarantined), 0);
    }

    #[test]
    fn ordinary_rollback_is_rolled_back() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 1); // uncommitted
        image.insert(layout.heap_base, 99);
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert_eq!(r.outcome, RecoveryOutcome::RolledBack { entries: 1 });
        assert_eq!(image[&layout.heap_base], 7);
    }

    #[test]
    fn torn_primary_marker_is_repaired_from_twin() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.log_header, header_word(3) ^ (1 << 33));
        image.insert(layout.log_header_twin, header_word(3));
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 0 });
        assert_eq!(r.committed, 3);
        assert_eq!(image[&layout.log_header], header_word(3), "healed in place");
        let sb = r.region_covering(layout.log_header).unwrap();
        assert_eq!(sb.class, RegionClass::Repaired);
    }

    #[test]
    fn lost_twin_marker_is_quarantined() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.log_header, header_word(3));
        image.insert(layout.log_header_twin, 0xDEAD_BEEF);
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert!(
            matches!(r.outcome, RecoveryOutcome::Quarantined { .. }),
            "sole repair witness destroyed: {:?}",
            r.outcome
        );
        assert!(!r.outcome.is_strong_claim());
    }

    #[test]
    fn double_wipe_is_unrecoverable_and_untouched() {
        let layout = Layout::standard();
        // Magic never present on either line: zero-wiped (or foreign).
        let mut image = NvmImage::default();
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 1);
        image.insert(layout.heap_base, 99);
        let before = image.clone();
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert!(matches!(r.outcome, RecoveryOutcome::Unrecoverable { .. }));
        assert_eq!(image, before, "an unrecoverable image is never modified");
    }

    #[test]
    fn both_marker_copies_corrupt_is_unrecoverable() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.log_header, 0xBAD);
        image.insert(layout.log_header_twin, 0xBAD0);
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert!(matches!(r.outcome, RecoveryOutcome::Unrecoverable { .. }));
    }

    #[test]
    fn corrupt_slot_is_quarantined_with_byte_range() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        put_entry(&mut image, &layout, 2, layout.heap_base, 7, 1);
        let csum = layout.slot_addr(2) + OFF_CSUM;
        *image.get_mut(&csum).unwrap() ^= 1 << 9;
        let r = recover(&mut image, &layout, Protocol::Undo);
        match &r.outcome {
            RecoveryOutcome::Quarantined { entries, reason } => {
                assert_eq!(*entries, 1);
                assert!(reason.contains("slot 2"), "{reason}");
            }
            o => panic!("expected quarantine, got {o:?}"),
        }
        let region = r.region_covering(csum).expect("corrupt slot is named");
        assert_eq!(region.class, RegionClass::Quarantined);
        assert_eq!(region.start, layout.slot_addr(2));
        assert_eq!(region.end, layout.slot_addr(2) + 64);
    }

    #[test]
    fn duplicated_slot_line_is_tolerated() {
        // A transaction storing the same value to the same word twice
        // leaves two byte-identical slots (the redo writer appends one
        // entry per write) — and rolling back a duplicated entry is
        // idempotent. Identical content must therefore stay a strong
        // claim, not trip a corruption heuristic.
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 1);
        put_entry(&mut image, &layout, 5, layout.heap_base, 7, 1); // same
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert!(matches!(r.outcome, RecoveryOutcome::RolledBack { .. }));
        assert_eq!(image.get(&layout.heap_base), Some(&7));
        let dup = r.region_covering(layout.slot_addr(5)).unwrap();
        assert_eq!(dup.class, RegionClass::Valid, "{}", dup.detail);
    }

    #[test]
    fn trailing_slot_garbage_is_quarantined() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.slot_addr(1) + 40, 0x4141_4141);
        let r = recover(&mut image, &layout, Protocol::Undo);
        assert!(matches!(r.outcome, RecoveryOutcome::Quarantined { .. }));
    }

    #[test]
    fn heap_is_reported_unprotected() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.heap_base + 128, 42);
        let r = recover(&mut image, &layout, Protocol::Undo);
        let region = r.region_covering(layout.heap_base + 128).unwrap();
        assert_eq!(region.class, RegionClass::Unprotected);
    }

    #[test]
    fn scrub_does_not_modify() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        image.insert(layout.log_header, header_word(3) ^ 1);
        image.insert(layout.log_header_twin, header_word(3));
        let before = image.clone();
        let r = scrub(&image, &layout, Protocol::Undo);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 0 });
        assert_eq!(image, before);
    }

    #[test]
    fn scrub_does_not_modify_redo_or_cow_images() {
        use crate::cow::root_word;
        let layout = Layout::standard();
        // Redo: a torn primary marker over a committed-but-unapplied
        // entry — recovery would heal the marker and replay the entry.
        let mut image = formatted_image(&layout);
        image.insert(layout.log_header, header_word(1) ^ 1);
        image.insert(layout.log_header_twin, header_word(1));
        put_entry(&mut image, &layout, 0, layout.heap_base, 77, 1);
        image.insert(layout.heap_base, 5);
        let before = image.clone();
        let r = scrub(&image, &layout, Protocol::Redo);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 1 });
        assert_eq!(image, before);
        // CoW: the primary root is one commit behind the twin — recovery
        // would roll it forward.
        let meta = CowMeta {
            root_line: 0x1_0000_0000,
            root_twin: 0x1_0000_1000,
            slots: 8,
        };
        let mut image = NvmImage::default();
        image.insert(meta.root_line, 0x9000);
        image.insert(meta.root_line + 8, root_word(0x9000, 1));
        image.insert(meta.root_twin, 0x9400);
        image.insert(meta.root_twin + 8, root_word(0x9400, 2));
        let before = image.clone();
        let r = scrub(&image, &layout, Protocol::Cow(meta));
        assert_eq!((r.outcome, r.committed), (RecoveryOutcome::Clean, 2));
        assert_eq!(image, before);
    }

    #[test]
    fn redo_triage_covers_both_markers() {
        let layout = Layout::standard();
        let mut image = formatted_image(&layout);
        let a = layout.heap_base;
        // Committed marker torn on the primary; applied marker intact.
        image.insert(layout.log_header, header_word(1) ^ (1 << 44));
        image.insert(layout.log_header_twin, header_word(1));
        let slot = layout.slot_addr(0);
        image.insert(slot + OFF_ADDR, a);
        image.insert(slot + OFF_ADDR + 8, 77);
        image.insert(slot + OFF_TXID, 1);
        image.insert(slot + OFF_TXID + 8, checksum(a, 77, 1));
        image.insert(a, 5);
        let r = recover(&mut image, &layout, Protocol::Redo);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 1 });
        assert_eq!(image[&a], 77, "replayed forward after repair");
        assert_eq!(image[&layout.log_header], header_word(1));
    }

    #[test]
    fn cow_triage_heals_torn_primary_root() {
        use crate::cow::root_word;
        let meta = CowMeta {
            root_line: 0x1_0000_0000,
            root_twin: 0x1_0000_1000,
            slots: 8,
        };
        let mut image = NvmImage::default();
        image.insert(meta.root_line, 0x9000);
        image.insert(meta.root_line + 8, 1); // torn: raw id half only
        image.insert(meta.root_twin, 0x9000);
        image.insert(meta.root_twin + 8, root_word(0x9000, 1));
        let r = recover(&mut image, &Layout::standard(), Protocol::Cow(meta));
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 1 });
        assert_eq!(r.committed, 1);
        assert_eq!(image[&(meta.root_line + 8)], root_word(0x9000, 1));
        assert_eq!(
            r.region_covering(meta.root_line).unwrap().class,
            RegionClass::Repaired
        );
    }

    #[test]
    fn cow_triage_unrecoverable_when_both_roots_lost() {
        let meta = CowMeta {
            root_line: 0x1_0000_0000,
            root_twin: 0x1_0000_1000,
            slots: 8,
        };
        let mut image = NvmImage::default(); // zero everywhere: nothing validates
        let r = recover(&mut image, &Layout::standard(), Protocol::Cow(meta));
        assert!(matches!(r.outcome, RecoveryOutcome::Unrecoverable { .. }));
    }

    #[test]
    fn cow_triage_rolls_primary_forward_to_newer_twin() {
        use crate::cow::root_word;
        let meta = CowMeta {
            root_line: 0x1_0000_0000,
            root_twin: 0x1_0000_1000,
            slots: 8,
        };
        let mut image = NvmImage::default();
        // Crash between the twin switch and the primary switch.
        image.insert(meta.root_line, 0x9000);
        image.insert(meta.root_line + 8, root_word(0x9000, 1));
        image.insert(meta.root_twin, 0x9400);
        image.insert(meta.root_twin + 8, root_word(0x9400, 2));
        let r = recover(&mut image, &Layout::standard(), Protocol::Cow(meta));
        assert_eq!(r.outcome, RecoveryOutcome::Clean);
        assert_eq!(r.committed, 2);
        assert_eq!(image[&meta.root_line], 0x9400);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(RecoveryOutcome::Clean.label(), "clean");
        assert_eq!(
            RecoveryOutcome::Quarantined {
                entries: 1,
                reason: String::new()
            }
            .label(),
            "quarantined"
        );
        assert!(RecoveryOutcome::Clean.is_strong_claim());
        assert!(!RecoveryOutcome::Unrecoverable {
            diagnosis: String::new()
        }
        .is_strong_claim());
    }
}
