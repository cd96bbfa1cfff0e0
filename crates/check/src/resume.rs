//! The resilient campaign runtime: checkpoint/resume, panic
//! quarantine bookkeeping, and graceful deadline shutdown.
//!
//! The fuzz, inject, explore, and corrupt campaigns are long-running
//! sampled or exhaustive sweeps; a worker panic, an OOM kill, or a CI
//! wall-clock timeout used to discard every case already evaluated.
//! This module treats the checker itself as a crash-prone process (the
//! per-unit protocol that drives it lives once, in
//! `campaign::run`):
//!
//! * **Checkpointing** — a versioned `CHECKPOINT_FORMAT` document
//!   records the campaign kind, an options fingerprint (every option
//!   that can change output; never `jobs` or [`RuntimeOptions`]), the
//!   master seed, a per-unit completion bitmap, accumulated counters,
//!   the earliest-failure state, and any quarantined harness panics.
//!   The runner edits one [`Checkpoint`] as units finish and writes
//!   that same value atomically (write-temp + rename) every
//!   `--checkpoint-every N` completed units and on graceful shutdown.
//!   Because every campaign derives its per-unit PRNG position with
//!   `SplitMix64::jump(unit)` from the master seed, the bitmap alone
//!   pins every stream position — a resumed run fast-forwards to
//!   exactly the seeds the interrupted run would have drawn next.
//! * **Resume** — `--resume <path>` loads the checkpoint, validates
//!   the fingerprint (a mismatch is a typed [`ResumeError`], exit 2),
//!   and skips completed units. The contract: a resumed campaign's
//!   final stdout, ledgers, and metrics are byte-identical to the same
//!   campaign run uninterrupted.
//! * **Quarantine** — harness panics surfaced by
//!   [`ede_util::pool::Pool::stream`] become
//!   [`HarnessPanic`] records, kept in the checkpoint and the campaign
//!   report's `quarantined` section and counted against a
//!   `--max-quarantined` budget instead of aborting the sweep.
//! * **Wall-clock budget** — `--max-wall-secs` (or the
//!   `EDE_DEADLINE_SECS` environment variable) fixes a deadline instant
//!   when the campaign starts; the pool stops handing out units once
//!   the clock passes it, and the campaign ends with a valid checkpoint and a
//!   truncated-but-well-formed report marked `interrupted`, exit code 3.

use ede_util::obs::{json, json_escape};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The checkpoint document's format tag; bumped on any schema change.
const CHECKPOINT_FORMAT: &str = "ede.checkpoint.v1";

/// The environment variable consulted when `--max-wall-secs` is not
/// given (CI sets it so timeouts become resumable checkpoints).
const DEADLINE_ENV: &str = "EDE_DEADLINE_SECS";

/// A quarantined harness panic: the harness panicked while running a
/// unit, and the panic was caught and recorded instead of aborting the
/// sweep. The checkpoint, the runner and the campaign reports all keep
/// quarantined units as these records, in unit order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HarnessPanic {
    /// The unit (fuzz case or matrix cell) the panic occurred on.
    pub unit: u64,
    /// The downcast panic payload (message text).
    pub payload: String,
}

/// A typed failure loading, validating, or persisting a checkpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResumeError {
    /// The checkpoint file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        detail: String,
    },
    /// The file is not the JSON shape a checkpoint requires.
    Parse {
        /// What was malformed.
        detail: String,
    },
    /// The document carries a different format tag.
    Format {
        /// The tag found in the document.
        found: String,
    },
    /// The checkpoint was written by a different campaign subcommand.
    Kind {
        /// The campaign kind this session runs.
        expected: String,
        /// The kind recorded in the checkpoint.
        found: String,
    },
    /// The checkpoint was written under different campaign options.
    Fingerprint {
        /// This session's options fingerprint.
        expected: String,
        /// The fingerprint recorded in the checkpoint.
        found: String,
    },
    /// The document parses but its fields are mutually inconsistent.
    Corrupt {
        /// Which invariant failed.
        detail: String,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Io { path, detail } => {
                write!(f, "cannot access checkpoint {path}: {detail}")
            }
            ResumeError::Parse { detail } => write!(f, "malformed checkpoint: {detail}"),
            ResumeError::Format { found } => {
                write!(
                    f,
                    "checkpoint format {found:?} is not {CHECKPOINT_FORMAT:?}"
                )
            }
            ResumeError::Kind { expected, found } => write!(
                f,
                "checkpoint was written by a {found} campaign, not {expected}"
            ),
            ResumeError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint options fingerprint mismatch: checkpoint has {found:?}, \
                 this session is {expected:?}; resume with the original options"
            ),
            ResumeError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The persisted progress of one campaign: everything a fresh process
/// needs to continue the sweep and reproduce the identical verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The campaign subcommand (`fuzz`, `inject`, `explore`, `corrupt`).
    pub kind: String,
    /// The canonical options fingerprint the campaign ran under.
    pub fingerprint: String,
    /// The master seed every per-unit stream position derives from.
    pub master_seed: u64,
    /// Total work units in the campaign.
    pub total_units: u64,
    /// Completion bitmap, 64 units per word, unit `u` at
    /// `done[u / 64] bit (u % 64)`. Covers quarantined units too.
    pub done: Vec<u64>,
    /// The earliest failing unit found so far, if any.
    pub earliest_failure: Option<u64>,
    /// Quarantined harness panics, in unit order.
    pub quarantined: Vec<HarnessPanic>,
    /// Per-unit result payloads campaigns need back on resume (the
    /// inject, explore, and corrupt cells), `(unit, serialized)` in
    /// unit order.
    pub payloads: Vec<(u64, String)>,
}

fn words_for(total_units: u64) -> usize {
    (total_units as usize).div_ceil(64)
}

fn hex(v: u64) -> String {
    format!("{v:#x}")
}

fn parse_hex(s: &str) -> Option<u64> {
    let digits = s.strip_prefix("0x")?;
    u64::from_str_radix(digits, 16).ok()
}

impl Checkpoint {
    /// An empty checkpoint for a campaign of `total_units` units.
    pub fn new(kind: &str, fingerprint: &str, master_seed: u64, total_units: u64) -> Checkpoint {
        Checkpoint {
            kind: kind.to_string(),
            fingerprint: fingerprint.to_string(),
            master_seed,
            total_units,
            done: vec![0; words_for(total_units)],
            earliest_failure: None,
            quarantined: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Whether unit `unit` is recorded complete (or quarantined).
    pub fn is_done(&self, unit: u64) -> bool {
        self.done[(unit / 64) as usize] & (1u64 << (unit % 64)) != 0
    }

    /// Records unit `unit` complete.
    pub fn mark_done(&mut self, unit: u64) {
        self.done[(unit / 64) as usize] |= 1u64 << (unit % 64);
    }

    /// Units recorded done, quarantined included.
    fn done_units(&self) -> u64 {
        self.done.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Units that ran to successful completion (done minus quarantined).
    pub fn completed(&self) -> u64 {
        self.done_units() - self.quarantined.len() as u64
    }

    /// Renders the versioned checkpoint document. Stable field order,
    /// `u64` values as hex strings (the in-repo JSON number is an
    /// `f64`, exact only below 2^53 — seeds and bitmap words are not).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"format\": {},\n",
            json_escape(CHECKPOINT_FORMAT)
        ));
        s.push_str(&format!("  \"kind\": {},\n", json_escape(&self.kind)));
        s.push_str(&format!(
            "  \"fingerprint\": {},\n",
            json_escape(&self.fingerprint)
        ));
        s.push_str(&format!(
            "  \"master_seed\": {},\n",
            json_escape(&hex(self.master_seed))
        ));
        // Informative: how per-unit stream positions derive from the
        // master seed. The bitmap is the authoritative position record.
        s.push_str("  \"prng\": {\"stream\": \"splitmix64\", \"position\": \"jump(unit)\"},\n");
        s.push_str(&format!("  \"total_units\": {},\n", self.total_units));
        s.push_str(&format!("  \"completed\": {},\n", self.completed()));
        s.push_str("  \"done\": [");
        for (i, w) in self.done.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_escape(&hex(*w)));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"earliest_failure\": {},\n",
            match self.earliest_failure {
                Some(u) => json_escape(&hex(u)),
                None => "null".to_string(),
            }
        ));
        s.push_str("  \"quarantined\": [");
        for (i, q) in self.quarantined.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"unit\": {}, \"payload\": {}}}",
                q.unit,
                json_escape(&q.payload)
            ));
        }
        s.push_str("],\n");
        s.push_str("  \"payloads\": [");
        for (i, (unit, data)) in self.payloads.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"unit\": {unit}, \"data\": {}}}",
                json_escape(data)
            ));
        }
        s.push_str("]\n");
        s.push('}');
        s
    }

    /// Parses and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Parse`] for structural problems,
    /// [`ResumeError::Format`] for a different format tag, and
    /// [`ResumeError::Corrupt`] when fields are mutually inconsistent
    /// (bitmap size, completed count, out-of-range units).
    pub fn parse(input: &str) -> Result<Checkpoint, ResumeError> {
        let doc = json::parse(input).map_err(|detail| ResumeError::Parse { detail })?;
        let format = str_field(&doc, "format")?;
        if format != CHECKPOINT_FORMAT {
            return Err(ResumeError::Format {
                found: format.to_string(),
            });
        }
        let kind = str_field(&doc, "kind")?.to_string();
        let fingerprint = str_field(&doc, "fingerprint")?.to_string();
        let master_seed = hex_field(&doc, "master_seed")?;
        let total_units = num_field(&doc, "total_units")?;
        let completed = num_field(&doc, "completed")?;
        let done_arr = array_field(&doc, "done")?;
        let mut done = Vec::with_capacity(done_arr.len());
        for w in done_arr {
            done.push(hex_value(w, "done[] word")?);
        }
        let earliest_failure = match doc.get("earliest_failure") {
            None => {
                return Err(ResumeError::Parse {
                    detail: "missing field earliest_failure".to_string(),
                })
            }
            Some(json::Json::Null) => None,
            Some(v) => Some(hex_value(v, "earliest_failure")?),
        };
        let quarantined = unit_string_pairs(&doc, "quarantined", "payload")?
            .into_iter()
            .map(|(unit, payload)| HarnessPanic { unit, payload })
            .collect();
        let payloads = unit_string_pairs(&doc, "payloads", "data")?;
        let cp = Checkpoint {
            kind,
            fingerprint,
            master_seed,
            total_units,
            done,
            earliest_failure,
            quarantined,
            payloads,
        };
        cp.validate(completed)?;
        Ok(cp)
    }

    fn validate(&self, completed: u64) -> Result<(), ResumeError> {
        let corrupt = |detail: String| Err(ResumeError::Corrupt { detail });
        if self.done.len() != words_for(self.total_units) {
            return corrupt(format!(
                "bitmap has {} words, {} units need {}",
                self.done.len(),
                self.total_units,
                words_for(self.total_units),
            ));
        }
        if !self.total_units.is_multiple_of(64) {
            if let Some(last) = self.done.last() {
                if last >> (self.total_units % 64) != 0 {
                    return corrupt("bitmap has bits past total_units".to_string());
                }
            }
        }
        if self.completed() != completed {
            return corrupt(format!(
                "completed says {completed}, bitmap and quarantine say {}",
                self.completed(),
            ));
        }
        if let Some(u) = self.earliest_failure {
            if u >= self.total_units {
                return corrupt(format!("earliest_failure {u} out of range"));
            }
        }
        let quarantined: Vec<u64> = self.quarantined.iter().map(|q| q.unit).collect();
        let payloads: Vec<u64> = self.payloads.iter().map(|&(u, _)| u).collect();
        for (section, units) in [("quarantined", quarantined), ("payloads", payloads)] {
            let mut prev = None;
            for unit in units {
                if unit >= self.total_units {
                    return corrupt(format!("{section} unit {unit} out of range"));
                }
                if !self.is_done(unit) {
                    return corrupt(format!("{section} unit {unit} not marked done"));
                }
                if prev.is_some_and(|p| p >= unit) {
                    return corrupt(format!("{section} units out of order at {unit}"));
                }
                prev = Some(unit);
            }
        }
        Ok(())
    }

    /// Writes the document to the temp sibling `<path>.tmp`, then
    /// `rename`s it over `path`, so a process killed mid-flush leaves
    /// either the previous checkpoint or the new one, never a torn
    /// file. Nothing is fsynced: the guarantee covers a killed
    /// process, not a power loss.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Io`] with the failing path.
    fn write_atomic(&self, path: &Path) -> Result<(), ResumeError> {
        let io = |p: &Path, e: std::io::Error| ResumeError::Io {
            path: p.display().to_string(),
            detail: e.to_string(),
        };
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut doc = self.to_json();
        doc.push('\n');
        std::fs::write(&tmp, doc).map_err(|e| io(&tmp, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io(path, e))
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Io`] when unreadable, else whatever
    /// [`Checkpoint::parse`] reports.
    pub fn load(path: &Path) -> Result<Checkpoint, ResumeError> {
        let input = std::fs::read_to_string(path).map_err(|e| ResumeError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Checkpoint::parse(&input)
    }
}

fn missing(key: &str) -> ResumeError {
    ResumeError::Parse {
        detail: format!("missing field {key}"),
    }
}

fn str_field<'a>(doc: &'a json::Json, key: &str) -> Result<&'a str, ResumeError> {
    doc.get(key)
        .ok_or_else(|| missing(key))?
        .as_str()
        .ok_or_else(|| ResumeError::Parse {
            detail: format!("field {key} is not a string"),
        })
}

fn num_field(doc: &json::Json, key: &str) -> Result<u64, ResumeError> {
    doc.get(key)
        .ok_or_else(|| missing(key))?
        .as_u64()
        .ok_or_else(|| ResumeError::Parse {
            detail: format!("field {key} is not a non-negative integer"),
        })
}

fn hex_value(v: &json::Json, what: &str) -> Result<u64, ResumeError> {
    v.as_str()
        .and_then(parse_hex)
        .ok_or_else(|| ResumeError::Parse {
            detail: format!("{what} is not a 0x-prefixed hex string"),
        })
}

fn hex_field(doc: &json::Json, key: &str) -> Result<u64, ResumeError> {
    hex_value(doc.get(key).ok_or_else(|| missing(key))?, key)
}

fn array_field<'a>(doc: &'a json::Json, key: &str) -> Result<&'a [json::Json], ResumeError> {
    doc.get(key)
        .ok_or_else(|| missing(key))?
        .as_array()
        .ok_or_else(|| ResumeError::Parse {
            detail: format!("field {key} is not an array"),
        })
}

fn unit_string_pairs(
    doc: &json::Json,
    key: &str,
    value_key: &str,
) -> Result<Vec<(u64, String)>, ResumeError> {
    let mut out = Vec::new();
    for entry in array_field(doc, key)? {
        let unit = num_field(entry, "unit").map_err(|_| ResumeError::Parse {
            detail: format!("{key}[] entry lacks a unit number"),
        })?;
        let value = str_field(entry, value_key).map_err(|_| ResumeError::Parse {
            detail: format!("{key}[] entry lacks a {value_key} string"),
        })?;
        out.push((unit, value.to_string()));
    }
    Ok(out)
}

/// Campaign persistence and shutdown options, shared by every
/// subcommand and deliberately excluded from options fingerprints:
/// none of them may change a campaign's final output.
#[derive(Clone, Debug, Default)]
pub struct RuntimeOptions {
    /// Where to write checkpoints (`--checkpoint`). When unset but
    /// `resume_from` is set, the resumed file is updated in place.
    pub checkpoint_path: Option<PathBuf>,
    /// Flush the checkpoint every this many completed units
    /// (`--checkpoint-every`); 0 = only on shutdown.
    pub checkpoint_every: u64,
    /// A checkpoint to resume from (`--resume`).
    pub resume_from: Option<PathBuf>,
    /// Wall-clock budget in seconds (`--max-wall-secs`); tripping it
    /// interrupts the campaign gracefully with exit code 3.
    pub max_wall_secs: Option<u64>,
    /// How many quarantined harness panics the campaign tolerates
    /// before the exit code turns to 2 (`--max-quarantined`).
    pub max_quarantined: u64,
    /// Test hook (`--stop-after`): trip the deadline after this many
    /// freshly completed units, as a deterministic interrupt point.
    pub stop_after_units: Option<u64>,
}

impl RuntimeOptions {
    /// The wall-clock budget in force: `max_wall_secs`, else the
    /// [`DEADLINE_ENV`] environment variable.
    ///
    /// # Panics
    ///
    /// When the environment variable is set but not a number — a
    /// misconfigured CI job must fail loudly, not run unbounded.
    fn effective_deadline(&self) -> Option<u64> {
        self.max_wall_secs.or_else(|| {
            std::env::var(DEADLINE_ENV).ok().map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{DEADLINE_ENV}={v} is not a number of seconds"))
            })
        })
    }
}

/// The driver's mutable state: the checkpoint document itself, plus
/// the session counters the document does not carry.
struct Progress {
    checkpoint: Checkpoint,
    /// Units this session completed (what `--stop-after` counts).
    fresh: u64,
    /// Units marked done since the last flush.
    since_flush: u64,
    /// The first flush error, held until [`CampaignDriver::finish`].
    flush_error: Option<ResumeError>,
}

/// [`crate::campaign::run`]'s progress record: marks units done in the
/// campaign's [`Checkpoint`], flushes it at the configured cadence,
/// answers the deadline, and validates a resume checkpoint against this
/// session's options fingerprint.
///
/// The fingerprint is a canonical rendering of every option that can
/// change a campaign's output (seed, budgets, architectures, faults,
/// the fast-forward path, the self-test hook) and deliberately excludes
/// `jobs`, progress settings, and [`RuntimeOptions`] — those never
/// change a byte of output, so a checkpoint may be resumed under a
/// different worker count or cadence.
pub(crate) struct CampaignDriver {
    path: Option<PathBuf>,
    every: u64,
    stop_after: Option<u64>,
    /// When the wall-clock budget runs out (already past for a zero
    /// budget); `None` never does.
    deadline: Option<Instant>,
    /// Set by the `--stop-after` hook.
    stopped: AtomicBool,
    progress: Mutex<Progress>,
}

impl CampaignDriver {
    /// Builds the driver, loading and validating `runtime.resume_from`
    /// when set.
    ///
    /// # Errors
    ///
    /// Any [`ResumeError`] from loading the checkpoint, plus
    /// [`ResumeError::Kind`] / [`ResumeError::Fingerprint`] /
    /// [`ResumeError::Corrupt`] when it belongs to a different
    /// campaign, different options, or a different unit count.
    pub(crate) fn new(
        kind: &'static str,
        fingerprint: String,
        master_seed: u64,
        total_units: u64,
        runtime: &RuntimeOptions,
    ) -> Result<CampaignDriver, ResumeError> {
        let mut checkpoint = Checkpoint::new(kind, &fingerprint, master_seed, total_units);
        if let Some(path) = &runtime.resume_from {
            let cp = Checkpoint::load(path)?;
            if cp.kind != kind {
                return Err(ResumeError::Kind {
                    expected: kind.to_string(),
                    found: cp.kind,
                });
            }
            if cp.fingerprint != fingerprint {
                return Err(ResumeError::Fingerprint {
                    expected: fingerprint,
                    found: cp.fingerprint,
                });
            }
            if cp.total_units != total_units {
                return Err(ResumeError::Corrupt {
                    detail: format!(
                        "checkpoint has {} units, campaign has {total_units}",
                        cp.total_units
                    ),
                });
            }
            if cp.master_seed != master_seed {
                return Err(ResumeError::Corrupt {
                    detail: "master seed disagrees with the fingerprint".to_string(),
                });
            }
            checkpoint = cp;
        }
        Ok(CampaignDriver {
            path: runtime
                .checkpoint_path
                .clone()
                .or_else(|| runtime.resume_from.clone()),
            every: runtime.checkpoint_every,
            stop_after: runtime.stop_after_units,
            // A budget too large to add to the clock never runs out.
            deadline: runtime
                .effective_deadline()
                .and_then(|secs| Instant::now().checked_add(Duration::from_secs(secs))),
            stopped: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                checkpoint,
                fresh: 0,
                since_flush: 0,
                flush_error: None,
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the deadline has passed or `--stop-after` has fired;
    /// the pool's cursor asks before handing out each unit and hands
    /// out none once it holds, so nothing is killed mid-unit and the
    /// bitmap stays exact.
    pub(crate) fn interrupted(&self) -> bool {
        self.stopped.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether `unit` already completed (this run or a resumed one).
    pub(crate) fn is_done(&self, unit: u64) -> bool {
        self.lock().checkpoint.is_done(unit)
    }

    /// Units recorded done so far, quarantined included; before the
    /// sweep starts, the ones the resume checkpoint brought.
    pub(crate) fn done_units(&self) -> u64 {
        self.lock().checkpoint.done_units()
    }

    /// The result payloads restored from the resume checkpoint,
    /// `(unit, serialized)` in unit order.
    pub(crate) fn payloads(&self) -> Vec<(u64, String)> {
        self.lock().checkpoint.payloads.clone()
    }

    /// The earliest failing unit recorded so far.
    pub(crate) fn earliest_failure(&self) -> Option<u64> {
        self.lock().checkpoint.earliest_failure
    }

    /// Records a failing unit (the earliest across workers wins).
    pub(crate) fn record_failure(&self, unit: u64) {
        let cp = &mut self.lock().checkpoint;
        cp.earliest_failure = Some(cp.earliest_failure.map_or(unit, |e| e.min(unit)));
    }

    /// Records unit `unit` successfully completed, with an optional
    /// result payload to restore on resume, flushing the checkpoint at
    /// the configured cadence. Fires the `--stop-after` hook when its
    /// count of fresh units is reached.
    pub(crate) fn complete(&self, unit: u64, payload: Option<String>) {
        let mut p = self.lock();
        if p.checkpoint.is_done(unit) {
            return;
        }
        p.checkpoint.mark_done(unit);
        if let Some(data) = payload {
            let payloads = &mut p.checkpoint.payloads;
            payloads.insert(payloads.partition_point(|&(u, _)| u < unit), (unit, data));
        }
        p.fresh += 1;
        if self.stop_after == Some(p.fresh) {
            self.stopped.store(true, Ordering::Relaxed);
        }
        self.bump_flush(&mut p);
    }

    /// Records unit `unit` quarantined: the harness panicked on it, the
    /// payload is kept, and the unit is marked done so a resumed run
    /// does not re-run a deterministic panic.
    pub(crate) fn quarantine(&self, unit: u64, payload: String) {
        let mut p = self.lock();
        if p.checkpoint.is_done(unit) {
            return;
        }
        p.checkpoint.mark_done(unit);
        let quarantined = &mut p.checkpoint.quarantined;
        quarantined.insert(
            quarantined.partition_point(|q| q.unit < unit),
            HarnessPanic { unit, payload },
        );
        self.bump_flush(&mut p);
    }

    fn bump_flush(&self, p: &mut Progress) {
        p.since_flush += 1;
        if self.every > 0 && p.since_flush >= self.every {
            self.flush(p);
        }
    }

    fn flush(&self, p: &mut Progress) {
        let Some(path) = &self.path else { return };
        if let Err(e) = p.checkpoint.write_atomic(path) {
            p.flush_error.get_or_insert(e);
        }
        p.since_flush = 0;
    }

    /// Flushes the final checkpoint (graceful shutdown) and hands it
    /// back: the campaign's completion bitmap, earliest failure and
    /// quarantined panics.
    ///
    /// # Errors
    ///
    /// The first [`ResumeError::Io`] any flush hit — surfaced here
    /// rather than mid-sweep so a transient disk error never aborts
    /// compute work, but a campaign whose checkpoint is stale says so.
    pub(crate) fn finish(self) -> Result<Checkpoint, ResumeError> {
        self.flush(&mut self.lock());
        let p = self
            .progress
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        p.flush_error.map_or(Ok(p.checkpoint), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut cp = Checkpoint::new("fuzz", "fuzz seed=0x7 cases=100", 0x7, 100);
        for u in [0, 1, 5, 63, 64, 99] {
            cp.mark_done(u);
        }
        cp.earliest_failure = Some(63);
        cp.quarantined = vec![HarnessPanic {
            unit: 5,
            payload: "boom \"quoted\"\nnewline".to_string(),
        }];
        cp.payloads = vec![(64, "{\"cells\": 1}".to_string())];
        cp
    }

    #[test]
    fn bitmap_marks_and_counts() {
        let cp = sample();
        assert!(cp.is_done(0) && cp.is_done(64) && cp.is_done(99));
        assert!(!cp.is_done(2) && !cp.is_done(98));
        assert_eq!(cp.done_units(), 6);
        assert_eq!(cp.completed(), 5);
    }

    #[test]
    fn json_round_trip_is_identity() {
        let cp = sample();
        let parsed = Checkpoint::parse(&cp.to_json()).expect("round trip");
        assert_eq!(parsed, cp);
        // And the rendering is a fixpoint.
        assert_eq!(parsed.to_json(), cp.to_json());
    }

    #[test]
    fn format_and_consistency_violations_are_typed() {
        let cp = sample();
        let doc = cp.to_json();
        let wrong_format = doc.replace("ede.checkpoint.v1", "ede.checkpoint.v0");
        assert!(matches!(
            Checkpoint::parse(&wrong_format),
            Err(ResumeError::Format { found }) if found == "ede.checkpoint.v0"
        ));
        let wrong_count = doc.replace("\"completed\": 5", "\"completed\": 6");
        assert!(matches!(
            Checkpoint::parse(&wrong_count),
            Err(ResumeError::Corrupt { .. })
        ));
        assert!(matches!(
            Checkpoint::parse("not json"),
            Err(ResumeError::Parse { .. })
        ));
    }

    #[test]
    fn atomic_write_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("ede-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cp.json");
        let cp = sample();
        cp.write_atomic(&path).expect("write");
        assert_eq!(Checkpoint::load(&path).expect("load"), cp);
        // Overwrite atomically with new progress.
        let mut cp2 = cp.clone();
        cp2.mark_done(7);
        cp2.write_atomic(&path).expect("rewrite");
        assert_eq!(Checkpoint::load(&path).expect("reload"), cp2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn driver(runtime: &RuntimeOptions) -> CampaignDriver {
        CampaignDriver::new("fuzz", "fp".to_string(), 0, 10, runtime).expect("new")
    }

    #[test]
    fn zero_deadline_trips_immediately_and_none_never_does() {
        let zero = RuntimeOptions {
            max_wall_secs: Some(0),
            ..RuntimeOptions::default()
        };
        assert!(driver(&zero).interrupted());
        assert!(!driver(&RuntimeOptions::default()).interrupted());
    }

    #[test]
    fn wall_clock_deadline_trips_once_its_budget_passes() {
        let budget = |secs| RuntimeOptions {
            max_wall_secs: Some(secs),
            ..RuntimeOptions::default()
        };
        let one = driver(&budget(1));
        let none = driver(&RuntimeOptions::default());
        // A budget too large to add to the clock never runs out.
        let huge = driver(&budget(u64::MAX));
        assert!(!one.interrupted());
        std::thread::sleep(Duration::from_millis(1200));
        assert!(one.interrupted());
        assert!(!none.interrupted() && !huge.interrupted());
    }

    #[test]
    fn driver_stop_after_trips_the_deadline_deterministically() {
        let runtime = RuntimeOptions {
            stop_after_units: Some(2),
            ..RuntimeOptions::default()
        };
        let driver = driver(&runtime);
        driver.complete(0, None);
        assert!(!driver.interrupted());
        driver.complete(1, None);
        assert!(driver.interrupted());
        assert_eq!(driver.finish().expect("finish").completed(), 2);
    }

    #[test]
    fn driver_validates_resume_against_kind_and_fingerprint() {
        let dir = std::env::temp_dir().join(format!("ede-resume-drv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cp.json");
        let mut cp = Checkpoint::new("fuzz", "fp-a", 3, 10);
        cp.mark_done(0);
        cp.write_atomic(&path).expect("write");
        let runtime = RuntimeOptions {
            resume_from: Some(path.clone()),
            ..RuntimeOptions::default()
        };
        match CampaignDriver::new("inject", "fp-a".to_string(), 3, 10, &runtime) {
            Err(ResumeError::Kind { expected, found }) => {
                assert_eq!((expected.as_str(), found.as_str()), ("inject", "fuzz"));
            }
            Err(other) => panic!("expected Kind error, got {other:?}"),
            Ok(_) => panic!("expected Kind error, got a driver"),
        }
        match CampaignDriver::new("fuzz", "fp-b".to_string(), 3, 10, &runtime) {
            Err(ResumeError::Fingerprint { expected, found }) => {
                assert_eq!((expected.as_str(), found.as_str()), ("fp-b", "fp-a"));
            }
            Err(other) => panic!("expected Fingerprint error, got {other:?}"),
            Ok(_) => panic!("expected Fingerprint error, got a driver"),
        }
        assert!(matches!(
            CampaignDriver::new("fuzz", "fp-a".to_string(), 3, 12, &runtime),
            Err(ResumeError::Corrupt { .. })
        ));
        // The matching driver resumes and sees the completed unit.
        let driver = CampaignDriver::new("fuzz", "fp-a".to_string(), 3, 10, &runtime)
            .expect("matching options resume");
        assert!(driver.is_done(0) && !driver.is_done(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn driver_round_trips_progress_through_a_checkpoint_file() {
        let dir = std::env::temp_dir().join(format!("ede-resume-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cp.json");
        let runtime = RuntimeOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 1,
            ..RuntimeOptions::default()
        };
        let driver = CampaignDriver::new("inject", "fp".to_string(), 9, 4, &runtime).expect("new");
        driver.complete(0, Some("{\"c\": 0}".to_string()));
        driver.quarantine(2, "panicked at unit 2".to_string());
        driver.record_failure(3);
        let end = driver.finish().expect("finish");
        assert_eq!(end.completed(), 1);
        assert_eq!(
            end.quarantined,
            vec![HarnessPanic {
                unit: 2,
                payload: "panicked at unit 2".to_string(),
            }]
        );
        assert_eq!(Checkpoint::load(&path).expect("flushed"), end);

        let resumed_runtime = RuntimeOptions {
            resume_from: Some(path.clone()),
            ..RuntimeOptions::default()
        };
        let driver2 = CampaignDriver::new("inject", "fp".to_string(), 9, 4, &resumed_runtime)
            .expect("resume");
        assert!(driver2.is_done(0) && driver2.is_done(2));
        assert!(!driver2.is_done(1) && !driver2.is_done(3));
        assert_eq!(driver2.payloads(), vec![(0, "{\"c\": 0}".to_string())]);
        assert_eq!(driver2.earliest_failure(), Some(3));
        driver2.complete(3, Some("{\"c\": 3}".to_string()));
        driver2.complete(1, Some("{\"c\": 1}".to_string()));
        assert!(!driver2.interrupted());
        let end2 = driver2.finish().expect("finish resumed");
        assert_eq!(end2.completed(), 3);
        assert_eq!(end2.quarantined.len(), 1);
        // Payloads stay in unit order whatever order units finish in.
        let units: Vec<u64> = end2.payloads.iter().map(|&(u, _)| u).collect();
        assert_eq!(units, [0, 1, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
