//! The one campaign skeleton: fuzz, inject, explore, and corrupt are
//! each a [`Campaign`] — a sweep over independent, index-addressed work
//! units — and [`run`] is the single place the resilient-runtime
//! protocol lives:
//!
//! 1. build the run's private progress record, a [`CampaignDriver`]
//!    around the campaign's [`Checkpoint`](crate::resume::Checkpoint)
//!    (loading and validating `--resume`);
//! 2. restore resumed unit payloads up front, so a corrupt payload fails
//!    the session before any compute;
//! 3. fan the units out through [`Pool::run_quarantined`], skipping units
//!    already done or cut off by the deadline, firing the
//!    `--self-test-panic` hook, and recording each finished unit;
//! 4. assemble results in unit order, quarantining units whose harness
//!    panicked;
//! 5. flush the final checkpoint and apply the interrupted rule: the
//!    deadline tripped *and* some unit is still unaccounted for.
//!
//! A campaign supplies only what is its own: its checkpoint kind and
//! options fingerprint, its unit count, how to run one unit, and how a
//! finished unit is checkpointed and restored.

use crate::resume::{CampaignDriver, HarnessPanic, ResumeError, RuntimeOptions};
use ede_util::obs::{json, json_escape};
use ede_util::pool::Pool;
use std::collections::BTreeMap;

/// How the checkpoint records a finished unit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Record {
    /// Done; the payload (if any) is handed back to
    /// [`Campaign::decode`] on resume instead of re-running the unit.
    Done(Option<String>),
    /// Left pending: a resumed session re-runs the unit (explore's
    /// dirty cells, whose reproducers regenerate deterministically).
    Rerun,
}

/// What a campaign tells the runner about itself.
#[derive(Clone, Debug)]
pub struct Plan<'a> {
    /// The checkpoint `kind` string (the subcommand name).
    pub kind: &'static str,
    /// What the self-test panic message calls a unit.
    pub noun: &'static str,
    /// The canonical options fingerprint recorded in checkpoints.
    pub fingerprint: String,
    /// The master seed every per-unit stream derives from.
    pub seed: u64,
    /// Total work units.
    pub units: usize,
    /// Worker threads the units fan out across (0 = auto).
    pub jobs: usize,
    /// Checkpoint, deadline, and quarantine settings.
    pub runtime: &'a RuntimeOptions,
    /// The unit the harness deliberately panics on, if any.
    pub self_test_panic: Option<u32>,
}

/// A resumable sweep over independent, index-addressed work units.
///
/// Unit results must be a pure function of the unit index and the
/// options, so the assembled report is identical for every worker
/// count and across interrupt + resume.
pub trait Campaign: Sync {
    /// One finished unit's result.
    type Unit: Send;
    /// The campaign's kind, fingerprint, and unit count.
    fn plan(&self) -> Plan<'_>;
    /// Runs unit `unit`; `None` leaves it pending (neither done nor
    /// reported). `driver` carries the cross-unit failure record.
    fn run_unit(&self, unit: usize, driver: &CampaignDriver) -> Option<Self::Unit>;
    /// How the checkpoint records a finished unit.
    fn record(&self, _unit: &Self::Unit) -> Record {
        Record::Done(None)
    }
    /// Restores unit `unit` from its checkpoint payload.
    ///
    /// # Errors
    ///
    /// What is wrong with the payload (it becomes a
    /// [`ResumeError::Corrupt`]).
    fn decode(&self, unit: usize, _data: &str) -> Result<Self::Unit, String> {
        Err(format!(
            "unit {unit} carries a payload this campaign never writes"
        ))
    }
}

/// What [`run`] hands back to the campaign.
#[derive(Debug)]
pub struct Sweep<U> {
    /// Finished units in unit order, fresh and restored alike.
    /// Quarantined, interrupted, and pending units are absent.
    pub units: Vec<(usize, U)>,
    /// Units accounted for: finished (this session or an earlier one)
    /// or quarantined.
    pub covered: u64,
    /// Whether the deadline cut the sweep short.
    pub interrupted: bool,
    /// The earliest failing unit the driver recorded.
    pub earliest_failure: Option<u64>,
    /// Quarantined harness panics, in unit order.
    pub quarantined: Vec<HarnessPanic>,
}

/// Runs `campaign` under the resilient runtime (see the module docs).
///
/// # Errors
///
/// A [`ResumeError`] when the resume checkpoint is missing, malformed,
/// fingerprint-mismatched, or carries an undecodable payload, or when
/// a checkpoint flush failed.
pub fn run<C: Campaign>(campaign: &C) -> Result<Sweep<C::Unit>, ResumeError> {
    let plan = campaign.plan();
    let n = plan.units;
    let driver = CampaignDriver::new(
        plan.kind,
        plan.fingerprint,
        plan.seed,
        n as u64,
        plan.runtime,
    )?;
    let mut restored = BTreeMap::new();
    for (i, data) in driver.payloads() {
        let i = i as usize;
        let unit = campaign
            .decode(i, &data)
            .map_err(|detail| ResumeError::Corrupt { detail })?;
        restored.insert(i, unit);
    }
    // Every resumed unit is skipped below, so it counts as covered here.
    let mut covered = driver.done_units();
    let outcomes = Pool::new(plan.jobs).run_quarantined(n, |i| {
        // The deadline first: past it, skipping a unit takes no lock.
        if driver.interrupted() || driver.is_done(i as u64) {
            return None;
        }
        if plan.self_test_panic == Some(i as u32) {
            panic!("deliberate harness panic at {} {i}", plan.noun);
        }
        let unit = campaign.run_unit(i, &driver)?;
        if let Record::Done(payload) = campaign.record(&unit) {
            driver.complete(i as u64, payload);
        }
        Some(unit)
    });
    let mut units = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(Some(unit)) => {
                units.push((i, unit));
                covered += 1;
            }
            Ok(None) => {
                if let Some(unit) = restored.remove(&i) {
                    units.push((i, unit));
                }
            }
            Err(up) => {
                driver.quarantine(i as u64, up.message);
                covered += 1;
            }
        }
    }
    let interrupted = driver.interrupted() && covered < n as u64;
    let checkpoint = driver.finish()?;
    Ok(Sweep {
        units,
        covered,
        interrupted,
        earliest_failure: checkpoint.earliest_failure,
        quarantined: checkpoint.quarantined,
    })
}

/// The runtime lines every cell-campaign report ends with: an
/// `"interrupted"` flag and the `"quarantined"` harness panics, each
/// emitted only when set, so a completed clean report is byte-identical
/// to one from a session that never checkpointed — the resume
/// byte-identity contract and the CI diffs rely on it.
pub fn runtime_json(interrupted: bool, quarantined: &[HarnessPanic]) -> String {
    let mut s = String::new();
    if interrupted {
        s.push_str("  \"interrupted\": true,\n");
    }
    if !quarantined.is_empty() {
        let entries: Vec<String> = quarantined
            .iter()
            .map(|q| {
                format!(
                    "{{\"cell\": {}, \"payload\": {}}}",
                    q.unit,
                    json_escape(&q.payload)
                )
            })
            .collect();
        s.push_str(&format!("  \"quarantined\": [{}],\n", entries.join(", ")));
    }
    s
}

/// Encodes a cell's `u32` counters under `keys`, plus the index of its
/// first failing case under `first_key`, as a checkpoint payload object.
pub fn counters_payload(
    keys: &[&str],
    counts: &[u32],
    first_key: &str,
    first: Option<u32>,
) -> String {
    let first = first.map_or("null".to_string(), |v| v.to_string());
    let fields: Vec<String> = keys
        .iter()
        .zip(counts)
        .map(|(key, n)| format!("\"{key}\": {n}"))
        .chain([format!("\"{first_key}\": {first}")])
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Decodes a [`counters_payload`]: the counters in `keys` order, then
/// the first failing case.
pub fn parse_counters(
    data: &str,
    keys: &[&str],
    first_key: &str,
) -> Result<(Vec<u32>, Option<u32>), String> {
    let doc = json::parse(data).map_err(|e| format!("cell payload: {e}"))?;
    let as_u32 = |v: &json::Json| v.as_u64().and_then(|v| u32::try_from(v).ok());
    let counters = keys
        .iter()
        .map(|key| {
            doc.get(key)
                .and_then(as_u32)
                .ok_or_else(|| format!("cell payload lacks counter {key}"))
        })
        .collect::<Result<_, _>>()?;
    let first = match doc.get(first_key) {
        Some(json::Json::Null) => None,
        Some(v) => {
            Some(as_u32(v).ok_or_else(|| format!("cell payload {first_key} is not a case index"))?)
        }
        None => return Err(format!("cell payload lacks {first_key}")),
    };
    Ok((counters, first))
}
