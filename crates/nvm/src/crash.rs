//! Crash-point replay and failure-atomicity checking.
//!
//! Given a simulation's [`PersistTrace`] and the transaction record from
//! the code generator, [`CrashChecker`] can simulate a power failure at
//! any instant: reconstruct the NVM image, run the protocol's recovery
//! ([`triage::recover`] — undo, redo or CoW), and check that the
//! recovered state equals the functional state after exactly the
//! committed prefix of transactions — failure atomicity *and* commit
//! ordering in one predicate.
//!
//! For the crash-safe configurations (B, IQ, WB) this holds at every
//! instant; for SU and U the test suite demonstrates crash points where
//! it fails.

use crate::codegen::{TxOutput, TxRecord};
use crate::layout::Layout;
use crate::recovery::NvmImage;
use crate::triage::{self, Protocol, RecoveryOutcome};
use ede_mem::trace::nvm_image_at;
use ede_mem::PersistTrace;
use std::collections::HashMap;
use std::fmt;

/// A failure-atomicity violation found at a crash point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConsistencyError {
    /// The inconsistent address (logical, under CoW).
    pub addr: u64,
    /// The value the committed prefix implies.
    pub expected: u64,
    /// The value recovery produced.
    pub found: u64,
    /// The committed transaction id the crash image claimed.
    pub committed_txid: u64,
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {:#x}: expected {} after {} committed transactions, recovered {}",
            self.addr, self.expected, self.committed_txid, self.found
        )
    }
}

impl std::error::Error for ConsistencyError {}

/// Why a crash image failed the check — the same taxonomy split the
/// recovery triage engine reports ([`crate::triage::RecoveryOutcome`]),
/// so the fault-injection and corruption campaigns diagnose header
/// destruction identically instead of collapsing it into a bare
/// pass/fail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckFailure {
    /// Recovery ran but the recovered state contradicts the committed
    /// prefix of transactions.
    Inconsistent(ConsistencyError),
    /// Recovery refused the image ([`RecoveryOutcome::Unrecoverable`]):
    /// every copy of a commit marker (or of the superblock magic) is
    /// destroyed, so there is no trustworthy committed id to recover
    /// toward and no consistency claim is possible either way.
    Unrecoverable {
        /// What made the header unparseable.
        diagnosis: String,
    },
}

impl CheckFailure {
    /// The consistency violation, when recovery got far enough to find
    /// one.
    pub fn inconsistency(&self) -> Option<&ConsistencyError> {
        match self {
            CheckFailure::Inconsistent(e) => Some(e),
            CheckFailure::Unrecoverable { .. } => None,
        }
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Inconsistent(e) => e.fmt(f),
            CheckFailure::Unrecoverable { diagnosis } => {
                write!(f, "unrecoverable image: {diagnosis}")
            }
        }
    }
}

impl std::error::Error for CheckFailure {}

impl From<ConsistencyError> for CheckFailure {
    fn from(e: ConsistencyError) -> CheckFailure {
        CheckFailure::Inconsistent(e)
    }
}

/// Checks crash consistency of one simulated run.
#[derive(Clone, Debug)]
pub struct CrashChecker {
    protocol: Protocol,
    layout: Layout,
    initial: HashMap<u64, u64>,
    records: Vec<TxRecord>,
    jobs: usize,
}

impl CrashChecker {
    /// Builds a checker from the code generator's output, using undo-log
    /// recovery.
    pub fn new(out: &TxOutput) -> CrashChecker {
        CrashChecker::with_protocol(out, Protocol::Undo)
    }

    /// Builds a checker that recovers through `protocol`: redo replay
    /// for [`RedoTxWriter`](crate::redo::RedoTxWriter) output, or CoW
    /// root resolution for
    /// [`CowTxWriter`](crate::cow::CowTxWriter) output, whose records
    /// carry logical addresses read through the recovered root.
    pub fn with_protocol(out: &TxOutput, protocol: Protocol) -> CrashChecker {
        CrashChecker {
            protocol,
            layout: out.layout,
            initial: out.init_writes.iter().copied().collect(),
            records: out.records.clone(),
            jobs: 1,
        }
    }

    /// Sets the worker threads [`check_all_images`](Self::check_all_images)
    /// spreads its crash instants over: 0 = auto (`EDE_JOBS` or the host
    /// parallelism), 1 = sequential (the default — callers that already
    /// run inside a worker pool should keep it). The verdict is identical
    /// for every value.
    pub fn with_jobs(mut self, jobs: usize) -> CrashChecker {
        self.jobs = jobs;
        self
    }

    /// The value every tracked address should hold after the first `k`
    /// transactions, and the tracked addresses in check order. Undo and
    /// redo track physical words, starting from the preloaded pool; CoW
    /// tracks the logical words the transactions wrote, starting from
    /// zero.
    fn expected_after(&self, k: u64) -> (HashMap<u64, u64>, Vec<u64>) {
        let writes = || {
            self.records
                .iter()
                .flat_map(|r| r.writes.iter().map(|&(a, _, _)| a))
        };
        let (mut m, addrs) = match self.protocol {
            Protocol::Cow(_) => {
                let mut addrs: Vec<u64> = writes().collect();
                addrs.sort_unstable();
                addrs.dedup();
                (HashMap::new(), addrs)
            }
            _ => (
                self.initial.clone(),
                self.initial.keys().copied().chain(writes()).collect(),
            ),
        };
        for r in self.records.iter().take(k as usize) {
            for &(a, _, new) in &r.writes {
                m.insert(a, new);
            }
        }
        (m, addrs)
    }

    /// Simulates a crash at `cycle`, runs recovery, and checks failure
    /// atomicity. Returns the committed transaction count on success.
    ///
    /// Initial (preloaded) pool contents count as persisted from cycle 0,
    /// so every crash instant is checkable.
    ///
    /// # Errors
    ///
    /// The first [`CheckFailure`] found.
    pub fn check_at(&self, trace: &PersistTrace, cycle: u64) -> Result<u64, CheckFailure> {
        self.check_image(nvm_image_at(trace, cycle, 64))
    }

    /// Runs recovery over an arbitrary crash image and checks failure
    /// atomicity against the transaction record — the trace-free core of
    /// [`check_at`](Self::check_at). The exhaustive explorer uses this
    /// directly on model-enumerated images that no single simulation run
    /// produced. Returns the committed transaction count on success.
    ///
    /// # Errors
    ///
    /// The first [`CheckFailure`] found: [`CheckFailure::Unrecoverable`]
    /// when recovery refuses the image (at-rest corruption destroyed
    /// every copy of a marker), otherwise the first
    /// [`CheckFailure::Inconsistent`] violation.
    pub fn check_image(&self, mut image: NvmImage) -> Result<u64, CheckFailure> {
        // The at-rest media holds the preloaded pool contents wherever
        // the run never persisted; merge them so recovery sees what a
        // real device would.
        for (&a, &v) in &self.initial {
            image.entry(a).or_insert(v);
        }
        let report = triage::recover(&mut image, &self.layout, self.protocol);
        if let RecoveryOutcome::Unrecoverable { diagnosis } = report.outcome {
            return Err(CheckFailure::Unrecoverable { diagnosis });
        }
        let committed = report.committed;
        let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
        let read = |a: u64| match self.protocol {
            Protocol::Cow(meta) => rd(meta.physical(rd(meta.root_line), a, rd)),
            _ => rd(a),
        };
        let (expected, addrs) = self.expected_after(committed.min(self.records.len() as u64));
        for addr in addrs {
            let want = expected.get(&addr).copied().unwrap_or(0);
            let got = read(addr);
            if want != got {
                return Err(ConsistencyError {
                    addr,
                    expected: want,
                    found: got,
                    committed_txid: committed,
                }
                .into());
            }
        }
        Ok(committed)
    }

    /// Exhaustively checks every distinct crash image the run could leave
    /// behind. The NVM image only changes at persist events, so checking
    /// at each persist cycle (plus the instants just before the first and
    /// after the last) covers *every* possible crash instant.
    ///
    /// The instants are independent, so they fan out across
    /// [`with_jobs`](Self::with_jobs) workers; outcomes are merged in
    /// cycle order, so the reported violation is the earliest-cycle one
    /// for every job count.
    ///
    /// # Errors
    ///
    /// The first violating `(cycle, error)` pair, in cycle order.
    pub fn check_all_images(&self, trace: &PersistTrace) -> Result<(), (u64, CheckFailure)> {
        let cycles = trace.persist_cycles();
        ede_util::pool::par_map_indexed(self.jobs, &cycles, |_, &c| {
            self.check_at(trace, c).map_err(|e| (c, e))
        })
        .into_iter()
        .collect::<Result<Vec<u64>, _>>()
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::TxWriter;
    use ede_isa::ArchConfig;
    use ede_mem::trace::{PersistEvent, StoreEvent};

    /// Hand-build a persist trace that persists a set of writes in a given
    /// order, 1 cycle apart, starting at cycle 100.
    fn synthetic_trace(events: &[(u64, u64, bool)]) -> PersistTrace {
        // (addr, value, also_persist)
        let mut t = PersistTrace::default();
        let mut cycle = 100;
        for &(addr, value, persist) in events {
            t.record_store(StoreEvent {
                cycle,
                addr,
                width: 8,
                value: [value, 0],
            });
            if persist {
                t.record_persist(PersistEvent {
                    cycle: cycle + 1,
                    line: addr & !63,
                });
            }
            cycle += 2;
        }
        t
    }

    fn simple_output() -> (TxOutput, u64) {
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 5);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 6);
        tx.commit_tx();
        (tx.finish(), a)
    }

    #[test]
    fn consistent_image_passes() {
        let (out, a) = simple_output();
        let layout = out.layout;
        let slot = layout.slot_addr(0);
        use crate::log::{checksum, header_word, OFF_ADDR, OFF_TXID};
        // Proper order: init, log entry, data, commit header.
        let trace = synthetic_trace(&[
            (a, 5, true),                         // init value persisted
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true), // entry persisted
            (a, 6, true),                         // data persisted
            (layout.log_header, header_word(1), true), // commit persisted
        ]);
        let checker = CrashChecker::new(&out);
        // Every instant from after init persist to the end is consistent.
        for cycle in 102..=trace.horizon() {
            checker
                .check_at(&trace, cycle)
                .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        }
        // At the end, exactly tx 1 is committed.
        assert_eq!(checker.check_at(&trace, trace.horizon()).unwrap(), 1);
    }

    #[test]
    fn data_before_log_is_caught() {
        let (out, a) = simple_output();
        // Unsafe order: data persisted, log entry never persisted, crash.
        let trace = synthetic_trace(&[
            (a, 5, true), // init
            (a, 6, true), // data persisted with no log entry!
        ]);
        let checker = CrashChecker::new(&out);
        // Only the horizon fails: the image with just the init persisted
        // is consistent.
        assert_eq!(checker.check_at(&trace, 101), Ok(0));
        let err = checker
            .check_at(&trace, trace.horizon())
            .expect_err("must detect the torn state");
        let e = err.inconsistency().expect("a consistency violation");
        assert_eq!(e.addr, a);
        assert_eq!(e.expected, 5);
        assert_eq!(e.found, 6);
    }

    #[test]
    fn commit_before_data_is_caught() {
        let (out, a) = simple_output();
        let layout = out.layout;
        // Header persisted (claims committed) but data never persisted.
        use crate::log::header_word;
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1), true), // commit marker raced ahead
        ]);
        let checker = CrashChecker::new(&out);
        let err = checker.check_at(&trace, trace.horizon()).unwrap_err();
        let e = err.inconsistency().expect("a consistency violation");
        assert_eq!(e.addr, a);
        assert_eq!(e.expected, 6); // committed ⇒ new value required
        assert_eq!(e.found, 5);
    }

    #[test]
    fn check_all_images_verdict_is_identical_for_every_job_count() {
        let (out, a) = simple_output();
        // Data persisted with no log entry: a violation exists.
        let trace = synthetic_trace(&[(a, 5, true), (a, 6, true)]);
        // A CoW run whose root switch persisted before its shadow block:
        // a torn tree under the CoW protocol.
        let mut cow = crate::cow::CowTxWriter::new(Layout::standard(), ArchConfig::Unsafe, 8);
        cow.finish_init();
        cow.begin_tx();
        cow.write(0, 0, 42);
        cow.commit_tx();
        let (cow_out, meta) = cow.finish();
        let root = cow_out.memory.read(meta.root_line);
        let cow_trace = synthetic_trace(&[
            (meta.root_twin, root, false),
            (meta.root_twin + 8, crate::cow::root_word(root, 1), true),
        ]);
        for (out, protocol, trace) in [
            (&out, Protocol::Undo, &trace),
            (&cow_out, Protocol::Cow(meta), &cow_trace),
        ] {
            let checker = CrashChecker::with_protocol(out, protocol);
            let base = checker.check_all_images(trace);
            assert!(base.is_err(), "{protocol:?}");
            for jobs in [2, 4] {
                let r = checker.clone().with_jobs(jobs).check_all_images(trace);
                assert_eq!(r, base, "{protocol:?}, jobs {jobs}");
            }
        }
    }

    #[test]
    fn mutated_image_feeds_recovery() {
        let (out, a) = simple_output();
        let layout = out.layout;
        let slot = layout.slot_addr(0);
        use crate::log::{checksum, header_word, OFF_ADDR, OFF_TXID};
        let trace = synthetic_trace(&[
            (a, 5, true),
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true),
            (a, 6, true),
            (layout.log_header, header_word(1), true),
        ]);
        let checker = CrashChecker::new(&out);
        let image = nvm_image_at(&trace, trace.horizon(), 64);
        // Corrupting a word no transaction tracks is tolerated.
        let mut untracked = image.clone();
        untracked.insert(layout.heap_base + 0x800, 0xDEAD);
        assert_eq!(checker.check_image(untracked), Ok(1), "untracked corruption is tolerated");
        // Corrupting the data word itself is detected.
        let mut flipped = image;
        *flipped.get_mut(&a).expect("the data word persisted") ^= 1;
        let err = checker.check_image(flipped).expect_err("corrupted data word must surface");
        assert_eq!(err.inconsistency().expect("a violation").addr, a);
    }

    #[test]
    fn destroyed_header_pair_is_typed_unrecoverable() {
        use crate::log::header_word;
        let (out, a) = simple_output();
        let layout = out.layout;
        // Both marker copies present but failing validation: at-rest
        // corruption beyond what the twin can repair.
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1) ^ (1 << 40), true),
            (layout.log_header_twin, header_word(1) ^ (1 << 41), true),
        ]);
        let checker = CrashChecker::new(&out);
        let err = checker.check_at(&trace, trace.horizon()).unwrap_err();
        assert!(
            matches!(err, CheckFailure::Unrecoverable { .. }),
            "expected a typed diagnosis, got {err:?}"
        );
        assert!(err.inconsistency().is_none());
        assert!(err.to_string().contains("unrecoverable"));
    }

    #[test]
    fn legacy_single_copy_torn_header_is_not_unrecoverable() {
        use crate::log::header_word;
        let (out, a) = simple_output();
        let layout = out.layout;
        // Only the primary marker tore and the twin line was never
        // written (reads fresh): the classic single-copy crash state
        // stays an ordinary "nothing committed" rollback, not a typed
        // refusal.
        let trace = synthetic_trace(&[
            (a, 5, true),
            (layout.log_header, header_word(1) ^ 1, true),
        ]);
        let checker = CrashChecker::new(&out);
        assert_eq!(checker.check_at(&trace, trace.horizon()), Ok(0));
    }

    #[test]
    fn check_image_matches_check_at_on_reconstructed_images() {
        let (out, a) = simple_output();
        let trace = synthetic_trace(&[(a, 5, true), (a, 6, true)]);
        let checker = CrashChecker::new(&out);
        for cycle in trace.persist_cycles() {
            let direct = checker.check_image(ede_mem::trace::nvm_image_at(&trace, cycle, 64));
            assert_eq!(direct, checker.check_at(&trace, cycle), "cycle {cycle}");
        }
        // An image where the data word raced ahead of its log entry is
        // rejected no matter how it was produced.
        let mut torn = NvmImage::new();
        torn.insert(a, 6);
        assert!(checker.check_image(torn).is_err());
    }
}
