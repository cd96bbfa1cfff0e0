//! Crash-point replay and failure-atomicity checking.
//!
//! Given a simulation's [`PersistTrace`] and the transaction record from
//! the code generator, [`CrashChecker`] can simulate a power failure at
//! any instant: reconstruct the NVM image, run the recovery of the
//! protocol the writer recorded in its output ([`TxOutput::protocol`]:
//! undo, redo or CoW, through [`triage::replay`], the in-place half of
//! [`triage::recover`]), and check that the recovered state equals the
//! functional state after exactly the committed prefix of transactions
//! — failure atomicity *and* commit ordering in one predicate.
//!
//! For the crash-safe configurations (B, IQ, WB) this holds at every
//! instant; for SU and U the test suite demonstrates crash points where
//! it fails.
//!
//! A check costs what the run persisted and recovery wrote, not the size
//! of the preloaded pool: recovery sees the image over the pool words it
//! reads (the superblock lines and the log slots), the write sets are
//! compared against their values after the committed prefix, and every
//! other word the recovered image holds against its preloaded value (see
//! [`CrashChecker::check_image`]). Recovery builds no triage report for
//! a check, and the image is a word-hashed map ([`NvmImage`]). A sweep
//! over every crash instant replays the trace once, through one forward
//! [`ImageCursor`].

use crate::codegen::{TxOutput, TxRecord};
use crate::layout::Layout;
use crate::recovery::NvmImage;
use crate::triage::{self, Protocol};
use ede_mem::trace::{nvm_image_at, ImageCursor};
use ede_mem::PersistTrace;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    /// Recovery refused the image
    /// ([`RecoveryOutcome::Unrecoverable`](crate::triage::RecoveryOutcome::Unrecoverable)):
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
///
/// Everything that does not depend on the crash image is computed once.
/// [`new`](Self::new) builds the write-set addresses
/// and each one's value after every committed prefix, so building a
/// checker costs what the records hold. The first check picks the pool
/// words recovery reads out of the preloaded pool. A check then costs
/// what the image holds and the write set, not the size of the pool.
#[derive(Clone, Debug)]
pub struct CrashChecker {
    protocol: Protocol,
    layout: Layout,
    /// Transactions in the record: the most a crash image can commit.
    transactions: u64,
    written: WriteHistory,
    /// The pool words inside the superblock lines and the log-slot region
    /// (the only pool words [`triage::replay`] reads), by address. Built
    /// on the first check.
    recovery_base: OnceLock<Vec<(u64, u64)>>,
    /// The preloaded pool, as the writer emitted it (shared with the
    /// [`TxOutput`], not copied).
    pool: Arc<Vec<(u64, u64)>>,
    /// `pool` by address, built on the first lookup outside the recovery
    /// base: CoW tree pointers, and words the run persisted or recovery
    /// wrote outside the write sets.
    pool_index: OnceLock<Vec<(u64, u64)>>,
}

/// Every address the transactions write, and the value it holds after
/// each committed prefix.
#[derive(Clone, Debug, Default)]
struct WriteHistory {
    /// The write-set addresses, ascending.
    addrs: Vec<u64>,
    /// `values[starts[i]..starts[i + 1]]` are `(k, value)` pairs, `k`
    /// ascending from 0: address `i` holds `value` after every prefix of
    /// at least `k` committed transactions. The `k = 0` value is the first
    /// write's pre-image, which the writers read from the preloaded pool.
    starts: Vec<usize>,
    values: Vec<(u64, u64)>,
}

impl WriteHistory {
    fn new(records: &[TxRecord]) -> WriteHistory {
        let mut writes: Vec<(u64, u64, u64, u64)> = records
            .iter()
            .zip(1u64..)
            .flat_map(|(r, k)| r.writes.iter().map(move |&(a, old, new)| (a, k, old, new)))
            .collect();
        // Stable: a transaction's writes to one address stay in program
        // order, so its last write wins.
        writes.sort_by_key(|&(a, k, _, _)| (a, k));
        let mut h = WriteHistory::default();
        for (a, k, old, new) in writes {
            if h.addrs.last() != Some(&a) {
                h.addrs.push(a);
                h.starts.push(h.values.len());
                h.values.push((0, old));
            }
            match h.values.last_mut() {
                Some(last) if last.0 == k => last.1 = new,
                _ => h.values.push((k, new)),
            }
        }
        h.starts.push(h.values.len());
        h
    }

    /// The `(k, value)` history of write-set address `i`.
    fn history(&self, i: usize) -> &[(u64, u64)] {
        &self.values[self.starts[i]..self.starts[i + 1]]
    }

    /// The value write-set address `i` holds after `k` committed
    /// transactions.
    fn after(&self, i: usize, k: u64) -> u64 {
        let h = self.history(i);
        h[h.partition_point(|&(from, _)| from <= k) - 1].1
    }
}

/// `words` by address, the last value of a repeated address kept — the
/// pool a writer that preloads one word twice leaves behind.
fn by_address(words: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut words: Vec<(u64, u64)> = words.collect();
    words.sort_by_key(|&(a, _)| a);
    words.dedup_by(|next, kept| {
        next.0 == kept.0 && {
            kept.1 = next.1;
            true
        }
    });
    words
}

fn lookup(words: &[(u64, u64)], addr: u64) -> Option<u64> {
    words
        .binary_search_by_key(&addr, |&(a, _)| a)
        .ok()
        .map(|i| words[i].1)
}

impl CrashChecker {
    /// Builds a checker from the code generator's output, recovering
    /// with the protocol the output records ([`TxOutput::protocol`]):
    /// undo rollback for [`TxWriter`](crate::TxWriter) output, redo
    /// replay for [`RedoTxWriter`](crate::redo::RedoTxWriter) output, or
    /// CoW root resolution for [`CowTxWriter`](crate::cow::CowTxWriter)
    /// output, whose records carry logical addresses read through the
    /// recovered root.
    pub fn new(out: &TxOutput) -> CrashChecker {
        CrashChecker {
            protocol: out.protocol,
            layout: out.layout,
            transactions: out.records.len() as u64,
            written: WriteHistory::new(&out.records),
            recovery_base: OnceLock::new(),
            pool: Arc::clone(&out.init_writes),
            pool_index: OnceLock::new(),
        }
    }

    /// The pool words recovery reads, by address.
    fn recovery_base(&self) -> &[(u64, u64)] {
        self.recovery_base.get_or_init(|| {
            by_address(
                self.pool
                    .iter()
                    .copied()
                    .filter(|&(a, _)| self.in_recovery_base(a)),
            )
        })
    }

    /// Whether `addr` lies in a superblock line of the protocol or in the
    /// log-slot region.
    fn in_recovery_base(&self, addr: u64) -> bool {
        let (primary, twin) = self.protocol.superblock(&self.layout);
        let slots = self.layout.log_base..self.layout.log_base + self.layout.log_slots * 64;
        addr & !63 == primary || addr & !63 == twin || slots.contains(&addr)
    }

    /// The preloaded value of `addr`, if the pool holds it.
    fn pool_value(&self, addr: u64) -> Option<u64> {
        if self.in_recovery_base(addr) {
            return lookup(self.recovery_base(), addr);
        }
        let index = self
            .pool_index
            .get_or_init(|| by_address(self.pool.iter().copied()));
        lookup(index, addr)
    }

    /// Simulates a crash at `cycle`, runs recovery, and checks failure
    /// atomicity. Returns the committed transaction count on success.
    ///
    /// Initial (preloaded) pool contents count as persisted from cycle 0,
    /// so every crash instant is checkable.
    ///
    /// # Errors
    ///
    /// The [`CheckFailure`] [`check_image`](Self::check_image) reports.
    pub fn check_at(&self, trace: &PersistTrace, cycle: u64) -> Result<u64, CheckFailure> {
        self.check_image(nvm_image_at(trace, cycle, 64))
    }

    /// Runs recovery over an arbitrary crash image and checks failure
    /// atomicity against the transaction record — the trace-free core of
    /// [`check_at`](Self::check_at). The exhaustive explorer uses this
    /// directly on model-enumerated images that no single simulation run
    /// produced. Returns the committed transaction count on success.
    ///
    /// Recovery sees the image over the preloaded pool; it reads only the
    /// superblock lines and the log slots, so only the pool words there
    /// are merged in. Recovery runs as [`triage::replay`], which builds
    /// no report. After recovery:
    ///
    /// * every write-set address must hold its value after the committed
    ///   prefix (under CoW, read through the recovered root, with the pool
    ///   under the words the image does not hold);
    /// * under undo and redo, every other word the recovered image holds
    ///   (persisted by the run or written by recovery) must still hold its
    ///   preloaded value, if it has one.
    ///
    /// Words neither preloaded nor written by a transaction are not
    /// checked.
    ///
    /// # Errors
    ///
    /// [`CheckFailure::Unrecoverable`] when recovery refuses the image
    /// (at-rest corruption destroyed every copy of a marker), otherwise
    /// the [`CheckFailure::Inconsistent`] violation at the lowest
    /// mismatching address.
    pub fn check_image(&self, mut image: NvmImage) -> Result<u64, CheckFailure> {
        for &(a, v) in self.recovery_base() {
            image.entry(a).or_insert(v);
        }
        let committed = triage::replay(&mut image, &self.layout, self.protocol)
            .map_err(|diagnosis| CheckFailure::Unrecoverable { diagnosis })?;
        let k = committed.min(self.transactions);
        let error = |addr, expected, found| ConsistencyError {
            addr,
            expected,
            found,
            committed_txid: committed,
        };
        let written = &self.written;
        let first = match self.protocol {
            Protocol::Cow(meta) => {
                let rd = |a: u64| {
                    let held = image.get(&a).copied();
                    held.or_else(|| self.pool_value(a)).unwrap_or(0)
                };
                let root = rd(meta.root_line);
                written.addrs.iter().enumerate().find_map(|(i, &addr)| {
                    let (want, got) = (written.after(i, k), rd(meta.physical(root, addr, rd)));
                    (want != got).then(|| error(addr, want, got))
                })
            }
            _ => {
                // A write-set word the image does not hold reads its
                // preloaded value: its first write's pre-image.
                let mut first = written.addrs.iter().enumerate().find_map(|(i, &addr)| {
                    let want = written.after(i, k);
                    let got = image.get(&addr).copied().unwrap_or(written.history(i)[0].1);
                    (want != got).then(|| error(addr, want, got))
                });
                // Every other word the image holds was persisted by the run
                // or written by recovery; only one below the lowest
                // mismatch so far can change the verdict.
                for (&addr, &got) in &image {
                    if first.is_some_and(|e| e.addr < addr)
                        || written.addrs.binary_search(&addr).is_ok()
                    {
                        continue;
                    }
                    if let Some(want) = self.pool_value(addr).filter(|&want| want != got) {
                        first = Some(error(addr, want, got));
                    }
                }
                first
            }
        };
        match first {
            Some(e) => Err(e.into()),
            None => Ok(committed),
        }
    }

    /// Exhaustively checks every distinct crash image the run could leave
    /// behind. The NVM image only changes at persist events, so checking
    /// at each persist cycle (plus the instants just before the first and
    /// after the last) covers *every* possible crash instant. One
    /// [`ImageCursor`] walks the trace forward, so the sweep replays it
    /// once.
    ///
    /// # Errors
    ///
    /// The earliest violating `(cycle, error)` pair.
    pub fn check_all_images(&self, trace: &PersistTrace) -> Result<(), (u64, CheckFailure)> {
        let mut cursor = ImageCursor::new(trace, 64);
        for cycle in trace.persist_cycles() {
            let image = cursor.advance_to(cycle).clone();
            self.check_image(image).map_err(|e| (cycle, e))?;
        }
        Ok(())
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
            (a, 5, true), // init value persisted
            (slot + OFF_ADDR, a, false),
            (slot + OFF_ADDR + 8, 5, false),
            (slot + OFF_TXID, 1, false),
            (slot + OFF_TXID + 8, checksum(a, 5, 1), true), // entry persisted
            (a, 6, true),                                   // data persisted
            (layout.log_header, header_word(1), true),      // commit persisted
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
    fn check_all_images_reports_the_first_cycle_check_at_fails() {
        let (out, a) = simple_output();
        // Data persisted with no log entry, then re-persisted: every image
        // from the first data persist on is torn.
        let trace = synthetic_trace(&[(a, 5, true), (a, 6, true), (a, 7, true)]);
        // A CoW run whose root switch persisted before its shadow block:
        // a torn tree under the CoW protocol.
        let mut cow = crate::cow::CowTxWriter::new(Layout::standard(), ArchConfig::Unsafe, 8);
        cow.finish_init();
        cow.begin_tx();
        cow.write(0, 0, 42);
        cow.commit_tx();
        let cow_out = cow.finish();
        let Protocol::Cow(meta) = cow_out.protocol else {
            panic!("a CoW writer's output carries its pool metadata")
        };
        let root = cow_out.memory.read(meta.root_line);
        let cow_trace = synthetic_trace(&[
            (meta.root_twin, root, false),
            (meta.root_twin + 8, crate::cow::root_word(root, 1), true),
        ]);
        for (out, trace) in [(&out, &trace), (&cow_out, &cow_trace)] {
            let checker = CrashChecker::new(out);
            let first = trace
                .persist_cycles()
                .into_iter()
                .find_map(|c| checker.check_at(trace, c).err().map(|e| (c, e)))
                .expect("a torn image");
            assert_eq!(
                checker.check_all_images(trace),
                Err(first),
                "{:?}",
                out.protocol
            );
        }
        // A run every image of which recovers passes the sweep.
        let clean = synthetic_trace(&[(a, 5, true)]);
        assert_eq!(CrashChecker::new(&out).check_all_images(&clean), Ok(()));
    }

    /// A run with three preloaded words at `base`, `base + 8` and
    /// `base + 16`, one transaction writing only the middle one.
    fn three_word_output() -> (TxOutput, u64) {
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let base = tx.heap_alloc(24, 64);
        for i in 0..3 {
            tx.write_init(base + i * 8, 10 + i);
        }
        tx.finish_init();
        tx.begin_tx();
        tx.write(base + 8, 99);
        tx.commit_tx();
        (tx.finish(), base)
    }

    #[test]
    fn persisted_wrong_value_outside_the_write_sets_is_reported() {
        let (out, base) = three_word_output();
        // The run stores a wrong value to a preloaded word no transaction
        // writes, and persists it.
        let trace = synthetic_trace(&[(base + 16, 77, true)]);
        let err = CrashChecker::new(&out)
            .check_at(&trace, trace.horizon())
            .expect_err("a persisted wrong preloaded word must surface");
        let e = *err.inconsistency().expect("a consistency violation");
        assert_eq!((e.addr, e.expected, e.found), (base + 16, 12, 77));
        // Persisting its preloaded value again is fine.
        let trace = synthetic_trace(&[(base + 16, 12, true)]);
        assert_eq!(
            CrashChecker::new(&out).check_at(&trace, trace.horizon()),
            Ok(0)
        );
    }

    #[test]
    fn the_lowest_mismatching_address_is_reported() {
        let (out, base) = three_word_output();
        // Three mismatches: the write-set word (no log entry persisted)
        // and both preloaded neighbours outside the write set.
        let trace =
            synthetic_trace(&[(base, 1, false), (base + 8, 2, false), (base + 16, 3, true)]);
        let image = nvm_image_at(&trace, trace.horizon(), 64);
        assert_eq!(image.len(), 3);
        let want = ConsistencyError {
            addr: base,
            expected: 10,
            found: 1,
            committed_txid: 0,
        };
        assert_eq!(
            CrashChecker::new(&out).check_image(image.clone()),
            Err(CheckFailure::Inconsistent(want))
        );
        let mut two = image.clone();
        two.remove(&base);
        let err = CrashChecker::new(&out).check_image(two).unwrap_err();
        assert_eq!(err.inconsistency().map(|e| e.addr), Some(base + 8));
    }

    #[test]
    fn lowest_mismatch_does_not_depend_on_insertion_order() {
        // 64 preloaded words; one transaction writes word 5.
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let base = tx.heap_alloc(64 * 8, 64);
        for i in 0..64 {
            tx.write_init(base + i * 8, i);
        }
        tx.finish_init();
        tx.begin_tx();
        tx.write(base + 5 * 8, 99);
        tx.commit_tx();
        let out = tx.finish();
        // The damage: every word from word 3 on holds a wrong value. Word
        // 3 is outside the write set, so the scan over the image finds it.
        let words: Vec<(u64, u64)> = (3..64).map(|i| (base + i * 8, 1000 + i)).collect();
        let ascending: NvmImage = words.iter().copied().collect();
        let mut descending = NvmImage::with_capacity_and_hasher(1024, Default::default());
        descending.extend(words.iter().rev().copied());
        assert_eq!(ascending, descending);
        assert_ne!(
            ascending.keys().collect::<Vec<_>>(),
            descending.keys().collect::<Vec<_>>(),
            "the two images must iterate in different orders"
        );
        let want = ConsistencyError {
            addr: base + 3 * 8,
            expected: 3,
            found: 1003,
            committed_txid: 0,
        };
        let checker = CrashChecker::new(&out);
        for image in [ascending, descending] {
            assert_eq!(
                checker.check_image(image),
                Err(CheckFailure::Inconsistent(want))
            );
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
        assert_eq!(
            checker.check_image(untracked),
            Ok(1),
            "untracked corruption is tolerated"
        );
        // Corrupting the data word itself is detected.
        let mut flipped = image;
        *flipped.get_mut(&a).expect("the data word persisted") ^= 1;
        let err = checker
            .check_image(flipped)
            .expect_err("corrupted data word must surface");
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
        let trace = synthetic_trace(&[(a, 5, true), (layout.log_header, header_word(1) ^ 1, true)]);
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
        let mut torn = NvmImage::default();
        torn.insert(a, 6);
        assert!(checker.check_image(torn).is_err());
    }
}
