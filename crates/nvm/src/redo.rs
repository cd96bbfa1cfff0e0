//! Redo logging — the other classic failure-atomicity protocol (§II-A
//! lists undo logging, redo logging and copy-on-write as the standard
//! framework techniques).
//!
//! Where undo logging persists the *old* value before every in-place
//! update (one ordering point per write — the pattern EDE accelerates),
//! redo logging appends *new* values to the log and defers all in-place
//! updates to commit:
//!
//! 1. per write: append `{addr, new, txid, checksum}` to the redo log and
//!    persist the entry — **no ordering against other writes**;
//! 2. commit: ensure all entries persisted, persist the *committed*
//!    marker (the transaction is now durable), then apply the writes in
//!    place, persist them, and persist the *applied* marker (which frees
//!    the log slots for reuse);
//! 3. recovery: transactions with `applied < txid ≤ committed` are
//!    replayed from the log (their in-place state may be anything);
//!    entries with `txid > committed` are ignored (their in-place data
//!    was never touched).
//!
//! Reads inside a transaction consult the write set first (redo's classic
//! read-indirection cost, modeled as extra bookkeeping work).
//!
//! The protocol needs ordering only at commit, so the baseline pays two
//! fence clusters per *transaction* instead of one per *write* — the
//! `protocols` bin compares undo, redo and CoW to show how much of EDE's
//! advantage redo logging erodes, and what EDE still buys it.

use crate::codegen::TxOutput;
use crate::layout::Layout;
use crate::log::header_word;
use crate::triage::Protocol;
use crate::writer::WriterCore;
use ede_isa::{ArchConfig, VAddr};
use std::collections::HashMap;

/// Word offset of the *applied* transaction id in the log header line
/// (the committed id lives at offset 0, as in the undo layout). Both
/// markers are self-validating [`header_word`]s stored on the primary
/// and twin header lines; recovery resolves each through
/// [`resolve_marker`](crate::log::resolve_marker).
pub const OFF_APPLIED: u64 = 8;

/// Redo-logging counterpart of [`TxWriter`](crate::TxWriter): the same
/// lifecycle, lowering per architecture configuration, producing the same
/// [`TxOutput`] (so the crash checker and the simulator run unchanged —
/// the output carries [`Protocol::Redo`], which
/// [`CrashChecker::new`](crate::CrashChecker::new) recovers with).
#[derive(Debug)]
pub struct RedoTxWriter {
    core: WriterCore,
    write_set: HashMap<VAddr, u64>,
    write_order: Vec<VAddr>,
}

impl RedoTxWriter {
    /// A writer over a fresh machine, its log superblock formatted as
    /// [`TxWriter::new`](crate::TxWriter::new) formats it.
    pub fn new(layout: Layout, arch: ArchConfig) -> RedoTxWriter {
        RedoTxWriter {
            core: WriterCore::with_log(layout, arch),
            write_set: HashMap::new(),
            write_order: Vec::new(),
        }
    }

    /// Allocates persistent heap space.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted.
    pub fn heap_alloc(&mut self, size: u64, align: u64) -> VAddr {
        self.core.heap_alloc(size, align)
    }

    /// Preloads initial pool contents (no instructions).
    ///
    /// # Panics
    ///
    /// Panics after `finish_init`.
    pub fn write_init(&mut self, addr: VAddr, value: u64) {
        self.core.write_init(addr, value);
    }

    /// Opens the measured phase.
    pub fn finish_init(&mut self) {
        self.core.finish_init();
    }

    /// Opens a failure-atomic region.
    ///
    /// # Panics
    ///
    /// Panics if one is already open.
    pub fn begin_tx(&mut self) {
        self.core.begin_tx();
        self.write_set.clear();
        self.write_order.clear();
    }

    /// A transactional read: consults the write set first (redo's read
    /// indirection), then memory.
    pub fn read(&mut self, addr: VAddr) -> u64 {
        // Write-set lookup cost (hash + compare).
        self.core.emit.compute_chain(2);
        let value = self.current(addr);
        self.core.emit.load(addr, value);
        value
    }

    /// The transaction's view of `addr`: its pending write, else memory.
    fn current(&self, addr: VAddr) -> u64 {
        self.write_set
            .get(&addr)
            .copied()
            .unwrap_or_else(|| self.core.mem.read(addr))
    }

    /// A transactional write: appends a redo entry and persists it — no
    /// ordering against anything else until commit.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or once the transaction has
    /// written more times than the layout has log slots (every write
    /// takes a slot, repeated addresses included).
    pub fn write(&mut self, addr: VAddr, new: u64) {
        let old = self.current(addr);
        if self.write_set.insert(addr, new).is_none() {
            self.write_order.push(addr);
        }
        self.core.record(addr, old, new);
        // Append and persist the entry; under EDE the writeback produces
        // a key so commit's boundary covers it. No ordering in any
        // configuration!
        let (slot, base) = self.core.append_log_entry(addr, new);
        self.core.emit.persist(base, slot);
        self.core.emit.release(base);
    }

    /// Commits: entries → *committed* marker → in-place apply →
    /// *applied* marker, with a boundary before and after each marker.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_tx(&mut self) {
        let txid = self.core.end_tx();
        let marker = header_word(txid);

        // Boundary 1: all entries persisted before the committed marker.
        self.core.emit.boundary();
        self.core.log_marker(0, marker);
        // Boundary 2: marker persisted before the in-place writes may
        // persist (otherwise a crash could leave applied data with no
        // replayable log and no marker — torn for *older* values).
        self.core.emit.boundary();

        // Apply the write set in place and persist it.
        for addr in std::mem::take(&mut self.write_order) {
            let new = self.write_set[&addr];
            let c = &mut self.core;
            let base = c.emit.lea(addr);
            c.emit.store_to(base, addr, new);
            c.emit.persist(base, addr);
            c.emit.release(base);
            c.mem.write(addr, new);
        }
        // Boundary 3: applied marker only after all in-place persists.
        self.core.emit.boundary();
        self.core.log_marker(OFF_APPLIED, marker);
        self.core.emit.boundary();

        // Truncate: slots reusable once applied.
        self.core.truncate_log();
        self.write_set.clear();
    }

    /// Ends code generation.
    ///
    /// # Panics
    ///
    /// Panics with an open transaction.
    pub fn finish(self) -> TxOutput {
        self.core.finish(None, Protocol::Redo)
    }
}

/// Generates the `update` kernel over redo logging (for the undo-vs-redo
/// ablation).
pub fn redo_update_kernel(
    arch: ArchConfig,
    ops: usize,
    ops_per_tx: usize,
    elems: u64,
    seed: u64,
) -> TxOutput {
    use ede_util::rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tx = RedoTxWriter::new(Layout::standard(), arch);
    let base = tx.heap_alloc(elems * 8, 64);
    for i in 0..elems {
        tx.write_init(base + i * 8, i);
    }
    tx.finish_init();
    let mut in_tx = 0;
    for _ in 0..ops {
        if in_tx == 0 {
            tx.begin_tx();
        }
        let idx = rng.gen_range(0..elems);
        let v: u64 = rng.gen();
        tx.write(base + idx * 8, v);
        in_tx += 1;
        if in_tx == ops_per_tx {
            tx.commit_tx();
            in_tx = 0;
        }
    }
    if in_tx > 0 {
        tx.commit_tx();
    }
    tx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{checksum, MAGIC, OFF_ADDR, OFF_MAGIC, OFF_TXID};
    use crate::recovery::NvmImage;
    use crate::triage::{recover, Protocol, RecoveryOutcome};
    use ede_isa::{InstKind, Program};

    /// A formatted pool: the superblock magic on both header lines.
    fn formatted(layout: &Layout) -> NvmImage {
        [layout.log_header, layout.log_header_twin]
            .into_iter()
            .map(|line| (line + OFF_MAGIC, MAGIC))
            .collect()
    }

    fn one_tx(arch: ArchConfig) -> TxOutput {
        let mut tx = RedoTxWriter::new(Layout::standard(), arch);
        let a = tx.heap_alloc(16, 8);
        tx.write_init(a, 1);
        tx.write_init(a + 8, 2);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 10);
        tx.write(a + 8, 20);
        tx.commit_tx();
        tx.finish()
    }

    fn count(p: &Program, k: InstKind) -> usize {
        p.iter().filter(|(_, i)| i.kind() == k).count()
    }

    #[test]
    fn baseline_fences_per_transaction_not_per_write() {
        let p = one_tx(ArchConfig::Baseline).program;
        // Four boundaries per commit plus one twin-before-primary fence
        // inside each of the two marker pairs — none per write.
        assert_eq!(count(&p, InstKind::FenceFull), 6);
    }

    #[test]
    fn undo_needs_more_fences_than_redo() {
        let redo = one_tx(ArchConfig::Baseline).program;
        let mut undo = crate::TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let a = undo.heap_alloc(16, 8);
        undo.write_init(a, 1);
        undo.write_init(a + 8, 2);
        undo.finish_init();
        undo.begin_tx();
        undo.write(a, 10);
        undo.write(a + 8, 20);
        undo.commit_tx();
        let undo = undo.finish().program;
        assert!(
            count(&undo, InstKind::FenceFull) > count(&redo, InstKind::FenceFull) - 2,
            "undo fences scale with writes"
        );
    }

    #[test]
    fn reads_see_the_write_set() {
        let mut tx = RedoTxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 5);
        tx.finish_init();
        tx.begin_tx();
        assert_eq!(tx.read(a), 5);
        tx.write(a, 9);
        assert_eq!(tx.read(a), 9, "read indirection through the write set");
        tx.commit_tx();
        let out = tx.finish();
        assert_eq!(out.memory.read(a), 9);
    }

    #[test]
    fn recovery_replays_committed_unapplied() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let a = layout.heap_base;
        for line in [layout.log_header, layout.log_header_twin] {
            image.insert(line, header_word(2)); // committed: 2
            image.insert(line + OFF_APPLIED, header_word(1)); // applied: 1
        }
        // Tx 2's entry (new value 77); in-place still old.
        let slot = layout.slot_addr(0);
        image.insert(slot + OFF_ADDR, a);
        image.insert(slot + OFF_ADDR + 8, 77);
        image.insert(slot + OFF_TXID, 2);
        image.insert(slot + OFF_TXID + 8, checksum(a, 77, 2));
        image.insert(a, 5);
        let r = recover(&mut image, &layout, Protocol::Redo);
        assert_eq!(r.committed, 2);
        assert_eq!(r.outcome, RecoveryOutcome::RolledBack { entries: 1 });
        assert_eq!(image[&a], 77);
    }

    #[test]
    fn recovery_ignores_uncommitted_entries() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let a = layout.heap_base;
        // No committed marker; an entry from tx 1 persisted.
        let slot = layout.slot_addr(0);
        image.insert(slot + OFF_ADDR, a);
        image.insert(slot + OFF_ADDR + 8, 77);
        image.insert(slot + OFF_TXID, 1);
        image.insert(slot + OFF_TXID + 8, checksum(a, 77, 1));
        let r = recover(&mut image, &layout, Protocol::Redo);
        assert_eq!(r.outcome, RecoveryOutcome::Clean);
        assert!(!image.contains_key(&a), "in-place data untouched");
    }

    #[test]
    fn torn_committed_marker_is_healed_from_the_twin() {
        // The primary committed marker tore, the twin survived: the
        // committed-but-unapplied transaction must still be replayed.
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let a = layout.heap_base;
        image.insert(layout.log_header, header_word(2) ^ (1 << 50));
        image.insert(layout.log_header_twin, header_word(2));
        let slot = layout.slot_addr(0);
        image.insert(slot + OFF_ADDR, a);
        image.insert(slot + OFF_ADDR + 8, 77);
        image.insert(slot + OFF_TXID, 2);
        image.insert(slot + OFF_TXID + 8, checksum(a, 77, 2));
        image.insert(a, 5);
        let r = recover(&mut image, &layout, Protocol::Redo);
        assert_eq!(r.committed, 2);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 1 });
        assert_eq!(image[&a], 77);
    }

    #[test]
    fn writer_markers_decode_on_both_lines() {
        let out = one_tx(ArchConfig::Baseline);
        let l = &out.layout;
        for line in [l.log_header, l.log_header_twin] {
            assert_eq!(crate::log::decode_header(out.memory.read(line)), 1);
            assert_eq!(
                crate::log::decode_header(out.memory.read(line + OFF_APPLIED)),
                1
            );
            assert_eq!(out.memory.read(line + OFF_MAGIC), MAGIC);
        }
    }

    #[test]
    fn records_match_undo_semantics() {
        let out = one_tx(ArchConfig::WriteBuffer);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].writes.len(), 2);
        assert_eq!(out.records[0].writes[0].2, 10);
    }

    #[test]
    fn ede_config_has_no_fences() {
        let p = one_tx(ArchConfig::WriteBuffer).program;
        assert_eq!(count(&p, InstKind::FenceFull), 0);
        assert!(count(&p, InstKind::EdeControl) >= 4);
    }

    #[test]
    fn both_marker_pairs_order_the_twin_before_the_primary() {
        for arch in ArchConfig::ALL {
            let out = one_tx(arch);
            let l = &out.layout;
            for off in [0, OFF_APPLIED] {
                crate::lowering::assert_twin_ordered_before_primary(
                    &out.program,
                    arch,
                    l.log_header_twin + off,
                    l.log_header + off,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "transaction 2 needs more than the 16 log slots")]
    fn log_overflow_within_one_transaction_panics() {
        let layout = Layout {
            log_slots: 16,
            ..Layout::standard()
        };
        let mut tx = RedoTxWriter::new(layout, ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.finish_init();
        // Every redo write takes a slot, even to an address already in
        // the write set: transaction 1's sixteen writes fill the log,
        // transaction 2's seventeenth overflows it.
        for writes in [16, 17] {
            tx.begin_tx();
            for v in 0..writes {
                tx.write(a, v);
            }
            tx.commit_tx();
        }
    }

    #[test]
    fn kernel_generator_is_deterministic() {
        let a = redo_update_kernel(ArchConfig::Baseline, 20, 10, 64, 7);
        let b = redo_update_kernel(ArchConfig::Baseline, 20, 10, 64, 7);
        assert_eq!(a.program.len(), b.program.len());
        assert_eq!(a.records, b.records);
    }
}
