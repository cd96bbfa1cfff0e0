//! Copy-on-write (shadow paging) — the third failure-atomicity technique
//! §II-A lists alongside undo and redo logging.
//!
//! Persistent state lives in 64-byte *data blocks* reached through a
//! two-level table:
//!
//! ```text
//! root word ──► root block (16 pointers) ──► leaf tables (32 entries)
//!                                                  └──► data blocks
//! ```
//!
//! A transaction never modifies live blocks. The first write to a block
//! allocates a *shadow*, copies the block, and applies writes there;
//! commit persists the shadows, copies the touched leaf tables and the
//! root block (pointing at the shadows), persists those, and finally
//! performs the **atomic commit point**: a single 16-byte `STP` of
//! `(new root block, packed marker)` to the root line, persisted. A
//! crash observes either the old tree or the new tree, never a mixture
//! — *provided* the shadow persists are ordered before the root switch,
//! which is exactly the ordering undo logging needed per write and CoW
//! needs once per transaction.
//!
//! The marker word is *self-validating* ([`root_word`]): the
//! transaction id in the low 32 bits and a checksum over `(root ptr,
//! id)` in the high 32, so a torn or bit-flipped root line fails
//! validation instead of silently pointing recovery at garbage. A
//! *twin* root line ([`CowMeta::root_twin`], non-adjacent) receives the
//! same `STP` strictly *before* the primary each commit, so a torn
//! primary is exactly repairable from the twin — the same redundancy
//! scheme the undo/redo log header uses (see DESIGN.md "Recovery
//! triage").
//!
//! Reads pay the two-level indirection (CoW's classic read cost); commit
//! pays the table copies (why real systems use deep trees).

use crate::codegen::TxOutput;
use crate::layout::Layout;
use crate::lowering::Marker;
use crate::triage::Protocol;
use crate::writer::WriterCore;
use ede_isa::ArchConfig;
use std::collections::BTreeMap;

/// Pointers per root block.
const ROOT_FANOUT: u64 = 16;
/// Entries per leaf table.
const LEAF_FANOUT: u64 = 32;
/// Words per data block.
const BLOCK_WORDS: u64 = 8;

fn root_checksum(root: u64, txid: u64) -> u64 {
    // Salted differently from the undo-log entry checksum so a log word
    // copied over a root line can never validate by accident; folded so
    // every bit of the pointer influences the 32-bit checksum.
    let full = crate::log::checksum(root, 0x434F_5721, txid);
    (full ^ (full >> 32)) & 0xFFFF_FFFF
}

/// Packs a committed transaction id into the self-validating root-line
/// marker word: the id in the low 32 bits, a checksum of `(root ptr,
/// id)` in the high 32. Tearing between the `STP`'s halves — or any
/// media bit flip in either half — fails validation.
///
/// # Example
///
/// ```
/// use ede_nvm::cow::{decode_root, root_word};
///
/// assert_eq!(decode_root(0x500, root_word(0x500, 3)), Some(3));
/// assert_eq!(decode_root(0x500, 3), None);           // torn: raw id
/// assert_eq!(decode_root(0x540, root_word(0x500, 3)), None); // ptr torn
/// assert_eq!(decode_root(0x500, root_word(0x500, 3) ^ 1), None);
/// ```
///
/// # Panics
///
/// Panics if `txid` does not fit in 32 bits.
pub fn root_word(root: u64, txid: u64) -> u64 {
    assert!(
        txid <= u64::from(u32::MAX),
        "transaction ids fit in 32 bits"
    );
    (root_checksum(root, txid) << 32) | txid
}

/// Decodes a root-line `(root ptr, marker word)` pair: the committed
/// transaction id if the marker validates against the pointer, `None`
/// otherwise. See [`root_word`].
pub fn decode_root(root: u64, word: u64) -> Option<u64> {
    let lo = word & 0xFFFF_FFFF;
    if word >> 32 == root_checksum(root, lo) {
        Some(lo)
    } else {
        None
    }
}

/// Addressing metadata for a CoW pool (needed to resolve logical
/// addresses through a crash image).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CowMeta {
    /// Address of the root line: word 0 = root-block pointer, word 1 =
    /// the packed [`root_word`] marker (switched together by one `STP`).
    pub root_line: u64,
    /// The twin root line: same `(pointer, marker)` pair, written
    /// *before* the primary each commit so a torn primary is repairable
    /// from here. Non-adjacent to the primary (the initial tree sits
    /// between them).
    pub root_twin: u64,
    /// Number of logical slots (data blocks).
    pub slots: u64,
}

impl CowMeta {
    /// The physical word holding logical address `logical` (`slot * 64 +
    /// word * 8`) in the tree whose root block is `root`, reading the
    /// table pointers through `read`.
    pub fn physical(&self, root: u64, logical: u64, read: impl Fn(u64) -> u64) -> u64 {
        let (slot, word) = (logical / 64, (logical % 64) / 8);
        let leaf = read(root + (slot / LEAF_FANOUT) * 8);
        let block = read(leaf + (slot % LEAF_FANOUT) * 8);
        block + word * 8
    }
}

/// Copy-on-write transaction writer; same lifecycle as
/// [`TxWriter`](crate::TxWriter).
///
/// Logical addresses in the produced [`TxRecord`](crate::TxRecord)s are
/// `slot * 64 + word * 8` in a virtual space. The output carries
/// [`Protocol::Cow`] with the pool's [`CowMeta`], so
/// [`CrashChecker::new`](crate::CrashChecker::new) reads them through
/// the recovered root.
#[derive(Debug)]
pub struct CowTxWriter {
    core: WriterCore,
    meta: CowMeta,
    /// Logical slot → shadow block address, this transaction. Ordered,
    /// so commit persists the shadows in slot order and the emitted
    /// program does not depend on the process's hash seed.
    shadows: BTreeMap<u64, u64>,
    /// Leaf index → shadow leaf-table address, this transaction.
    leaf_shadows: BTreeMap<u64, u64>,
}

impl CowTxWriter {
    /// Creates a pool with `slots` logical 64-byte blocks, all zeroed,
    /// with the initial tree preloaded (no instructions).
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds the two-level tree's reach (512).
    pub fn new(layout: Layout, arch: ArchConfig, slots: u64) -> CowTxWriter {
        assert!(
            slots <= ROOT_FANOUT * LEAF_FANOUT,
            "two-level tree reaches at most {} slots",
            ROOT_FANOUT * LEAF_FANOUT
        );
        let mut core = WriterCore::new(layout, arch);
        let root_line = core.heap_alloc(64, 64);
        let root_block = core.heap_alloc(ROOT_FANOUT * 8, 64);
        let n_leaves = slots.div_ceil(LEAF_FANOUT);
        for l in 0..n_leaves {
            let leaf = core.heap_alloc(LEAF_FANOUT * 8, 64);
            core.write_init(root_block + l * 8, leaf);
            let in_leaf = (slots - l * LEAF_FANOUT).min(LEAF_FANOUT);
            for e in 0..in_leaf {
                let block = core.heap_alloc(BLOCK_WORDS * 8, 64);
                core.write_init(leaf + e * 8, block);
                // Data blocks start zeroed: nothing to write.
            }
        }
        // The twin root line is allocated *after* the initial tree so
        // the primary and twin are never in the same media sector.
        let root_twin = core.heap_alloc(64, 64);
        for line in [root_line, root_twin] {
            core.write_init(line, root_block);
            // txid 0, packed: nonzero on media, so a zero-wipe of the
            // root line is distinguishable from fresh state.
            core.write_init(line + 8, root_word(root_block, 0));
        }

        CowTxWriter {
            core,
            meta: CowMeta {
                root_line,
                root_twin,
                slots,
            },
            shadows: BTreeMap::new(),
            leaf_shadows: BTreeMap::new(),
        }
    }

    /// Opens the measured phase (the preloaded tree needs no
    /// instructions).
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
        self.shadows.clear();
        self.leaf_shadows.clear();
    }

    /// The current *physical* block of a logical slot (shadow if this
    /// transaction already copied it).
    fn block_of(&mut self, slot: u64) -> u64 {
        if let Some(&s) = self.shadows.get(&slot) {
            return s;
        }
        // Walk root → leaf → block, emitting the indirection loads.
        let c = &mut self.core;
        let root_block = c.mem.read(self.meta.root_line);
        let leaf_ptr_addr = root_block + (slot / LEAF_FANOUT) * 8;
        let leaf = c.mem.read(leaf_ptr_addr);
        let entry_addr = leaf + (slot % LEAF_FANOUT) * 8;
        let block = c.mem.read(entry_addr);
        c.emit.load(self.meta.root_line, root_block);
        c.emit.load(leaf_ptr_addr, leaf);
        c.emit.load(entry_addr, block);
        block
    }

    /// Transactional read of `word` (0..8) in logical `slot`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range slot/word.
    pub fn read(&mut self, slot: u64, word: u64) -> u64 {
        assert!(slot < self.meta.slots && word < BLOCK_WORDS);
        let addr = self.block_of(slot) + word * 8;
        let v = self.core.mem.read(addr);
        self.core.emit.load(addr, v);
        v
    }

    /// Transactional write: copy-on-first-write, then update the shadow.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction or on out-of-range slot/word.
    pub fn write(&mut self, slot: u64, word: u64, value: u64) {
        assert!(slot < self.meta.slots && word < BLOCK_WORDS);
        let logical = slot * 64 + word * 8;
        // Resolves to the shadow when one exists, so the same read
        // covers both cases.
        let old_block = self.block_of(slot);
        let c = &mut self.core;
        let old_logical_value = c.mem.read(old_block + word * 8);
        let block = if let Some(&s) = self.shadows.get(&slot) {
            s
        } else {
            // Copy the block to a fresh shadow.
            let shadow = c.heap_alloc(BLOCK_WORDS * 8, 64);
            let sbase = c.emit.lea(shadow);
            for w in 0..BLOCK_WORDS {
                let v = c.mem.read(old_block + w * 8);
                c.emit.load(old_block + w * 8, v);
                c.emit.store_to(sbase, shadow + w * 8, v);
                c.mem.write(shadow + w * 8, v);
            }
            c.emit.release(sbase);
            self.shadows.insert(slot, shadow);
            shadow
        };
        let addr = block + word * 8;
        c.emit.store(addr, value);
        c.mem.write(addr, value);
        c.record(logical, old_logical_value, value);
    }

    /// Commits: persist shadows → copy + persist touched tables →
    /// boundary → atomic root switch, made durable. The switch writes the
    /// packed `(new root, [`root_word`])` pair twice — twin line first,
    /// persisted, then the primary — so a tear in either single `STP`
    /// leaves a validating copy behind.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_tx(&mut self) {
        let txid = self.core.end_tx();
        if self.shadows.is_empty() {
            return;
        }
        // 1. Persist every shadow block.
        for &block in self.shadows.values() {
            persist_lines(&mut self.core, block, BLOCK_WORDS * 8);
        }

        // 2. Copy touched leaf tables, pointing at the shadows.
        let c = &mut self.core;
        let old_root = c.mem.read(self.meta.root_line);
        let mut touched_leaves: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for (&slot, &block) in &self.shadows {
            touched_leaves
                .entry(slot / LEAF_FANOUT)
                .or_default()
                .push((slot % LEAF_FANOUT, block));
        }
        for (leaf_idx, updates) in &touched_leaves {
            let old_leaf = c.mem.read(old_root + leaf_idx * 8);
            c.emit.load(old_root + leaf_idx * 8, old_leaf);
            let new_leaf = c.heap_alloc(LEAF_FANOUT * 8, 64);
            let base = c.emit.lea(new_leaf);
            for e in 0..LEAF_FANOUT {
                let v = c.mem.read(old_leaf + e * 8);
                c.emit.load(old_leaf + e * 8, v);
                c.emit.store_to(base, new_leaf + e * 8, v);
                c.mem.write(new_leaf + e * 8, v);
            }
            for &(entry, block) in updates {
                c.emit.store_to(base, new_leaf + entry * 8, block);
                c.mem.write(new_leaf + entry * 8, block);
            }
            c.emit.release(base);
            persist_lines(c, new_leaf, LEAF_FANOUT * 8);
            self.leaf_shadows.insert(*leaf_idx, new_leaf);
        }

        // 3. Copy the root block.
        let new_root = c.heap_alloc(ROOT_FANOUT * 8, 64);
        let base = c.emit.lea(new_root);
        for l in 0..ROOT_FANOUT {
            let v = c.mem.read(old_root + l * 8);
            c.emit.load(old_root + l * 8, v);
            let v = self.leaf_shadows.get(&l).copied().unwrap_or(v);
            c.emit.store_to(base, new_root + l * 8, v);
            c.mem.write(new_root + l * 8, v);
        }
        c.emit.release(base);
        persist_lines(c, new_root, ROOT_FANOUT * 8);

        // 4. Everything persisted before the switch.
        c.emit.boundary();

        // 5. The atomic commit point: root pointer + packed marker in
        // one STP — twin line first, ordered before the primary, so the
        // twin is always at least as new as the primary.
        let marker = root_word(new_root, txid);
        let (twin, primary) = (self.meta.root_twin, self.meta.root_line);
        let pair = Marker::Pair([new_root, marker]);
        let key = c.emit.marker_pair(twin, primary, pair);
        c.emit.durable(key);
        for line in [twin, primary] {
            c.mem.write(line, new_root);
            c.mem.write(line + 8, marker);
        }
    }

    /// Ends code generation.
    ///
    /// # Panics
    ///
    /// Panics with an open transaction.
    pub fn finish(self) -> TxOutput {
        self.core.finish(None, Protocol::Cow(self.meta))
    }
}

/// Persists `len` bytes starting at 64-byte-aligned `base`, one
/// writeback per line; under EDE each produces a key the commit
/// boundary covers.
fn persist_lines(core: &mut WriterCore, base: u64, len: u64) {
    for line in (base & !63..base + len).step_by(64) {
        let b = core.emit.lea(line);
        core.emit.persist(b, line);
        core.emit.release(b);
    }
}

/// Generates the `update` kernel over CoW (for the protocol comparison).
pub fn cow_update_kernel(
    arch: ArchConfig,
    ops: usize,
    ops_per_tx: usize,
    slots: u64,
    seed: u64,
) -> TxOutput {
    use ede_util::rng::SmallRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tx = CowTxWriter::new(Layout::standard(), arch, slots);
    tx.finish_init();
    let mut in_tx = 0;
    for _ in 0..ops {
        if in_tx == 0 {
            tx.begin_tx();
        }
        let slot = rng.gen_range(0..slots);
        let word = rng.gen_range(0..BLOCK_WORDS);
        let v: u64 = rng.gen();
        tx.write(slot, word, v);
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
    use crate::recovery::NvmImage;
    use crate::triage::{recover, Protocol, RecoveryOutcome};
    use crate::CrashChecker;
    use ede_mem::PersistTrace;

    /// The pool metadata a CoW writer's output carries.
    fn meta_of(out: &TxOutput) -> CowMeta {
        match out.protocol {
            Protocol::Cow(meta) => meta,
            p => panic!("a CoW writer's output carries {p:?}"),
        }
    }

    /// One transaction writing `value` to word 0 of slot 0 in an 8-slot
    /// pool.
    fn one_write(arch: ArchConfig, value: u64) -> TxOutput {
        let mut tx = CowTxWriter::new(Layout::standard(), arch, 8);
        tx.finish_init();
        tx.begin_tx();
        tx.write(0, 0, value);
        tx.commit_tx();
        tx.finish()
    }

    #[test]
    fn reads_see_writes_within_tx() {
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Baseline, 64);
        tx.finish_init();
        tx.begin_tx();
        assert_eq!(tx.read(3, 1), 0);
        tx.write(3, 1, 99);
        assert_eq!(tx.read(3, 1), 99, "shadow visible inside the tx");
        tx.commit_tx();
        let out = tx.finish();
        let meta = meta_of(&out);
        // Resolve through the committed tree.
        let root = out.memory.read(meta.root_line);
        let leaf = out.memory.read(root);
        let block = out.memory.read(leaf + 3 * 8);
        assert_eq!(out.memory.read(block + 8), 99);
        assert_eq!(out.memory.read(meta.root_line + 8), root_word(root, 1));
        // The twin line carries the identical pair.
        assert_eq!(out.memory.read(meta.root_twin), root);
        assert_eq!(out.memory.read(meta.root_twin + 8), root_word(root, 1));
    }

    #[test]
    fn old_blocks_untouched_by_writes() {
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Baseline, 8);
        tx.finish_init();
        // Find the original physical block for slot 0.
        let root = tx.core.mem.read(tx.meta.root_line);
        let leaf = tx.core.mem.read(root);
        let old_block = tx.core.mem.read(leaf);
        tx.begin_tx();
        tx.write(0, 0, 7);
        tx.commit_tx();
        let out = tx.finish();
        assert_eq!(out.memory.read(old_block), 0, "live block never modified");
    }

    #[test]
    fn commit_emits_single_atomic_switch() {
        let out = one_write(ArchConfig::Baseline, 7);
        let root_line = meta_of(&out).root_line;
        let stps_to_root = out
            .program
            .iter()
            .filter(|(_, i)| matches!(i.op, ede_isa::Op::Stp { addr, .. } if addr == root_line))
            .count();
        assert_eq!(stps_to_root, 1);
    }

    #[test]
    fn checker_passes_fully_persisted_image() {
        let out = cow_update_kernel(ArchConfig::Baseline, 30, 10, 32, 11);
        let checker = CrashChecker::new(&out);
        // Synthesize an in-order, everything-persisted trace.
        use ede_mem::trace::{PersistEvent, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (a, v) in out.memory.iter() {
            trace.record_store(StoreEvent {
                cycle,
                addr: a,
                width: 8,
                value: [v, 0],
            });
            cycle += 1;
        }
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(a, _)| a & !63).collect();
        for line in lines {
            trace.record_persist(PersistEvent { cycle, line });
            cycle += 1;
        }
        let committed = checker
            .check_at(&trace, cycle)
            .unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(committed, out.records.len() as u64);
    }

    #[test]
    fn checker_detects_root_switch_before_shadows() {
        // Adversarial image: root switched but shadow blocks never
        // persisted — the violation CoW ordering must prevent.
        let out = one_write(ArchConfig::Unsafe, 42);
        let (meta, checker) = (meta_of(&out), CrashChecker::new(&out));
        use ede_mem::trace::{PersistEvent, StoreEvent};
        let mut trace = PersistTrace::default();
        // Only the root line's stores persist (a validating pair — the
        // torn *tree*, not a torn root, is what must be caught).
        let new_root = out.memory.read(meta.root_line);
        trace.record_store(StoreEvent {
            cycle: 1,
            addr: meta.root_line,
            width: 16,
            value: [new_root, root_word(new_root, 1)],
        });
        trace.record_persist(PersistEvent {
            cycle: 2,
            line: meta.root_line,
        });
        let err = checker
            .check_at(&trace, 2)
            .expect_err("torn tree must be detected");
        let v = err.inconsistency().expect("a consistency violation");
        assert_eq!((v.addr, v.expected, v.committed_txid), (0, 42, 1));
    }

    #[test]
    fn fence_counts_per_protocol() {
        // CoW baseline: three DSB clusters per commit (pre-switch, twin
        // marker, primary marker), none per write.
        let out = cow_update_kernel(ArchConfig::Baseline, 30, 10, 32, 11);
        let dsb = out
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::FenceFull)
            .count();
        assert_eq!(dsb, 3 * 3, "three fences per transaction");
        let ede = cow_update_kernel(ArchConfig::WriteBuffer, 30, 10, 32, 11);
        let dsb_ede = ede
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::FenceFull)
            .count();
        assert_eq!(dsb_ede, 0);
    }

    #[test]
    fn twin_root_is_written_before_primary() {
        for arch in ArchConfig::ALL {
            let out = one_write(arch, 7);
            let meta = meta_of(&out);
            crate::lowering::assert_twin_ordered_before_primary(
                &out.program,
                arch,
                meta.root_twin,
                meta.root_line,
            );
        }
    }

    #[test]
    fn root_word_round_trips_and_rejects_tears() {
        assert_eq!(decode_root(0x9000, root_word(0x9000, 7)), Some(7));
        assert_eq!(decode_root(0x9000, 7), None, "raw id half");
        assert_eq!(decode_root(0x9040, root_word(0x9000, 7)), None, "torn ptr");
        assert_eq!(decode_root(0, 0), None, "zero-wiped line never validates");
    }

    #[test]
    fn root_resolution_heals_torn_primary_from_twin() {
        let meta = CowMeta {
            root_line: 0x1_0000_0000,
            root_twin: 0x1_0000_1000,
            slots: 8,
        };
        let layout = Layout::standard();
        let resolve = |primary: (u64, u64), twin: (u64, u64)| {
            let mut image = NvmImage::default();
            for (line, (ptr, marker)) in [(meta.root_line, primary), (meta.root_twin, twin)] {
                image.insert(line, ptr);
                image.insert(line + 8, marker);
            }
            let r = recover(&mut image, &layout, Protocol::Cow(meta));
            (r.outcome, image[&meta.root_line], r.committed)
        };
        let (old, new) = (0x9000u64, 0x9400u64);
        let twin = (new, root_word(new, 4));
        // Primary tore mid-STP: new pointer, stale marker half.
        let (outcome, root, txid) = resolve((new, root_word(old, 3)), twin);
        assert_eq!((root, txid), (new, 4));
        assert_eq!(outcome, RecoveryOutcome::RepairedTorn { entries: 1 });
        // Primary not yet switched: twin (persisted first) is newer.
        assert_eq!(
            resolve((old, root_word(old, 3)), twin),
            (RecoveryOutcome::Clean, new, 4)
        );
        // No validating marker on either line: no root to resolve.
        let (outcome, root, _) = resolve((old, 0), (0, 0));
        assert!(matches!(outcome, RecoveryOutcome::Unrecoverable { .. }));
        assert_eq!(root, old, "an unrecoverable image is left untouched");
    }

    #[test]
    fn checker_heals_torn_primary_root_from_twin() {
        let out = one_write(ArchConfig::Baseline, 42);
        let (meta, checker) = (meta_of(&out), CrashChecker::new(&out));
        use ede_mem::trace::{PersistEvent, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (a, v) in out.memory.iter() {
            trace.record_store(StoreEvent {
                cycle,
                addr: a,
                width: 8,
                value: [v, 0],
            });
            cycle += 1;
        }
        // Tear the primary marker: its checksum half never landed.
        let new_root = out.memory.read(meta.root_line);
        trace.record_store(StoreEvent {
            cycle,
            addr: meta.root_line,
            width: 16,
            value: [new_root, 1],
        });
        cycle += 1;
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(a, _)| a & !63).collect();
        for line in lines {
            trace.record_persist(PersistEvent { cycle, line });
            cycle += 1;
        }
        let committed = checker
            .check_at(&trace, cycle)
            .unwrap_or_else(|v| panic!("twin must heal the torn primary: {v}"));
        assert_eq!(committed, 1);
    }

    #[test]
    fn deterministic() {
        // Large enough that several shadows commit per transaction, so a
        // hash-ordered shadow set would reorder the persists between runs.
        let a = cow_update_kernel(ArchConfig::Baseline, 200, 10, 512, 7);
        let b = cow_update_kernel(ArchConfig::Baseline, 200, 10, 512, 7);
        assert_eq!(a.program, b.program);
        assert_eq!(a.records, b.records);
    }
}
