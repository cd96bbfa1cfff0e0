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

use crate::codegen::{TxOutput, TxRecord};
use crate::heap::BumpHeap;
use crate::layout::Layout;
use crate::memory::SimMemory;
use crate::recovery::NvmImage;
use ede_isa::{ArchConfig, Edk, EdkPair, TraceBuilder};
use ede_mem::trace::nvm_image_at;
use ede_mem::PersistTrace;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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
    assert!(txid <= u64::from(u32::MAX), "transaction ids fit in 32 bits");
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

/// Resolves `(root ptr, committed txid)` from the primary and twin root
/// lines, each read as a `(root ptr, marker word)` pair. The validating
/// copy with the newest transaction id wins; because commit persists
/// the twin strictly before the primary, a torn primary is healed to
/// *exactly* the committed state from the twin. If neither copy
/// validates the raw primary pointer is returned with "nothing
/// committed" (legacy images carry no marker and no twin).
pub fn resolve_root(primary: (u64, u64), twin: (u64, u64)) -> (u64, u64) {
    match (decode_root(primary.0, primary.1), decode_root(twin.0, twin.1)) {
        (Some(a), Some(b)) if b > a => (twin.0, b),
        (Some(a), _) => (primary.0, a),
        (None, Some(b)) => (twin.0, b),
        (None, None) => (primary.0, 0),
    }
}

/// Addressing metadata for a CoW pool (needed to resolve logical
/// addresses through a crash image).
#[derive(Clone, Copy, Debug)]
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

/// Copy-on-write transaction writer; same lifecycle as
/// [`TxWriter`](crate::TxWriter).
///
/// Logical addresses in the produced [`TxRecord`]s are
/// `slot * 64 + word * 8` in a virtual space; use [`CowChecker`] (not the
/// undo/redo checker) to verify crash images.
#[derive(Debug)]
pub struct CowTxWriter {
    layout: Layout,
    arch: ArchConfig,
    mem: SimMemory,
    builder: TraceBuilder,
    heap: BumpHeap,
    meta: CowMeta,
    txid: Option<u64>,
    next_txid: u64,
    /// Logical slot → shadow block address, this transaction.
    shadows: HashMap<u64, u64>,
    /// Leaf index → shadow leaf-table address, this transaction.
    leaf_shadows: BTreeMap<u64, u64>,
    key_rotor: u8,
    records: Vec<TxRecord>,
    init_writes: Vec<(u64, u64)>,
    init_finished: bool,
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
        let mut heap = BumpHeap::new(layout.heap_base, 1 << 30);
        let mut mem = SimMemory::new();
        let mut init_writes = Vec::new();
        let preload = |mem: &mut SimMemory, init: &mut Vec<(u64, u64)>, a: u64, v: u64| {
            mem.write(a, v);
            init.push((a, v));
        };

        let root_line = heap.alloc(64, 64).expect("heap");
        let root_block = heap.alloc(ROOT_FANOUT * 8, 64).expect("heap");
        let n_leaves = slots.div_ceil(LEAF_FANOUT);
        for l in 0..n_leaves {
            let leaf = heap.alloc(LEAF_FANOUT * 8, 64).expect("heap");
            preload(&mut mem, &mut init_writes, root_block + l * 8, leaf);
            let in_leaf = (slots - l * LEAF_FANOUT).min(LEAF_FANOUT);
            for e in 0..in_leaf {
                let block = heap.alloc(BLOCK_WORDS * 8, 64).expect("heap");
                preload(&mut mem, &mut init_writes, leaf + e * 8, block);
                // Data blocks start zeroed: nothing to write.
            }
        }
        // The twin root line is allocated *after* the initial tree so
        // the primary and twin are never in the same media sector.
        let root_twin = heap.alloc(64, 64).expect("heap");
        for line in [root_line, root_twin] {
            preload(&mut mem, &mut init_writes, line, root_block);
            // txid 0, packed: nonzero on media, so a zero-wipe of the
            // root line is distinguishable from fresh state.
            preload(&mut mem, &mut init_writes, line + 8, root_word(root_block, 0));
        }

        CowTxWriter {
            layout,
            arch,
            mem,
            builder: TraceBuilder::new(),
            heap,
            meta: CowMeta { root_line, root_twin, slots },
            txid: None,
            next_txid: 1,
            shadows: HashMap::new(),
            leaf_shadows: BTreeMap::new(),
            key_rotor: 0,
            records: Vec::new(),
            init_writes,
            init_finished: false,
        }
    }

    /// The pool's addressing metadata (for the checker).
    pub fn meta(&self) -> CowMeta {
        self.meta
    }

    fn next_key(&mut self) -> Edk {
        self.key_rotor = if self.key_rotor >= 15 { 1 } else { self.key_rotor + 1 };
        Edk::new(self.key_rotor).expect("rotor stays in 1..=15")
    }

    /// Opens the measured phase (the preloaded tree needs no
    /// instructions).
    pub fn finish_init(&mut self) {
        assert!(!self.init_finished, "finish_init called twice");
        self.init_finished = true;
    }

    /// Opens a failure-atomic region.
    ///
    /// # Panics
    ///
    /// Panics if one is already open.
    pub fn begin_tx(&mut self) {
        assert!(self.init_finished, "call finish_init first");
        assert!(self.txid.is_none(), "transaction already open");
        let id = self.next_txid;
        self.next_txid += 1;
        self.txid = Some(id);
        self.shadows.clear();
        self.leaf_shadows.clear();
        self.records.push(TxRecord {
            txid: id,
            writes: Vec::new(),
        });
        self.builder.compute_chain(2);
    }

    /// The current *physical* block of a logical slot (shadow if this
    /// transaction already copied it).
    fn block_of(&mut self, slot: u64, emit: bool) -> u64 {
        if let Some(&s) = self.shadows.get(&slot) {
            return s;
        }
        // Walk root → leaf → block, emitting the indirection loads.
        let root_block = self.mem.read(self.meta.root_line);
        let leaf_ptr_addr = root_block + (slot / LEAF_FANOUT) * 8;
        let leaf = self.mem.read(leaf_ptr_addr);
        let entry_addr = leaf + (slot % LEAF_FANOUT) * 8;
        let block = self.mem.read(entry_addr);
        if emit {
            self.builder.load(self.meta.root_line, root_block);
            self.builder.load(leaf_ptr_addr, leaf);
            self.builder.load(entry_addr, block);
        }
        block
    }

    /// Transactional read of `word` (0..8) in logical `slot`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range slot/word.
    pub fn read(&mut self, slot: u64, word: u64) -> u64 {
        assert!(slot < self.meta.slots && word < BLOCK_WORDS);
        let block = self.block_of(slot, true);
        let addr = block + word * 8;
        let v = self.mem.read(addr);
        self.builder.load(addr, v);
        v
    }

    /// Transactional write: copy-on-first-write, then update the shadow.
    ///
    /// # Panics
    ///
    /// Panics outside a transaction or on out-of-range slot/word.
    pub fn write(&mut self, slot: u64, word: u64, value: u64) {
        assert!(slot < self.meta.slots && word < BLOCK_WORDS);
        let txid = self.txid.expect("no open transaction");
        let _ = txid;
        let logical = slot * 64 + word * 8;
        let old_block = self.block_of(slot, true);
        // block_of(_, true) already resolved to the shadow when one
        // exists, so the same read covers both cases.
        let old_logical_value = self.mem.read(old_block + word * 8);
        let block = if let Some(&s) = self.shadows.get(&slot) {
            s
        } else {
            // Copy the block to a fresh shadow.
            let shadow = self.heap.alloc(BLOCK_WORDS * 8, 64).expect("heap");
            let sbase = self.builder.lea(shadow);
            for w in 0..BLOCK_WORDS {
                let v = self.mem.read(old_block + w * 8);
                self.builder.load(old_block + w * 8, v);
                self.builder.store_to(sbase, shadow + w * 8, v);
                self.mem.write(shadow + w * 8, v);
            }
            self.builder.release(sbase);
            self.shadows.insert(slot, shadow);
            shadow
        };
        let addr = block + word * 8;
        self.builder.store(addr, value);
        self.mem.write(addr, value);
        self.records
            .last_mut()
            .expect("record opened at begin_tx")
            .writes
            .push((logical, old_logical_value, value));
    }

    /// Commits: persist shadows → copy + persist touched tables → atomic
    /// root switch, ordered per configuration. The switch writes the
    /// packed `(new root, [`root_word`])` pair twice — twin line first,
    /// persisted, then the primary — so a tear in either single `STP`
    /// leaves a validating copy behind.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_tx(&mut self) {
        let txid = self.txid.take().expect("no open transaction");
        if self.shadows.is_empty() {
            return;
        }
        // 1. Persist every shadow block.
        let shadows: Vec<(u64, u64)> =
            self.shadows.iter().map(|(&s, &b)| (s, b)).collect();
        for &(_, block) in &shadows {
            self.emit_persist_lines(block, BLOCK_WORDS * 8);
        }

        // 2. Copy touched leaf tables, pointing at the shadows.
        let old_root = self.mem.read(self.meta.root_line);
        let mut touched_leaves: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for &(slot, block) in &shadows {
            touched_leaves
                .entry(slot / LEAF_FANOUT)
                .or_default()
                .push((slot % LEAF_FANOUT, block));
        }
        for (leaf_idx, updates) in &touched_leaves {
            let old_leaf = self.mem.read(old_root + leaf_idx * 8);
            self.builder.load(old_root + leaf_idx * 8, old_leaf);
            let new_leaf = self.heap.alloc(LEAF_FANOUT * 8, 64).expect("heap");
            let base = self.builder.lea(new_leaf);
            for e in 0..LEAF_FANOUT {
                let v = self.mem.read(old_leaf + e * 8);
                self.builder.load(old_leaf + e * 8, v);
                self.builder.store_to(base, new_leaf + e * 8, v);
                self.mem.write(new_leaf + e * 8, v);
            }
            for &(entry, block) in updates {
                self.builder.store_to(base, new_leaf + entry * 8, block);
                self.mem.write(new_leaf + entry * 8, block);
            }
            self.builder.release(base);
            self.emit_persist_lines(new_leaf, LEAF_FANOUT * 8);
            self.leaf_shadows.insert(*leaf_idx, new_leaf);
        }

        // 3. Copy the root block.
        let new_root = self.heap.alloc(ROOT_FANOUT * 8, 64).expect("heap");
        let base = self.builder.lea(new_root);
        for l in 0..ROOT_FANOUT {
            let v = self.mem.read(old_root + l * 8);
            self.builder.load(old_root + l * 8, v);
            let v = self
                .leaf_shadows
                .get(&l)
                .copied()
                .unwrap_or(v);
            self.builder.store_to(base, new_root + l * 8, v);
            self.mem.write(new_root + l * 8, v);
        }
        self.builder.release(base);
        self.emit_persist_lines(new_root, ROOT_FANOUT * 8);

        // 4. Everything persisted before the switch.
        self.fence_boundary();

        // 5. The atomic commit point: root pointer + packed marker in
        // one STP — twin line first, persisted before the primary, so
        // the twin is always at least as new as the primary.
        let marker = root_word(new_root, txid);
        if self.arch.uses_ede() {
            // Ordering is an execution dependence: the primary STP
            // consumes the key the twin's writeback produces.
            let tbase = self.builder.lea(self.meta.root_twin);
            self.builder
                .store_pair_to(tbase, self.meta.root_twin, [new_root, marker]);
            let kt = self.next_key();
            self.builder
                .cvap_to_edk(tbase, self.meta.root_twin, EdkPair::producer(kt));
            self.builder.release(tbase);
            let rbase = self.builder.lea(self.meta.root_line);
            self.builder.store_pair_to_edk(
                rbase,
                self.meta.root_line,
                [new_root, marker],
                EdkPair::consumer(kt),
            );
            let k = self.next_key();
            self.builder
                .cvap_to_edk(rbase, self.meta.root_line, EdkPair::producer(k));
            self.builder.release(rbase);
            self.builder.wait_key(k);
        } else {
            let tbase = self.builder.lea(self.meta.root_twin);
            self.builder
                .store_pair_to(tbase, self.meta.root_twin, [new_root, marker]);
            self.builder.cvap_to(tbase, self.meta.root_twin);
            self.builder.release(tbase);
            self.fence_boundary();
            let rbase = self.builder.lea(self.meta.root_line);
            self.builder
                .store_pair_to(rbase, self.meta.root_line, [new_root, marker]);
            self.builder.cvap_to(rbase, self.meta.root_line);
            self.builder.release(rbase);
            self.fence_boundary();
        }
        for line in [self.meta.root_twin, self.meta.root_line] {
            self.mem.write(line, new_root);
            self.mem.write(line + 8, marker);
        }
    }

    fn fence_boundary(&mut self) {
        match self.arch {
            ArchConfig::Baseline => {
                self.builder.dsb_sy();
            }
            ArchConfig::StoreBarrierUnsafe => {
                self.builder.dmb_st();
            }
            ArchConfig::IssueQueue | ArchConfig::WriteBuffer => {
                self.builder.wait_all_keys();
            }
            ArchConfig::Unsafe => {}
        }
    }

    /// Persists `len` bytes starting at 64-byte-aligned `base`; under EDE
    /// each line's writeback produces a key so the commit boundary's
    /// `WAIT_ALL_KEYS` covers it.
    fn emit_persist_lines(&mut self, base: u64, len: u64) {
        let mut line = base & !63;
        while line < base + len {
            if self.arch.uses_ede() {
                let k = self.next_key();
                let b = self.builder.lea(line);
                self.builder.cvap_to_edk(b, line, EdkPair::producer(k));
                self.builder.release(b);
            } else {
                self.builder.cvap(line);
            }
            line += 64;
        }
    }

    /// Ends code generation.
    ///
    /// # Panics
    ///
    /// Panics with an open transaction.
    pub fn finish(self) -> (TxOutput, CowMeta) {
        assert!(self.txid.is_none(), "transaction still open");
        (
            TxOutput {
                program: self.builder.finish(),
                records: self.records,
                memory: self.mem,
                layout: self.layout,
                init_writes: self.init_writes,
                tx_phase_start: None,
            },
            self.meta,
        )
    }
}

/// A failure-atomicity violation in a CoW crash image.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CowViolation {
    /// Logical address (`slot * 64 + word * 8`).
    pub logical: u64,
    /// Expected value after the committed prefix.
    pub expected: u64,
    /// Value resolved through the crash image's tree.
    pub found: u64,
    /// Committed transaction id in the image.
    pub committed: u64,
}

impl fmt::Display for CowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "logical {:#x}: expected {} after {} transactions, resolved {}",
            self.logical, self.expected, self.committed, self.found
        )
    }
}

/// Crash checker for CoW pools: resolves logical addresses through the
/// (possibly old) tree the crash image's root points at. No recovery code
/// runs — that is CoW's selling point.
#[derive(Clone, Debug)]
pub struct CowChecker {
    meta: CowMeta,
    initial: HashMap<u64, u64>,
    records: Vec<TxRecord>,
}

impl CowChecker {
    /// Builds a checker from the writer's output.
    pub fn new(out: &TxOutput, meta: CowMeta) -> CowChecker {
        CowChecker {
            meta,
            initial: out.init_writes.iter().copied().collect(),
            records: out.records.clone(),
        }
    }

    fn read_phys(&self, image: &NvmImage, addr: u64) -> u64 {
        image
            .get(&addr)
            .copied()
            .or_else(|| self.initial.get(&addr).copied())
            .unwrap_or(0)
    }

    /// Checks one crash instant; returns the committed transaction id.
    ///
    /// # Errors
    ///
    /// The first [`CowViolation`] found.
    pub fn check_at(&self, trace: &PersistTrace, cycle: u64) -> Result<u64, CowViolation> {
        let image = nvm_image_at(trace, cycle, 64);
        let (root, committed) = resolve_root(
            (
                self.read_phys(&image, self.meta.root_line),
                self.read_phys(&image, self.meta.root_line + 8),
            ),
            (
                self.read_phys(&image, self.meta.root_twin),
                self.read_phys(&image, self.meta.root_twin + 8),
            ),
        );
        // Expected logical state after the committed prefix.
        let mut expected: HashMap<u64, u64> = HashMap::new();
        for r in self.records.iter().take(committed as usize) {
            for &(l, _, new) in &r.writes {
                expected.insert(l, new);
            }
        }
        // Every logical word any transaction ever touched must resolve to
        // its expected value.
        let mut touched: Vec<u64> = self
            .records
            .iter()
            .flat_map(|r| r.writes.iter().map(|&(l, _, _)| l))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for l in touched {
            let slot = l / 64;
            let word = (l % 64) / 8;
            let leaf = self.read_phys(&image, root + (slot / LEAF_FANOUT) * 8);
            let block = self.read_phys(&image, leaf + (slot % LEAF_FANOUT) * 8);
            let found = self.read_phys(&image, block + word * 8);
            let want = expected.get(&l).copied().unwrap_or(0);
            if found != want {
                return Err(CowViolation {
                    logical: l,
                    expected: want,
                    found,
                    committed,
                });
            }
        }
        Ok(committed)
    }

    /// Exhaustively checks every distinct crash image (persist-event
    /// instants, plus the boundaries).
    ///
    /// # Errors
    ///
    /// The first violating `(cycle, violation)` pair.
    pub fn check_all_images(&self, trace: &PersistTrace) -> Result<(), (u64, CowViolation)> {
        for c in trace.persist_cycles() {
            if let Err(v) = self.check_at(trace, c) {
                return Err((c, v));
            }
        }
        Ok(())
    }
}

/// Generates the `update` kernel over CoW (for the protocol comparison).
pub fn cow_update_kernel(
    arch: ArchConfig,
    ops: usize,
    ops_per_tx: usize,
    slots: u64,
    seed: u64,
) -> (TxOutput, CowMeta) {
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

    #[test]
    fn reads_see_writes_within_tx() {
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Baseline, 64);
        tx.finish_init();
        tx.begin_tx();
        assert_eq!(tx.read(3, 1), 0);
        tx.write(3, 1, 99);
        assert_eq!(tx.read(3, 1), 99, "shadow visible inside the tx");
        tx.commit_tx();
        let (out, meta) = tx.finish();
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
        let root = tx.mem.read(tx.meta.root_line);
        let leaf = tx.mem.read(root);
        let old_block = tx.mem.read(leaf);
        tx.begin_tx();
        tx.write(0, 0, 7);
        tx.commit_tx();
        let (out, _) = tx.finish();
        assert_eq!(out.memory.read(old_block), 0, "live block never modified");
    }

    #[test]
    fn commit_emits_single_atomic_switch() {
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Baseline, 8);
        let root_line = tx.meta.root_line;
        tx.finish_init();
        tx.begin_tx();
        tx.write(0, 0, 7);
        tx.commit_tx();
        let (out, _) = tx.finish();
        let stps_to_root = out
            .program
            .iter()
            .filter(|(_, i)| matches!(i.op, ede_isa::Op::Stp { addr, .. } if addr == root_line))
            .count();
        assert_eq!(stps_to_root, 1);
    }

    #[test]
    fn checker_passes_fully_persisted_image() {
        let (out, meta) =
            cow_update_kernel(ArchConfig::Baseline, 30, 10, 32, 11);
        let checker = CowChecker::new(&out, meta);
        // Synthesize an in-order, everything-persisted trace.
        use ede_mem::trace::{PersistEvent, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (&a, &v) in out.memory.iter() {
            trace.record_store(StoreEvent { cycle, addr: a, width: 8, value: [v, 0] });
            cycle += 1;
        }
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(&a, _)| a & !63).collect();
        for line in lines {
            trace.record_persist(PersistEvent { cycle, line });
            cycle += 1;
        }
        let committed = checker.check_at(&trace, cycle).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(committed, out.records.len() as u64);
    }

    #[test]
    fn checker_detects_root_switch_before_shadows() {
        // Adversarial image: root switched but shadow blocks never
        // persisted — the violation CoW ordering must prevent.
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Unsafe, 8);
        tx.finish_init();
        tx.begin_tx();
        tx.write(0, 0, 42);
        tx.commit_tx();
        let (out, meta) = tx.finish();
        let checker = CowChecker::new(&out, meta);
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
        trace.record_persist(PersistEvent { cycle: 2, line: meta.root_line });
        let v = checker
            .check_at(&trace, 2)
            .expect_err("torn tree must be detected");
        assert_eq!(v.expected, 42);
        assert!(v.to_string().contains("logical"));
    }

    #[test]
    fn fence_counts_per_protocol() {
        // CoW baseline: three DSB clusters per commit (pre-switch, twin
        // marker, primary marker), none per write.
        let (out, _) = cow_update_kernel(ArchConfig::Baseline, 30, 10, 32, 11);
        let dsb = out
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::FenceFull)
            .count();
        assert_eq!(dsb, 3 * 3, "three fences per transaction");
        let (ede, _) = cow_update_kernel(ArchConfig::WriteBuffer, 30, 10, 32, 11);
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
            let mut tx = CowTxWriter::new(Layout::standard(), arch, 8);
            let meta = tx.meta();
            tx.finish_init();
            tx.begin_tx();
            tx.write(0, 0, 7);
            tx.commit_tx();
            let (out, _) = tx.finish();
            let pos = |line: u64| {
                out.program
                    .iter()
                    .position(|(_, i)| matches!(i.op, ede_isa::Op::Stp { addr, .. } if addr == line))
                    .unwrap_or_else(|| panic!("{arch:?}: no STP to {line:#x}"))
            };
            assert!(
                pos(meta.root_twin) < pos(meta.root_line),
                "{arch:?}: twin switch must precede the primary switch"
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
    fn resolve_root_heals_torn_primary_from_twin() {
        let (old, new) = (0x9000u64, 0x9400u64);
        let twin = (new, root_word(new, 4));
        // Primary tore mid-STP: new pointer, stale marker half.
        assert_eq!(resolve_root((new, root_word(old, 3)), twin), (new, 4));
        // Primary not yet switched: twin (persisted first) is newer.
        assert_eq!(resolve_root((old, root_word(old, 3)), twin), (new, 4));
        // Legacy image: no marker, no twin — raw primary pointer, txid 0.
        assert_eq!(resolve_root((old, 0), (0, 0)), (old, 0));
    }

    #[test]
    fn checker_heals_torn_primary_root_from_twin() {
        let mut tx = CowTxWriter::new(Layout::standard(), ArchConfig::Baseline, 8);
        tx.finish_init();
        tx.begin_tx();
        tx.write(0, 0, 42);
        tx.commit_tx();
        let (out, meta) = tx.finish();
        let checker = CowChecker::new(&out, meta);
        use ede_mem::trace::{PersistEvent, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (&a, &v) in out.memory.iter() {
            trace.record_store(StoreEvent { cycle, addr: a, width: 8, value: [v, 0] });
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
            out.memory.iter().map(|(&a, _)| a & !63).collect();
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
        let (a, _) = cow_update_kernel(ArchConfig::IssueQueue, 20, 5, 16, 3);
        let (b, _) = cow_update_kernel(ArchConfig::IssueQueue, 20, 5, 16, 3);
        assert_eq!(a.program.len(), b.program.len());
        assert_eq!(a.records, b.records);
    }
}
