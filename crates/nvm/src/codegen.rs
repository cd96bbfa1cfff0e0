//! Lowering framework operations to per-configuration instruction traces.
//!
//! [`TxWriter`] is the code generator the paper implements as Clang/LLVM
//! built-ins plus framework code (§VI-A): workloads express reads, writes
//! and transaction boundaries, and the writer emits the Figure 2/4/7
//! instruction sequences for the selected [`ArchConfig`], while
//! maintaining the functional memory state and the per-transaction write
//! record the crash checker needs.

use crate::layout::Layout;
use crate::log::header_word;
use crate::memory::SimMemory;
use crate::triage::Protocol;
use crate::writer::WriterCore;
use ede_isa::{ArchConfig, Edk, InstId, Program, VAddr};
use std::collections::HashSet;
use std::sync::Arc;

/// What one transaction did: `(addr, old, new)` per write, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxRecord {
    /// The transaction id (1-based, consecutive).
    pub txid: u64,
    /// Every logged write: target address, pre-image, post-image.
    pub writes: Vec<(u64, u64, u64)>,
}

/// Everything a finished [`TxWriter`] produces.
#[derive(Clone, Debug)]
pub struct TxOutput {
    /// The instruction trace, ready for the core model.
    pub program: Program,
    /// Per-transaction write records, in commit order.
    pub records: Vec<TxRecord>,
    /// Final functional memory contents.
    pub memory: SimMemory,
    /// The address-space layout used.
    pub layout: Layout,
    /// The pool's initial contents (preloaded before the measured phase,
    /// like an existing PMDK pool file). Shared, so a
    /// [`CrashChecker`](crate::CrashChecker) keeps the pool without
    /// copying it.
    pub init_writes: Arc<Vec<(u64, u64)>>,
    /// Trace position of the first transactional instruction. The
    /// transaction phase starts when the instruction before it completes
    /// (at cycle 0 when there is none); crash checks are meaningful from
    /// then on.
    pub tx_phase_start: Option<InstId>,
    /// How a crash image of this run is recovered: the protocol of the
    /// writer that built it ([`Protocol::Undo`] for a raw program).
    /// [`CrashChecker::new`](crate::CrashChecker::new) recovers with it.
    pub protocol: Protocol,
}

/// A [`TxOutput`] around a raw program with no transaction record (for
/// microbenchmarks, examples and generated programs).
pub fn raw_output(program: Program) -> TxOutput {
    TxOutput {
        program,
        records: Vec::new(),
        memory: SimMemory::new(),
        layout: Layout::standard(),
        init_writes: Default::default(),
        tx_phase_start: None,
        protocol: Protocol::Undo,
    }
}

impl TxOutput {
    /// Reports the workload's shape into a metrics registry under
    /// `nvm.*`: transaction and logged-write counts, generated program
    /// length, and pool-initialization size.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        // In name order, so the registry only appends.
        reg.inc("nvm.init_writes", self.init_writes.len() as u64);
        reg.inc("nvm.program_len", self.program.len() as u64);
        reg.inc("nvm.transactions", self.records.len() as u64);
        reg.inc(
            "nvm.tx_phase_start",
            self.tx_phase_start.map(|i| i.0).unwrap_or(0),
        );
        reg.inc(
            "nvm.tx_writes",
            self.records.iter().map(|r| r.writes.len() as u64).sum(),
        );
    }
}

/// Failure-atomic transaction writer.
///
/// See the [crate documentation](crate) for an end-to-end example.
///
/// # Lifecycle
///
/// 1. allocate and initialize persistent state with
///    [`heap_alloc`](Self::heap_alloc) / [`write_init`](Self::write_init),
///    then call [`finish_init`](Self::finish_init) once;
/// 2. run transactions: [`begin_tx`](Self::begin_tx), any number of
///    [`read`](Self::read) / [`write`](Self::write),
///    [`commit_tx`](Self::commit_tx);
/// 3. [`finish`](Self::finish) to obtain the [`TxOutput`].
#[derive(Debug)]
pub struct TxWriter {
    core: WriterCore,
    logged: HashSet<u64>,
    silent: bool,
    tx_phase_start: Option<InstId>,
}

impl TxWriter {
    /// A writer over a fresh machine with the given layout and target
    /// configuration.
    pub fn new(layout: Layout, arch: ArchConfig) -> TxWriter {
        TxWriter {
            core: WriterCore::with_log(layout, arch),
            logged: HashSet::new(),
            silent: false,
            tx_phase_start: None,
        }
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates persistent heap space.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted.
    pub fn heap_alloc(&mut self, size: u64, align: u64) -> VAddr {
        self.core.heap_alloc(size, align)
    }

    // ---- initialization phase ---------------------------------------------

    /// Preloads initial persistent state, emitting no instructions: the
    /// simulated NVM pool starts with these contents, exactly as a PMDK
    /// pool file persisted by a previous run would. The crash checker
    /// treats these values as the media's initial contents.
    ///
    /// # Panics
    ///
    /// Panics if called after `finish_init`.
    pub fn write_init(&mut self, addr: VAddr, value: u64) {
        self.core.write_init(addr, value);
    }

    /// [`write_init`](Self::write_init) of word `i` of the `len` words
    /// from `base` with `value(i)`, the preload record sized once up
    /// front.
    ///
    /// # Panics
    ///
    /// Panics if called after `finish_init`.
    pub fn write_init_words(&mut self, base: VAddr, len: u64, value: impl Fn(u64) -> u64) {
        self.core.write_init_words(base, len, value);
    }

    /// Closes the pre-population phase and opens the measured transaction
    /// phase.
    pub fn finish_init(&mut self) {
        self.core.finish_init();
        self.silent = false;
        self.tx_phase_start = Some(self.core.emit.next_id());
    }

    /// Switches the writer into *silent* mode (only valid before
    /// [`finish_init`](Self::finish_init)): reads and writes update the
    /// functional pool without emitting instructions or undo logging.
    /// This lets workloads pre-populate a data structure through their
    /// normal insert code, building a warm multi-megabyte pool for free —
    /// the measured phase then operates on realistic working sets.
    ///
    /// # Panics
    ///
    /// Panics if the init phase is over.
    pub fn begin_prepopulate(&mut self) {
        assert!(!self.core.init_finished, "init phase is over");
        self.silent = true;
    }

    /// Leaves silent mode (stays in the init phase).
    pub fn end_prepopulate(&mut self) {
        self.silent = false;
    }

    // ---- reads -------------------------------------------------------------

    /// Reads a word, emitting an address materialization and a load.
    pub fn read(&mut self, addr: VAddr) -> u64 {
        let value = self.core.mem.read(addr);
        if !self.silent {
            self.core.emit.load(addr, value);
        }
        value
    }

    /// Emits a materialized pointer for repeated access; release with
    /// [`release`](Self::release).
    pub fn lea(&mut self, addr: VAddr) -> ede_isa::Reg {
        self.core.emit.lea(addr)
    }

    /// Releases a pinned pointer register.
    pub fn release(&mut self, reg: ede_isa::Reg) {
        self.core.emit.release(reg);
    }

    /// Emits comparison + branch (for search loops); `mispredicted` is the
    /// trace-resolved prediction outcome.
    pub fn compare_branch(&mut self, lhs: u64, rhs: u64, mispredicted: bool) {
        if self.silent {
            return;
        }
        let l = self.core.emit.mov_imm(lhs);
        let r = self.core.emit.mov_imm(rhs);
        self.core.emit.cmp_branch(l, r, mispredicted);
    }

    /// Emits `n` dependent ALU instructions of bookkeeping work.
    pub fn compute(&mut self, n: usize) {
        if !self.silent {
            self.core.emit.compute_chain(n);
        }
    }

    // ---- transactions --------------------------------------------------------

    /// Opens a failure-atomic region.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open or init is not finished.
    pub fn begin_tx(&mut self) {
        self.core.begin_tx();
        self.logged.clear();
    }

    /// A logged, persistent write inside the open transaction — the
    /// `p_uint64::operator=` of Figure 1(b): `log_value` then
    /// `update_value`, lowered per the target configuration.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or once the transaction has
    /// logged more distinct words than the layout has log slots.
    pub fn write(&mut self, addr: VAddr, new: u64) {
        if self.silent {
            // Pre-population: the write lands directly in the initial
            // pool contents.
            self.core.write_init(addr, new);
            return;
        }
        let old = self.core.mem.read(addr);
        let consumer_key = if self.logged.insert(addr) {
            self.emit_log_value(addr, old)
        } else {
            None
        };
        self.emit_update_value(addr, new, consumer_key);
        self.core.record(addr, old, new);
        self.core.mem.write(addr, new);
    }

    /// `log_value` (Figure 2a / 7a): reserve a slot, store the entry,
    /// persist it, and order the persist before the data store. Returns
    /// the EDK the following `update_value` must consume, if any.
    fn emit_log_value(&mut self, addr: VAddr, old: u64) -> Option<Edk> {
        let c = &mut self.core;
        // Figure 4, line 5: load the original value.
        c.emit.load(addr, old);
        // Framework bookkeeping, as PMDK's tx_add path performs before
        // touching the log: range-tracking lookup and list append over
        // volatile runtime state.
        c.emit.compute_chain(4);
        let rt = c.layout.dram_scratch + 8;
        c.emit.load(rt, 0);
        c.emit.compute_chain(3);
        c.emit.store(rt + 8, addr);
        let (slot, base) = c.append_log_entry(addr, old);
        c.mem.write(c.layout.log_tail_ptr, c.log_tail);
        let key = c.emit.persist_before_store(base, slot);
        c.emit.release(base);
        key
    }

    /// `update_value` (Figure 2b / 7b): store the new value (consuming the
    /// log key under EDE) and persist it; under EDE the data persist
    /// produces a key so the commit boundary covers it.
    fn emit_update_value(&mut self, addr: VAddr, new: u64, consumer_key: Option<Edk>) {
        let emit = &mut self.core.emit;
        emit.compute_chain(2);
        let base = emit.lea(addr);
        emit.store_after(base, addr, new, consumer_key);
        emit.persist(base, addr);
        emit.release(base);
    }

    /// Commits the open transaction: ensure all data persists completed,
    /// then persist the transaction id into the log header — twin line
    /// first, primary second — which invalidates this transaction's undo
    /// entries, and make the primary durable.
    ///
    /// The twin-first order is the repair invariant the triage engine
    /// relies on: at every crash instant the twin marker is at least as
    /// new as the primary, so a later torn *primary* is exactly
    /// repairable from the surviving twin (see `log::resolve_marker`).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_tx(&mut self) {
        let txid = self.core.end_tx();
        let c = &mut self.core;
        c.emit.boundary();
        // The marker is the self-validating header word, not the bare id:
        // a torn or bit-flipped header then reads as "nothing committed".
        let key = c.log_marker(0, header_word(txid));
        c.emit.durable(key);
        // Truncate the undo log, as PMDK does at commit: the next
        // transaction reuses the same (now cache-resident) slots.
        c.truncate_log();
        c.mem.write(c.layout.log_tail_ptr, 0);
    }

    /// Ends code generation.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    pub fn finish(self) -> TxOutput {
        self.core.finish(self.tx_phase_start, Protocol::Undo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{MAGIC, OFF_MAGIC};
    use ede_isa::InstKind;

    fn writer(arch: ArchConfig) -> TxWriter {
        TxWriter::new(Layout::standard(), arch)
    }

    fn one_tx(arch: ArchConfig) -> TxOutput {
        let mut tx = writer(arch);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 1);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 2);
        tx.commit_tx();
        tx.finish()
    }

    fn one_tx_program(arch: ArchConfig) -> Program {
        one_tx(arch).program
    }

    fn count_kind(p: &Program, k: InstKind) -> usize {
        p.iter().filter(|(_, i)| i.kind() == k).count()
    }

    #[test]
    fn baseline_uses_dsbs_no_ede() {
        let p = one_tx_program(ArchConfig::Baseline);
        assert!(count_kind(&p, InstKind::FenceFull) >= 3); // log + 3×commit
        assert_eq!(count_kind(&p, InstKind::EdeControl), 0);
        assert!(p.iter().all(|(_, i)| !i.is_ede()));
    }

    #[test]
    fn su_uses_store_barriers() {
        let p = one_tx_program(ArchConfig::StoreBarrierUnsafe);
        assert!(count_kind(&p, InstKind::FenceStore) >= 3);
        assert_eq!(count_kind(&p, InstKind::FenceFull), 0);
    }

    #[test]
    fn ede_configs_have_no_tx_phase_fences() {
        for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let p = one_tx_program(arch);
            assert_eq!(
                count_kind(&p, InstKind::FenceFull),
                0,
                "no fences under EDE"
            );
            assert_eq!(count_kind(&p, InstKind::FenceStore), 0);
            assert!(count_kind(&p, InstKind::EdeControl) >= 2); // wait_all + wait_key
                                                                // The log cvap produces a key; the data store consumes it.
            let deps = ede_core::ordering::execution_deps(&p);
            assert!(!deps.is_empty());
        }
    }

    #[test]
    fn unsafe_has_no_ordering_at_all() {
        let p = one_tx_program(ArchConfig::Unsafe);
        assert_eq!(count_kind(&p, InstKind::FenceFull), 0);
        assert_eq!(count_kind(&p, InstKind::FenceStore), 0);
        assert_eq!(count_kind(&p, InstKind::EdeControl), 0);
    }

    #[test]
    fn records_track_old_and_new() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 10);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 20);
        tx.write(a, 30);
        tx.commit_tx();
        tx.begin_tx();
        tx.write(a, 40);
        tx.commit_tx();
        let out = tx.finish();
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].writes, vec![(a, 10, 20), (a, 20, 30)]);
        assert_eq!(out.records[1].writes, vec![(a, 30, 40)]);
        assert_eq!(out.memory.read(a), 40);
        assert_eq!(out.memory.read(out.layout.log_header), header_word(2));
        assert_eq!(
            crate::log::decode_header(out.memory.read(out.layout.log_header)),
            2
        );
    }

    #[test]
    fn superblock_twin_and_magic_are_maintained() {
        for arch in ArchConfig::ALL {
            let out = one_tx(arch);
            let l = &out.layout;
            // Both header lines carry the magic, preloaded (no stores).
            assert_eq!(out.memory.read(l.log_header + OFF_MAGIC), MAGIC);
            assert_eq!(out.memory.read(l.log_header_twin + OFF_MAGIC), MAGIC);
            assert!(out.init_writes.contains(&(l.log_header + OFF_MAGIC, MAGIC)));
            assert!(out
                .init_writes
                .contains(&(l.log_header_twin + OFF_MAGIC, MAGIC)));
            // Commit lands the same marker in both copies, and the twin
            // persist is ordered before the primary store.
            assert_eq!(out.memory.read(l.log_header), header_word(1));
            assert_eq!(out.memory.read(l.log_header_twin), header_word(1));
            crate::lowering::assert_twin_ordered_before_primary(
                &out.program,
                arch,
                l.log_header_twin,
                l.log_header,
            );
        }
    }

    #[test]
    fn same_addr_logged_once_per_tx() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 0);
        tx.finish_init();
        tx.begin_tx();
        let before = tx.core.emit.len();
        tx.write(a, 1);
        let first = tx.core.emit.len() - before;
        let mid = tx.core.emit.len();
        tx.write(a, 2);
        let second = tx.core.emit.len() - mid;
        tx.commit_tx();
        let _ = tx.finish();
        assert!(second < first, "second write must skip log_value");
    }

    #[test]
    fn log_entries_are_decodable_from_memory() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.write_init(a, 7);
        tx.finish_init();
        tx.begin_tx();
        tx.write(a, 8);
        tx.commit_tx();
        let out = tx.finish();
        let slot = out.layout.slot_addr(0);
        let e = crate::log::decode_entry(slot, |w| out.memory.read(w)).expect("valid entry");
        assert_eq!(e.addr, a);
        assert_eq!(e.old, 7);
        assert_eq!(e.txid, 1);
    }

    #[test]
    fn program_validates_statically() {
        for arch in ArchConfig::ALL {
            let p = one_tx_program(arch);
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "no open transaction")]
    fn write_outside_tx_panics() {
        let mut tx = writer(ArchConfig::Baseline);
        let a = tx.heap_alloc(8, 8);
        tx.finish_init();
        tx.write(a, 1);
    }

    #[test]
    #[should_panic(expected = "transaction still open")]
    fn finish_with_open_tx_panics() {
        let mut tx = writer(ArchConfig::Baseline);
        tx.finish_init();
        tx.begin_tx();
        let _ = tx.finish();
    }

    #[test]
    #[should_panic(expected = "transaction 2 needs more than the 16 log slots")]
    fn log_overflow_within_one_transaction_panics() {
        let layout = Layout {
            log_slots: 16,
            ..Layout::standard()
        };
        let mut tx = TxWriter::new(layout, ArchConfig::Baseline);
        let a = tx.heap_alloc(17 * 8, 8);
        tx.finish_init();
        // Transaction 1 fills the log with sixteen distinct words, each
        // written twice (a rewrite takes no new slot); transaction 2's
        // seventeenth word overflows it.
        for words in [16, 17] {
            tx.begin_tx();
            for i in 0..words {
                tx.write(a + i * 8, 1);
                tx.write(a + i * 8, 2);
            }
            tx.commit_tx();
        }
    }

    #[test]
    fn each_writer_stamps_its_own_protocol() {
        use crate::cow::{decode_root, CowTxWriter};
        use crate::redo::RedoTxWriter;
        let arch = ArchConfig::Baseline;
        assert_eq!(one_tx(arch).protocol, Protocol::Undo);
        assert_eq!(raw_output(Program::new()).protocol, Protocol::Undo);
        let mut redo = RedoTxWriter::new(Layout::standard(), arch);
        redo.finish_init();
        assert_eq!(redo.finish().protocol, Protocol::Redo);

        let mut cow = CowTxWriter::new(Layout::standard(), arch, 8);
        cow.finish_init();
        cow.begin_tx();
        cow.write(0, 0, 7);
        cow.commit_tx();
        let out = cow.finish();
        let Protocol::Cow(meta) = out.protocol else {
            panic!("a CoW writer's output carries {:?}", out.protocol)
        };
        assert_eq!(meta.slots, 8);
        // The recorded root lines are the ones the commit switched: the
        // only 16-byte stores go to the twin, then the primary, and both
        // lines end up holding a marker that commits transaction 1.
        let stps: Vec<u64> = out
            .program
            .iter()
            .filter_map(|(_, i)| match i.op {
                ede_isa::Op::Stp { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(stps, [meta.root_twin, meta.root_line]);
        for line in [meta.root_line, meta.root_twin] {
            let root = out.memory.read(line);
            assert_eq!(decode_root(root, out.memory.read(line + 8)), Some(1));
        }
    }
}
