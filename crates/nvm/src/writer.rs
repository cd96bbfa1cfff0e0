//! The lifecycle bookkeeping every transaction writer shares: the pool's
//! initial contents, transaction ids and write records, the log
//! superblock and tail, and the final [`TxOutput`]. The writers' public
//! methods document the panics.

use crate::codegen::{TxOutput, TxRecord};
use crate::heap::BumpHeap;
use crate::layout::Layout;
use crate::log::{checksum, MAGIC, OFF_ADDR, OFF_MAGIC, OFF_TXID};
use crate::lowering::{Lowering, Marker};
use crate::memory::SimMemory;
use crate::triage::Protocol;
use ede_isa::{ArchConfig, Edk, InstId, Reg, VAddr};
use std::sync::Arc;

#[derive(Debug)]
pub(crate) struct WriterCore {
    pub(crate) layout: Layout,
    pub(crate) mem: SimMemory,
    pub(crate) emit: Lowering,
    heap: BumpHeap,
    txid: Option<u64>,
    next_txid: u64,
    records: Vec<TxRecord>,
    init_writes: Vec<(u64, u64)>,
    pub(crate) init_finished: bool,
    /// Whether the pool has a log superblock (undo and redo, not CoW).
    has_log: bool,
    /// Log slots taken by the open transaction.
    pub(crate) log_tail: u64,
}

impl WriterCore {
    pub(crate) fn new(layout: Layout, arch: ArchConfig) -> WriterCore {
        WriterCore {
            layout,
            mem: SimMemory::new(),
            emit: Lowering::new(arch),
            heap: BumpHeap::new(layout.heap_base, 1 << 30),
            txid: None,
            next_txid: 1,
            records: Vec::new(),
            init_writes: Vec::new(),
            init_finished: false,
            has_log: false,
            log_tail: 0,
        }
    }

    /// A core whose pool has a formatted log superblock: the magic word
    /// on both header lines, preloaded like a pool file a previous run
    /// formatted. Triage uses it to tell a wiped header from genuinely
    /// fresh media. (The matching `init_writes` entries are appended in
    /// `finish` so the user's first `write_init` stays at index 0.)
    pub(crate) fn with_log(layout: Layout, arch: ArchConfig) -> WriterCore {
        let mut core = WriterCore::new(layout, arch);
        core.has_log = true;
        for line in [layout.log_header, layout.log_header_twin] {
            core.mem.write(line + OFF_MAGIC, MAGIC);
        }
        core
    }

    pub(crate) fn heap_alloc(&mut self, size: u64, align: u64) -> VAddr {
        self.heap
            .alloc(size, align)
            .expect("persistent heap exhausted")
    }

    pub(crate) fn write_init(&mut self, addr: VAddr, value: u64) {
        assert!(!self.init_finished, "init phase is over");
        self.mem.write(addr, value);
        self.init_writes.push((addr, value));
    }

    /// Preloads word `i` of the `len` words from `base` with `value(i)`,
    /// sizing the preload record once for them and for the log magic
    /// words `finish` appends, so a large array never regrows it.
    pub(crate) fn write_init_words(&mut self, base: VAddr, len: u64, value: impl Fn(u64) -> u64) {
        let magic = if self.has_log { 2 } else { 0 };
        let words = usize::try_from(len).expect("preload fits in memory");
        self.init_writes.reserve_exact(words + magic);
        for i in 0..len {
            self.write_init(base + i * 8, value(i));
        }
    }

    pub(crate) fn finish_init(&mut self) {
        assert!(!self.init_finished, "finish_init called twice");
        self.init_finished = true;
    }

    /// Opens and records a transaction, and emits the framework's
    /// `tx_begin` bookkeeping.
    pub(crate) fn begin_tx(&mut self) {
        assert!(self.init_finished, "call finish_init first");
        assert!(self.txid.is_none(), "transaction already open");
        let id = self.next_txid;
        self.next_txid += 1;
        self.txid = Some(id);
        self.records.push(TxRecord {
            txid: id,
            writes: Vec::new(),
        });
        self.emit.compute_chain(2);
    }

    /// The open transaction's id.
    pub(crate) fn txid(&self) -> u64 {
        self.txid.expect("no open transaction")
    }

    /// Appends `(addr, old, new)` to the open transaction's record.
    pub(crate) fn record(&mut self, addr: VAddr, old: u64, new: u64) {
        assert!(self.txid.is_some(), "no open transaction");
        self.records
            .last_mut()
            .expect("record opened at begin_tx")
            .writes
            .push((addr, old, new));
    }

    /// Closes the open transaction and returns its id.
    pub(crate) fn end_tx(&mut self) -> u64 {
        self.txid.take().expect("no open transaction")
    }

    /// Appends the log entry `{addr, value, txid, checksum}` to the open
    /// transaction's next slot, bumping the volatile tail pointer, and
    /// returns the slot and a pinned base register for its writeback.
    /// Panics once one transaction needs more than `layout.log_slots`
    /// slots: the slot array is a ring, so one more entry would overwrite
    /// the transaction's own first entry.
    pub(crate) fn append_log_entry(&mut self, addr: VAddr, value: u64) -> (VAddr, Reg) {
        let txid = self.txid();
        let tail = self.log_tail;
        let slots = self.layout.log_slots;
        assert!(
            tail < slots,
            "transaction {txid} needs more than the {slots} log slots"
        );
        self.log_tail += 1;
        let tail_ptr = self.layout.log_tail_ptr;
        self.emit.load(tail_ptr, tail);
        self.emit.store(tail_ptr, tail + 1);

        let slot = self.layout.slot_addr(tail);
        let csum = checksum(addr, value, txid);
        let base = self.emit.lea(slot);
        for (off, pair) in [(OFF_ADDR, [addr, value]), (OFF_TXID, [txid, csum])] {
            self.emit.store_pair_to(base, slot + off, pair);
            self.mem.write(slot + off, pair[0]);
            self.mem.write(slot + off + 8, pair[1]);
        }
        (slot, base)
    }

    /// Persists `marker` to word `word_off` of both log header lines,
    /// twin first, and returns the primary persist's key.
    pub(crate) fn log_marker(&mut self, word_off: u64, marker: u64) -> Option<Edk> {
        let twin = self.layout.log_header_twin + word_off;
        let primary = self.layout.log_header + word_off;
        self.mem.write(twin, marker);
        self.mem.write(primary, marker);
        self.emit.marker_pair(twin, primary, Marker::Word(marker))
    }

    /// Truncates the log at commit: the next transaction reuses the same
    /// slots. Entry validity is governed by the committed txid, so only
    /// the volatile tail is reset.
    pub(crate) fn truncate_log(&mut self) {
        self.log_tail = 0;
        self.emit.store(self.layout.log_tail_ptr, 0);
    }

    pub(crate) fn finish(self, tx_phase_start: Option<InstId>, protocol: Protocol) -> TxOutput {
        assert!(self.txid.is_none(), "transaction still open");
        let mut init_writes = self.init_writes;
        if self.has_log {
            for line in [self.layout.log_header, self.layout.log_header_twin] {
                init_writes.push((line + OFF_MAGIC, MAGIC));
            }
        }
        TxOutput {
            program: self.emit.finish(),
            records: self.records,
            memory: self.mem,
            layout: self.layout,
            init_writes: Arc::new(init_writes),
            tx_phase_start,
            protocol,
        }
    }
}
