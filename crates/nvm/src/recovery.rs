//! Crash images, and undo recovery as a simulated instruction trace.
//!
//! Recovery itself runs through [`triage::recover`], the one entry
//! point per protocol; this module prices it on the simulated machine.

use crate::layout::Layout;
use crate::triage::{self, Protocol};

/// A reconstructed NVM image: 8-byte word address → value; absent words
/// read as zero (fresh media). Hashed by word address
/// ([`ede_util::idmap::WordHasher`]), so build one with `default()`.
pub type NvmImage = ede_util::idmap::WordMap;

/// Emits undo recovery as an instruction trace over a crash image: scan
/// every log slot (the dominant cost — four loads and a compare per
/// slot), roll back valid uncommitted entries (store + persist each), and
/// fence. Running this trace on the simulated machine measures *recovery
/// time*, an experiment the paper leaves implicit.
///
/// The rolled-back entries are [`triage::recovery_entries`] — exactly
/// what [`triage::recover`] applies; the test suite checks the two
/// agree.
pub fn recovery_trace(image: &NvmImage, layout: &Layout) -> ede_isa::Program {
    use ede_isa::TraceBuilder;
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let mut b = TraceBuilder::new();
    // Load both marker copies and resolve them (resolve_marker).
    b.load(layout.log_header, rd(layout.log_header));
    b.load(layout.log_header_twin, rd(layout.log_header_twin));
    b.compute_chain(3);
    for i in 0..layout.log_slots {
        let slot = layout.slot_addr(i);
        // The scan reads the entry fields and validates the checksum.
        let base = b.lea(slot);
        for off in [0u64, 8, 16, 24] {
            b.load_from(base, slot + off, rd(slot + off));
        }
        b.release(base);
        b.compute_chain(3); // checksum recomputation
        let l = b.mov_imm(1);
        let r = b.mov_imm(1);
        b.cmp_branch(l, r, false);
    }
    for e in triage::recovery_entries(image, layout, Protocol::Undo) {
        b.store(e.addr, e.old);
        b.cvap(e.addr);
    }
    b.dsb_sy();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{
        checksum, header_word, MAGIC, OFF_ADDR, OFF_CSUM, OFF_MAGIC, OFF_OLD, OFF_TXID,
    };
    use crate::triage::{recover, RecoveryOutcome, TriageReport};

    /// A formatted pool: the superblock magic on both header lines, as
    /// every writer leaves it.
    fn formatted(layout: &Layout) -> NvmImage {
        [layout.log_header, layout.log_header_twin]
            .into_iter()
            .map(|line| (line + OFF_MAGIC, MAGIC))
            .collect()
    }

    fn put_entry(image: &mut NvmImage, layout: &Layout, slot: u64, addr: u64, old: u64, txid: u64) {
        let s = layout.slot_addr(slot);
        image.insert(s + OFF_ADDR, addr);
        image.insert(s + OFF_OLD, old);
        image.insert(s + OFF_TXID, txid);
        image.insert(s + OFF_CSUM, checksum(addr, old, txid));
    }

    fn undo(image: &mut NvmImage, layout: &Layout) -> TriageReport {
        recover(image, layout, Protocol::Undo)
    }

    #[test]
    fn empty_image_recovers_to_nothing() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let r = undo(&mut image, &layout);
        assert_eq!(r.committed, 0);
        assert_eq!(r.outcome, RecoveryOutcome::Clean);
        assert_eq!(image, formatted(&layout));
    }

    #[test]
    fn committed_entries_skipped() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        image.insert(layout.log_header, header_word(5));
        image.insert(layout.log_header_twin, header_word(5));
        put_entry(&mut image, &layout, 0, layout.heap_base, 1, 5); // committed
        image.insert(layout.heap_base, 100);
        let r = undo(&mut image, &layout);
        assert_eq!(r.outcome, RecoveryOutcome::Clean);
        assert_eq!(image[&layout.heap_base], 100);
    }

    #[test]
    fn two_uncommitted_txs_roll_back_to_oldest() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let x = layout.heap_base;
        // No committed header. Tx1 wrote x: 0 → 10; tx2 wrote x: 10 → 20.
        put_entry(&mut image, &layout, 0, x, 0, 1);
        put_entry(&mut image, &layout, 1, x, 10, 2);
        image.insert(x, 20);
        let r = undo(&mut image, &layout);
        assert_eq!(r.outcome, RecoveryOutcome::RolledBack { entries: 2 });
        assert_eq!(image[&x], 0);
    }

    #[test]
    fn recovery_trace_agrees_with_recover() {
        let mut layout = Layout::standard();
        layout.log_slots = 16; // keep the scan small for the test
        let mut image = formatted(&layout);
        let x = layout.heap_base;
        let y = layout.heap_base + 64;
        image.insert(layout.log_header, header_word(1)); // tx 1 committed
        image.insert(layout.log_header_twin, header_word(1));
        put_entry(&mut image, &layout, 0, x, 11, 1); // committed: skipped
        put_entry(&mut image, &layout, 1, x, 22, 2); // uncommitted: applied
        put_entry(&mut image, &layout, 2, y, 33, 2); // uncommitted: applied
        image.insert(x, 99);
        image.insert(y, 98);

        let trace = recovery_trace(&image, &layout);
        // Apply the trace's stores functionally.
        let mut applied = image.clone();
        for (_, inst) in trace.iter() {
            if let ede_isa::Op::Str { addr, value, .. } = inst.op {
                applied.insert(addr, value);
            }
        }
        let mut reference = image.clone();
        undo(&mut reference, &layout);
        assert_eq!(applied, reference);
        assert_eq!(applied[&x], 22);
        assert_eq!(applied[&y], 33);
        // The scan visited every slot.
        let loads = trace
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::Load)
            .count();
        assert!(loads >= 16 * 4);
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn bit_flipped_entry_is_skipped() {
        // A media fault flips one bit of an entry's pre-image word after
        // the entry (and its checksum) persisted. The entry must be
        // rejected rather than rolled back to a corrupt value.
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 1);
        let old_word = layout.slot_addr(0) + OFF_OLD;
        *image.get_mut(&old_word).unwrap() ^= 1 << 17;
        image.insert(layout.heap_base, 99);
        let r = undo(&mut image, &layout);
        assert!(matches!(
            r.outcome,
            RecoveryOutcome::Quarantined { entries: 1, .. }
        ));
        assert_eq!(
            image[&layout.heap_base], 99,
            "no rollback to a corrupt pre-image"
        );
    }

    #[test]
    fn torn_header_reads_as_uncommitted() {
        // Only the id half of the commit marker reached the media — the
        // checksum half tore off. Recovery must treat the transaction as
        // uncommitted and roll its entry back.
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        image.insert(layout.log_header, 1); // raw id, no checksum half
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 1);
        image.insert(layout.heap_base, 99);
        let r = undo(&mut image, &layout);
        assert_eq!(r.committed, 0);
        assert!(matches!(r.outcome, RecoveryOutcome::Quarantined { .. }));
        assert_eq!(image[&layout.heap_base], 7);
    }

    #[test]
    fn torn_primary_header_is_healed_from_the_twin() {
        // The primary commit marker took a media bit flip, but the twin
        // (persisted first, so at least as new) survived: recovery must
        // see the commit and leave the committed write in place.
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        image.insert(layout.log_header, header_word(5) ^ (1 << 40));
        image.insert(layout.log_header_twin, header_word(5));
        put_entry(&mut image, &layout, 0, layout.heap_base, 7, 5);
        image.insert(layout.heap_base, 99);
        let r = undo(&mut image, &layout);
        assert_eq!(r.committed, 5);
        assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 0 });
        assert_eq!(image[&layout.heap_base], 99);
    }

    #[test]
    fn corrupt_entry_ignored() {
        let layout = Layout::standard();
        let mut image = formatted(&layout);
        let s = layout.slot_addr(0);
        image.insert(s + OFF_ADDR, layout.heap_base);
        image.insert(s + OFF_OLD, 7);
        image.insert(s + OFF_TXID, 1);
        image.insert(s + OFF_CSUM, 12345); // wrong
        image.insert(layout.heap_base, 99);
        let r = undo(&mut image, &layout);
        assert!(matches!(
            r.outcome,
            RecoveryOutcome::Quarantined { entries: 1, .. }
        ));
        assert_eq!(image[&layout.heap_base], 99);
    }
}
