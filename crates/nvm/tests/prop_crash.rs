//! Property tests for undo logging and recovery.

use ede_isa::ArchConfig;
use ede_nvm::log::{
    checksum, decode_entry, header_word, resolve_marker, LogEntry, MAGIC, OFF_ADDR, OFF_CSUM,
    OFF_MAGIC, OFF_OLD, OFF_TXID,
};
use ede_nvm::recovery::NvmImage;
use ede_nvm::redo::OFF_APPLIED;
use ede_nvm::triage::{recover, Protocol, RecoveryOutcome};
use ede_nvm::{CrashChecker, Layout, TxWriter};
use ede_util::check::{self, any};
use ede_util::{prop_assert, prop_assert_eq, prop_assume, property};

/// Undo or redo recovery the slow way: resolve the markers, probe every
/// slot of the array, select and order the entries, apply them.
fn every_slot_reference(image: &NvmImage, layout: &Layout, protocol: Protocol) -> (u64, NvmImage) {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let marker =
        |off: u64| resolve_marker(rd(layout.log_header + off), rd(layout.log_header_twin + off));
    let (committed, applied) = (marker(0), marker(OFF_APPLIED));
    let mut entries: Vec<LogEntry> = (0..layout.log_slots)
        .filter_map(|i| decode_entry(layout.slot_addr(i), rd))
        .filter(|e| match protocol {
            Protocol::Undo => e.txid > committed,
            _ => e.txid > applied && e.txid <= committed,
        })
        .collect();
    match protocol {
        Protocol::Undo => entries.sort_by_key(|e| std::cmp::Reverse(e.txid)),
        _ => entries.sort_by_key(|e| e.txid),
    }
    let mut out = image.clone();
    for e in entries {
        out.insert(e.addr, e.old);
    }
    (committed, out)
}

property! {
    /// Recovery is idempotent: running it twice gives the same image.
    fn recovery_is_idempotent(
        words in check::vec((0u64..512, any::<u64>()), 0..64),
        header in 0u64..5
    ) {
        let layout = Layout::standard();
        let mut image: NvmImage = words
            .into_iter()
            .map(|(w, v)| (layout.nvm_base + w * 8, v))
            .collect();
        image.insert(layout.log_header, header);
        for line in [layout.log_header, layout.log_header_twin] {
            image.insert(line + OFF_MAGIC, MAGIC);
        }
        let mut twice = image.clone();
        let r1 = recover(&mut image, &layout, Protocol::Undo);
        let _ = recover(&mut twice, &layout, Protocol::Undo);
        let r2 = recover(&mut twice, &layout, Protocol::Undo);
        prop_assert_eq!(r1.committed, r2.committed);
        prop_assert_eq!(&image, &twice);
        prop_assert!(
            !matches!(
                r2.outcome,
                RecoveryOutcome::RolledBack { .. } | RecoveryOutcome::RepairedTorn { .. }
            ),
            "second pass has nothing to undo or repair: {}",
            r2.outcome
        );
    }

    /// The one-pass slot walk recovers exactly what probing every slot
    /// does, for undo and redo. Slots may be partial, hold explicitly
    /// stored zero words or trailing garbage, and share transaction ids;
    /// slots 16 and 17 lie just past the 16-slot array and must be
    /// ignored.
    fn slot_walk_matches_every_slot_reference(
        slots in check::vec((0u64..18, 1u64..5, any::<u64>(), 0u64..20), 0..24),
        committed in 0u64..5,
        applied in 0u64..5
    ) {
        let mut layout = Layout::standard();
        layout.log_slots = 16;
        let mut image = NvmImage::new();
        for line in [layout.log_header, layout.log_header_twin] {
            image.insert(line + OFF_MAGIC, MAGIC);
            if committed > 0 {
                image.insert(line, header_word(committed));
            }
            if applied > 0 {
                image.insert(line + OFF_APPLIED, header_word(applied));
            }
        }
        for (slot, txid, value, shape) in slots {
            let (word, form) = (shape % 4, shape / 4);
            let s = layout.log_base + slot * 64;
            let addr = layout.heap_base + word * 8;
            match form {
                // Partial: the entry's first half only.
                1 => {
                    image.insert(s + OFF_ADDR, addr);
                    image.insert(s + OFF_OLD, value);
                }
                // Explicitly stored zero words, nothing else.
                2 => {
                    image.insert(s + OFF_TXID, 0);
                    image.insert(s + 48, 0);
                }
                _ => {
                    image.insert(s + OFF_ADDR, addr);
                    image.insert(s + OFF_OLD, value);
                    image.insert(s + OFF_TXID, txid);
                    image.insert(s + OFF_CSUM, checksum(addr, value, txid));
                    match form {
                        3 => image.insert(s + 40, 0),        // stored zero after the entry
                        4 => image.insert(s + 56, value | 1), // trailing garbage
                        _ => None,
                    };
                }
            }
            image.insert(addr, value.rotate_left(7));
        }
        for protocol in [Protocol::Undo, Protocol::Redo] {
            let (want_committed, want) = every_slot_reference(&image, &layout, protocol);
            let mut got = image.clone();
            let report = recover(&mut got, &layout, protocol);
            prop_assert_eq!(report.committed, want_committed, "{:?}", protocol);
            prop_assert_eq!(&got, &want, "{:?}", protocol);
        }
    }

    /// For any sequence of transactional writes, the final functional
    /// memory is consistent with the transaction record, and a "crash"
    /// after full persistence recovers to the final state.
    fn full_persistence_recovers_to_final_state(
        tx_sizes in check::vec(1usize..6, 1..6),
        values in check::vec((0u64..8, any::<u64>()), 1..30)
    ) {
        let layout = Layout::standard();
        let mut tx = TxWriter::new(layout, ArchConfig::Baseline);
        let base = tx.heap_alloc(8 * 8, 64);
        for i in 0..8 {
            tx.write_init(base + i * 8, 1000 + i);
        }
        tx.finish_init();

        let mut vals = values.into_iter();
        let mut any_tx = false;
        for size in tx_sizes {
            let mut batch = Vec::new();
            for _ in 0..size {
                match vals.next() {
                    Some(v) => batch.push(v),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            any_tx = true;
            tx.begin_tx();
            for (slot, v) in batch {
                tx.write(base + slot * 8, v);
            }
            tx.commit_tx();
        }
        prop_assume!(any_tx);
        let out = tx.finish();

        // Build a fully-persisted image: every functional word written
        // during the run, persisted at the end.
        let mut image: NvmImage = out.memory.iter().map(|(&a, &v)| (a, v)).collect();
        let r = recover(&mut image, &layout, Protocol::Undo);
        prop_assert_eq!(r.committed, out.records.len() as u64);
        prop_assert_eq!(r.outcome, RecoveryOutcome::Clean, "all transactions committed");
        for rec in &out.records {
            for &(addr, _, _) in &rec.writes {
                prop_assert_eq!(image[&addr], out.memory.read(addr));
            }
        }
    }

    /// The crash checker accepts the trivial "everything persisted in
    /// program order" trace for any write pattern, and flags an image
    /// where a committed transaction's write is replaced by garbage.
    fn checker_detects_corruption(
        writes in check::vec((0u64..4, 1u64..1000), 1..10)
    ) {
        let layout = Layout::standard();
        let mut tx = TxWriter::new(layout, ArchConfig::Baseline);
        let base = tx.heap_alloc(4 * 8, 64);
        for i in 0..4 {
            tx.write_init(base + i * 8, 7 + i);
        }
        tx.finish_init();
        tx.begin_tx();
        for &(slot, v) in &writes {
            tx.write(base + slot * 8, v);
        }
        tx.commit_tx();
        let out = tx.finish();
        let checker = CrashChecker::new(&out);

        // An honest, in-order persist trace.
        use ede_mem::trace::{PersistEvent, PersistTrace, StoreEvent};
        let mut trace = PersistTrace::default();
        let mut cycle = 1;
        for (&addr, &v) in out.memory.iter() {
            trace.record_store(StoreEvent { cycle, addr, width: 8, value: [v, 0] });
            cycle += 1;
        }
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(&a, _)| a & !63).collect();
        for line in lines {
            trace.record_persist(PersistEvent { cycle, line });
            cycle += 1;
        }
        prop_assert!(checker.check_at(&trace, cycle).is_ok());

        // Corrupt the last committed write's persisted value.
        let (addr, _, _) = *out.records[0].writes.last().expect("nonempty");
        let mut corrupted = trace.clone();
        corrupted.record_store(StoreEvent {
            cycle,
            addr,
            width: 8,
            value: [u64::MAX, 0],
        });
        corrupted.record_persist(PersistEvent { cycle: cycle + 1, line: addr & !63 });
        prop_assert!(checker.check_at(&corrupted, cycle + 1).is_err());
    }
}
