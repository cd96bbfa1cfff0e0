//! Property tests for undo logging and recovery.

use ede_isa::{ArchConfig, Op};
use ede_mem::trace::{nvm_image_at, PersistEvent, PersistTrace, StoreEvent};
use ede_nvm::cow::{decode_root, CowTxWriter};
use ede_nvm::log::{
    checksum, classify_marker, decode_entry, header_word, resolve_marker, LogEntry, MarkerCopy,
    MAGIC, OFF_ADDR, OFF_CSUM, OFF_MAGIC, OFF_OLD, OFF_TXID,
};
use ede_nvm::recovery::NvmImage;
use ede_nvm::redo::{RedoTxWriter, OFF_APPLIED};
use ede_nvm::triage::{recover, replay, Protocol, RecoveryOutcome};
use ede_nvm::{CheckFailure, ConsistencyError, CrashChecker, Layout, TxOutput, TxWriter};
use ede_util::check::{self, any};
use ede_util::{prop_assert, prop_assert_eq, prop_assume, property};
use std::collections::HashMap;

/// Undo or redo recovery the slow way: resolve the markers, probe every
/// slot of the array, select and order the entries, apply them.
fn every_slot_reference(image: &NvmImage, layout: &Layout, protocol: Protocol) -> (u64, NvmImage) {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let marker = |off: u64| {
        resolve_marker(
            rd(layout.log_header + off),
            rd(layout.log_header_twin + off),
        )
    };
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

/// Recovery the slow way, superblock included, or `None` when recovery
/// must refuse the image. A commit-point word pair heals the way the
/// twin-first commit finishes: the primary copy takes the twin's words
/// whenever the twin validates and is newer than the primary reads (a
/// primary that fails validation reads older than any id). Undo and
/// redo also restore a lost magic word from the surviving copy, refuse
/// an image with no magic or with both copies of a marker corrupt, and
/// then apply [`every_slot_reference`]; CoW refuses when neither root
/// line validates.
fn healing_reference(
    image: &NvmImage,
    layout: &Layout,
    protocol: Protocol,
) -> Option<(u64, NvmImage)> {
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let mut healed = image.clone();
    if let Protocol::Cow(meta) = protocol {
        let root = |line: u64| decode_root(rd(line), rd(line + 8));
        let (primary, twin) = (root(meta.root_line), root(meta.root_twin));
        if twin > primary {
            healed.insert(meta.root_line, rd(meta.root_twin));
            healed.insert(meta.root_line + 8, rd(meta.root_twin + 8));
        }
        return Some((primary.max(twin)?, healed));
    }
    let (primary, twin) = (layout.log_header, layout.log_header_twin);
    if rd(primary + OFF_MAGIC) != MAGIC && rd(twin + OFF_MAGIC) != MAGIC {
        return None;
    }
    for line in [primary, twin] {
        healed.insert(line + OFF_MAGIC, MAGIC);
    }
    let id = |word: u64| match classify_marker(word) {
        MarkerCopy::Fresh => Some(0),
        MarkerCopy::Valid(k) => Some(k),
        MarkerCopy::Corrupt => None,
    };
    for &off in protocol.marker_offsets() {
        let (p, t) = (rd(primary + off), rd(twin + off));
        match (id(p), id(t)) {
            (None, None) => return None,
            (p_id, Some(t_id)) if t != 0 && Some(t_id) > p_id => {
                healed.insert(primary + off, t);
            }
            _ => {}
        }
    }
    Some(every_slot_reference(&healed, layout, protocol))
}

/// Damages `image` the way the corrupt campaign's damage kinds do, at
/// `addr`: `kind` 0 flips a bit, 1 tears the word to one half, 2 erases
/// its 512-byte sector, 3 truncates the image from it on, 4 copies
/// another line over its line, 5 and 6 wipe its line to zeros and ones.
/// `r` picks the bit, the half and the copied line.
fn damage(image: &mut NvmImage, kind: u64, addr: u64, r: u64) {
    let line = addr & !63;
    match kind {
        0 => *image.entry(addr).or_default() ^= 1 << (r % 64),
        1 => {
            let keep = if r & 1 == 0 {
                0xFFFF_FFFF
            } else {
                !0xFFFF_FFFF
            };
            *image.entry(addr).or_default() &= keep;
        }
        2 => image.retain(|&a, _| a & !511 != addr & !511),
        3 => image.retain(|&a, _| a < addr),
        4 => {
            let mut lines: Vec<u64> = image.keys().map(|&a| a & !63).collect();
            lines.sort_unstable();
            lines.dedup();
            let Some(&src) = lines.get((r % lines.len().max(1) as u64) as usize) else {
                return;
            };
            for w in (0..64).step_by(8) {
                match image.get(&(src + w)).copied() {
                    Some(v) => image.insert(line + w, v),
                    None => image.remove(&(line + w)),
                };
            }
        }
        _ => {
            let fill = if kind == 5 { 0 } else { u64::MAX };
            for w in (0..64).step_by(8) {
                image.insert(line + w, fill);
            }
        }
    }
}

/// The crash check before it kept its per-image work to the words a run
/// touched: merge the whole preloaded pool into the image, recover, then
/// compare every preloaded word and every written word against the
/// committed prefix (under CoW, the written logical words, read through
/// the recovered root). Reports the lowest mismatching address.
fn merge_everything_check(out: &TxOutput, mut image: NvmImage) -> Result<u64, CheckFailure> {
    let protocol = out.protocol;
    let initial: HashMap<u64, u64> = out.init_writes.iter().copied().collect();
    for (&a, &v) in &initial {
        image.entry(a).or_insert(v);
    }
    let report = recover(&mut image, &out.layout, protocol);
    if let RecoveryOutcome::Unrecoverable { diagnosis } = report.outcome {
        return Err(CheckFailure::Unrecoverable { diagnosis });
    }
    let committed = report.committed;
    let writes = out
        .records
        .iter()
        .flat_map(|r| r.writes.iter().map(|&(a, _, _)| a));
    let (mut expected, mut addrs): (HashMap<u64, u64>, Vec<u64>) = match protocol {
        Protocol::Cow(_) => (HashMap::new(), writes.collect()),
        _ => (
            initial.clone(),
            initial.keys().copied().chain(writes).collect(),
        ),
    };
    for r in out.records.iter().take(committed as usize) {
        for &(a, _, new) in &r.writes {
            expected.insert(a, new);
        }
    }
    addrs.sort_unstable();
    addrs.dedup();
    let rd = |a: u64| image.get(&a).copied().unwrap_or(0);
    let read = |a: u64| match protocol {
        Protocol::Cow(meta) => rd(meta.physical(rd(meta.root_line), a, rd)),
        _ => rd(a),
    };
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

/// A random run of `protocol` (0 undo, 1 redo, 2 CoW): a 16-word heap
/// array with `init` preloaded (undo and redo; CoW preloads its tree),
/// then one transaction per entry of `txs`, each writing `(word, value)`
/// pairs (CoW: word `w` is logical slot `w / 8 % 8`, word `w % 8`).
fn random_output(protocol: u64, init: &[(u64, u64)], txs: &[Vec<(u64, u64)>]) -> TxOutput {
    let layout = Layout::standard();
    let arch = ArchConfig::Baseline;
    if protocol == 2 {
        let mut tx = CowTxWriter::new(layout, arch, 8);
        tx.finish_init();
        for batch in txs {
            tx.begin_tx();
            for &(w, v) in batch {
                tx.write(w / 8 % 8, w % 8, v);
            }
            tx.commit_tx();
        }
        return tx.finish();
    }
    macro_rules! run {
        ($tx:expr) => {{
            let mut tx = $tx;
            let base = tx.heap_alloc(16 * 8, 64);
            for &(w, v) in init {
                tx.write_init(base + w % 16 * 8, v);
            }
            tx.finish_init();
            for batch in txs {
                tx.begin_tx();
                for &(w, v) in batch {
                    tx.write(base + w % 16 * 8, v);
                }
                tx.commit_tx();
            }
            tx.finish()
        }};
    }
    if protocol == 0 {
        run!(TxWriter::new(layout, arch))
    } else {
        run!(RedoTxWriter::new(layout, arch))
    }
}

/// The run as an in-order machine executes it, one instruction per
/// cycle, with the persists whose bit is set in `dropped` (persist `i`
/// reads bit `i % 64`) lost, as if they had not landed yet.
fn in_order_trace(out: &TxOutput, dropped: u64) -> PersistTrace {
    let mut t = PersistTrace::default();
    let mut persists = 0;
    for (id, inst) in out.program.iter() {
        let cycle = id.index() as u64;
        match inst.op {
            Op::Str { addr, value, .. } => {
                t.record_store(StoreEvent {
                    cycle,
                    addr,
                    width: 8,
                    value: [value, 0],
                });
            }
            Op::Stp { addr, values, .. } => {
                t.record_store(StoreEvent {
                    cycle,
                    addr,
                    width: 16,
                    value: values,
                });
            }
            Op::DcCvap { addr, .. } => {
                if dropped >> (persists % 64) & 1 == 0 {
                    t.record_persist(PersistEvent {
                        cycle,
                        line: addr & !63,
                    });
                }
                persists += 1;
            }
            _ => {}
        }
    }
    t
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
        let mut image = NvmImage::default();
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
        let mut image: NvmImage = out.memory.iter().collect();
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
        for (addr, v) in out.memory.iter() {
            trace.record_store(StoreEvent { cycle, addr, width: 8, value: [v, 0] });
            cycle += 1;
        }
        let lines: std::collections::BTreeSet<u64> =
            out.memory.iter().map(|(a, _)| a & !63).collect();
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

    /// The checker gives the same verdict as the merge-everything check
    /// on crash images of random undo, redo and CoW runs: any prefix of an
    /// in-order persist trace, some persists lost, and stray words written
    /// over preloaded and unpreloaded addresses alike.
    fn check_image_matches_the_merge_everything_check(
        run in (0u64..3, check::vec((0u64..16, any::<u64>()), 0..10)),
        txs in check::vec(check::vec((0u64..64, 1u64..1000), 1..4), 1..4),
        crash in (0u64..1000, any::<u64>(), 0u64..3),
        strays in check::vec((any::<u64>(), any::<u64>()), 0..4)
    ) {
        let (protocol, init) = run;
        let out = random_output(protocol, &init, &txs);
        let protocol = out.protocol;
        let (at, mask, lossy) = crash;
        let trace = in_order_trace(&out, if lossy == 0 { 0 } else { mask & mask.rotate_left(17) });
        let cycle = trace.horizon() * at / 999;
        let mut image = nvm_image_at(&trace, cycle, 64);
        // Stray words: a preloaded word, a word the run stored, or one
        // past the heap array no one wrote; half keep the value memory
        // holds there, half take a random one.
        let mut preloaded: Vec<u64> = out.init_writes.iter().map(|&(a, _)| a).collect();
        preloaded.sort_unstable();
        let stored: Vec<u64> = out.memory.iter().map(|(a, _)| a).collect();
        for (pick, value) in strays {
            let addr = match pick % 3 {
                0 => preloaded[(pick / 3) as usize % preloaded.len()],
                1 => stored[(pick / 3) as usize % stored.len()],
                _ => out.layout.heap_base + 0x10_0000 + (pick / 3) % 8 * 8,
            };
            let value = if value % 2 == 0 { out.memory.read(addr) } else { value };
            image.insert(addr, value);
        }
        prop_assert_eq!(
            CrashChecker::new(&out).check_image(image.clone()),
            merge_everything_check(&out, image),
            "{:?} at cycle {}", protocol, cycle
        );
    }

    /// The replay alone and `recover` agree on the committed id, the
    /// unrecoverable diagnosis and the recovered image, for undo, redo
    /// and CoW crash images with the preloaded pool merged in, clean and
    /// damaged by the corrupt campaign's damage kinds (half the damage
    /// aimed at the superblock lines); and both match recovery the slow
    /// way ([`healing_reference`]).
    fn replay_alone_agrees_with_recover(
        run in (0u64..3, check::vec((0u64..16, any::<u64>()), 0..10)),
        txs in check::vec(check::vec((0u64..64, 1u64..1000), 1..4), 1..4),
        at in 0u64..1000,
        hits in check::vec((0u64..7, any::<u64>(), any::<u64>()), 0..3)
    ) {
        let (protocol, init) = run;
        let out = random_output(protocol, &init, &txs);
        let protocol = out.protocol;
        let trace = in_order_trace(&out, 0);
        let mut image = nvm_image_at(&trace, trace.horizon() * at / 999, 64);
        for &(a, v) in out.init_writes.iter() {
            image.entry(a).or_insert(v);
        }
        let (primary, twin) = protocol.superblock(&out.layout);
        for (kind, pick, r) in hits {
            let addr = if pick % 2 == 0 {
                let mut addrs: Vec<u64> = image.keys().copied().collect();
                addrs.sort_unstable();
                match addrs.get((pick / 2 % addrs.len().max(1) as u64) as usize) {
                    Some(&a) => a,
                    None => continue,
                }
            } else {
                [primary, twin][(pick / 2 % 2) as usize] + pick / 4 % 8 * 8
            };
            damage(&mut image, kind, addr, r);
        }
        let mut replayed = image.clone();
        let verdict = replay(&mut replayed, &out.layout, protocol);
        let mut recovered = image.clone();
        let report = recover(&mut recovered, &out.layout, protocol);
        prop_assert_eq!(&replayed, &recovered, "{:?}", protocol);
        match (&verdict, &report.outcome) {
            (Err(d), RecoveryOutcome::Unrecoverable { diagnosis }) => prop_assert_eq!(d, diagnosis),
            (Ok(committed), outcome) => {
                prop_assert!(
                    !matches!(outcome, RecoveryOutcome::Unrecoverable { .. }),
                    "{:?}: replay accepted an image recover refuses", protocol
                );
                prop_assert_eq!(*committed, report.committed, "{:?}", protocol);
            }
            (Err(d), outcome) => {
                prop_assert!(false, "{:?}: replay refused ({}) what recover calls {}", protocol, d, outcome)
            }
        }
        match healing_reference(&image, &out.layout, protocol) {
            Some((committed, want)) => {
                prop_assert_eq!(verdict, Ok(committed), "{:?}", protocol);
                prop_assert_eq!(&replayed, &want, "{:?}", protocol);
            }
            None => {
                prop_assert!(verdict.is_err(), "{:?}: the image must be refused", protocol);
                prop_assert_eq!(&replayed, &image, "{:?}: a refused image is untouched", protocol);
            }
        }
    }
}
