//! Property tests for the memory hierarchy and the persist buffer.

use ede_mem::nvm::PersistBuffer;
use ede_mem::trace::{nvm_image_at, ImageCursor};
use ede_mem::{MemConfig, MemResp, MemSystem, ReqKind};
use ede_util::check::{self, any, Just, Strategy};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};
use std::collections::HashSet;

#[derive(Clone, Copy, Debug)]
enum BufOp {
    Insert { line: u8 },
    Drain,
}

fn tick(mem: &mut MemSystem, now: u64) -> Vec<MemResp> {
    let mut resps = Vec::new();
    mem.tick(now, &mut resps);
    resps
}

fn buf_op() -> impl Strategy<Value = BufOp> {
    prop_oneof![
        (0u8..32).prop_map(|line| BufOp::Insert { line }),
        Just(BufOp::Drain),
    ]
}

property! {
    /// The persist buffer never exceeds capacity, never loses a write,
    /// and accounts every insert as a merge, a slot, or a queued entry.
    fn persist_buffer_accounting(
        ops in check::vec(buf_op(), 1..200),
        capacity in 1usize..16,
        writers in 1usize..4
    ) {
        let mut buf = PersistBuffer::new(capacity, writers, 256);
        let mut outstanding_media = 0usize;
        let mut persisted = 0u64;
        for op in ops {
            match op {
                BufOp::Insert { line } => {
                    let addr = 0x1_0000_0000 + u64::from(line) * 64;
                    let (outcome, started) = buf.try_insert(addr, 0);
                    outstanding_media += started;
                    if outcome == ede_mem::nvm::InsertOutcome::Persisted {
                        persisted += 1;
                    }
                }
                BufOp::Drain => {
                    if outstanding_media > 0 {
                        let r = buf.media_write_done();
                        outstanding_media -= 1;
                        outstanding_media += r.writes_started;
                        persisted += r.newly_persisted.len() as u64;
                    }
                }
            }
            prop_assert!(buf.occupancy() <= capacity);
        }
        // Drain everything: all queued writes must eventually persist.
        let mut guard = 0;
        while outstanding_media > 0 {
            let r = buf.media_write_done();
            outstanding_media -= 1;
            outstanding_media += r.writes_started;
            persisted += r.newly_persisted.len() as u64;
            guard += 1;
            prop_assert!(guard < 10_000, "drain does not terminate");
        }
        prop_assert_eq!(buf.queued(), 0, "no write left behind");
        let (inserts, _, _) = buf.counters();
        prop_assert_eq!(persisted, inserts, "every insert persisted exactly once");
    }

    /// Every accepted request eventually completes, exactly once.
    fn mem_system_completes_every_request(
        reqs in check::vec((0u8..3, 0u8..24), 1..120)
    ) {
        let cfg = MemConfig::a72_hybrid();
        let mut mem = MemSystem::new(cfg.clone());
        let mut now = 0u64;
        let mut pending: HashSet<u64> = HashSet::new();
        let mut issued = 0u64;
        for (kind, a) in reqs {
            // Tick a little to free MSHRs, then submit.
            for _ in 0..3 {
                now += 1;
                for r in tick(&mut mem, now) {
                    prop_assert!(pending.remove(&r.id.0), "duplicate response");
                }
            }
            let addr = if a % 2 == 0 {
                cfg.dram_base + u64::from(a) * 0x140
            } else {
                cfg.nvm_base + u64::from(a) * 0x140
            };
            let kind = match kind {
                0 => ReqKind::Load,
                1 => ReqKind::StoreDrain { value: [u64::from(a), 0], width: 8 },
                _ => ReqKind::Cvap,
            };
            if let Some(id) = mem.try_access(kind, addr, now) {
                prop_assert!(pending.insert(id.0), "request id reused");
                issued += 1;
            }
        }
        let mut guard = 0u64;
        while !pending.is_empty() || !mem.idle() {
            now += 1;
            for r in tick(&mut mem, now) {
                prop_assert!(pending.remove(&r.id.0), "duplicate response");
            }
            guard += 1;
            prop_assert!(guard < 2_000_000, "memory system hung with {} pending", pending.len());
        }
        prop_assert!(issued > 0);
    }

    /// Image reconstruction against an independent reference. A word is
    /// in the crash image exactly when some store wrote it and its line
    /// persisted afterwards, at or before the crash; its value is the
    /// latest store at or before the line's last such persist (a store
    /// and a persist in the same cycle: the store first). The reference
    /// decodes each store's width itself and searches backwards per word,
    /// where `ImageCursor` replays forwards; 16-byte stores may straddle
    /// the two lines.
    fn image_words_have_provenance(
        events in check::vec((0u8..3, 0u8..16, any::<u64>(), 0u8..3), 1..60),
        crash_at in 0u64..80
    ) {
        use ede_mem::trace::{PersistEvent, PersistTrace, StoreEvent};
        use std::collections::BTreeMap;
        let mut t = PersistTrace::default();
        let mut cycle = 0;
        for (step, slot, value, kind) in events {
            // A step of 0 puts the event in the previous one's cycle.
            cycle += u64::from(step);
            let addr = 0x1_0000_0000 + u64::from(slot) * 8;
            match kind {
                0 => t.record_persist(PersistEvent { cycle, line: addr & !63 }),
                1 => t.record_store(StoreEvent { cycle, addr, width: 8, value: [value, 0] }),
                _ => t.record_store(StoreEvent { cycle, addr, width: 16, value: [value, !value] }),
            }
        }
        let written = |s: &StoreEvent, word: u64| {
            if s.addr == word {
                Some(s.value[0])
            } else if s.width == 16 && s.addr + 8 == word {
                Some(s.value[1])
            } else {
                None
            }
        };
        let mut reference = BTreeMap::new();
        for p in t.persists.iter().filter(|p| p.cycle <= crash_at) {
            for word in (p.line..p.line + 64).step_by(8) {
                let latest = t.stores.iter().rev()
                    .filter(|s| s.cycle <= p.cycle)
                    .find_map(|s| written(s, word));
                if let Some(v) = latest {
                    reference.insert(word, v);
                }
            }
        }
        let image: BTreeMap<u64, u64> = nvm_image_at(&t, crash_at, 64).into_iter().collect();
        prop_assert_eq!(image, reference, "crash at cycle {}", crash_at);
    }

    /// One cursor moved forward through every persist cycle holds, at each
    /// of them, the image a fresh replay from cycle 0 reconstructs. Events
    /// share cycles, stores are 8 or 16 bytes wide, and persists cover two
    /// lines.
    fn cursor_matches_replay_at_every_persist_cycle(
        events in check::vec((0u8..4, 0u8..16, any::<u64>(), any::<bool>()), 1..60)
    ) {
        use ede_mem::trace::{PersistEvent, PersistTrace, StoreEvent};
        let mut t = PersistTrace::default();
        let mut cycle = 0;
        for (step, slot, value, pair) in events {
            // Steps of 0 put several events in one cycle; 3 is a persist.
            cycle += u64::from(step % 3);
            let addr = 0x1_0000_0000 + u64::from(slot & !1) * 8;
            if step == 3 {
                t.record_persist(PersistEvent { cycle, line: addr & !63 });
            } else {
                let width = if pair { 16 } else { 8 };
                t.record_store(StoreEvent { cycle, addr, width, value: [value, !value] });
            }
        }
        let mut cursor = ImageCursor::new(&t, 64);
        for c in t.persist_cycles() {
            prop_assert_eq!(cursor.advance_to(c), &nvm_image_at(&t, c, 64), "cycle {}", c);
        }
    }
}
