//! Property tests for the post-retirement write buffer's ordering rules.

use ede_cpu::wb::{WbEntry, WbKind, WriteBuffer};
use ede_isa::InstId;
use ede_util::check::{self, CaseResult, Just, Strategy};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};

#[derive(Clone, Copy, Debug)]
enum Entry {
    Store { line: u8, src: Option<u8> },
    Cvap { line: u8, src: Option<u8> },
    Join { src1: Option<u8>, src2: Option<u8> },
    Barrier,
}

fn src_strategy() -> impl Strategy<Value = Option<u8>> {
    prop_oneof![Just(None::<u8>), (0u8..24).prop_map(Some)]
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    prop_oneof![
        (0u8..6, src_strategy()).prop_map(|(line, src)| Entry::Store { line, src }),
        (0u8..6, src_strategy()).prop_map(|(line, src)| Entry::Cvap { line, src }),
        (src_strategy(), src_strategy()).prop_map(|(src1, src2)| Entry::Join { src1, src2 }),
        Just(Entry::Barrier),
    ]
}

fn addr_of(line: u8) -> u64 {
    0x1_0000_0000 + u64::from(line) * 64
}

/// Whatever enters the buffer, it fully drains (no stuck entries)
/// once sources clear, and every drain decision respects the rules:
/// clear tags, same-line order, and the store barrier.
fn drains_and_respects_rules_impl(entries: &[Entry]) -> CaseResult {
    let mut wb = WriteBuffer::new(entries.len());
    // Tags may reference arbitrary producer ids (1000+i), cleared in
    // a fixed schedule below.
    let mut tags: Vec<InstId> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let id = InstId(i as u64);
        let tag = |s: Option<u8>, tags: &mut Vec<InstId>| {
            s.map(|x| {
                let t = InstId(1000 + u64::from(x));
                tags.push(t);
                t
            })
        };
        match *e {
            Entry::Store { line, src } => {
                let s = tag(src, &mut tags);
                wb.push(
                    id,
                    WbKind::Store {
                        addr: addr_of(line),
                        width: 8,
                        value: [1, 0],
                    },
                    [s, None],
                );
            }
            Entry::Cvap { line, src } => {
                let s = tag(src, &mut tags);
                wb.push(
                    id,
                    WbKind::Cvap {
                        addr: addr_of(line),
                    },
                    [s, None],
                );
            }
            Entry::Join { src1, src2 } => {
                let a = tag(src1, &mut tags);
                let b = tag(src2, &mut tags);
                wb.push(id, WbKind::Join, [a, b]);
            }
            Entry::Barrier => {
                wb.push(id, WbKind::StBarrier, [None, None]);
            }
        }
    }

    let mut steps = 0;
    let mut pending_tags = tags;
    while !wb.is_empty() {
        steps += 1;
        prop_assert!(steps < 10_000, "write buffer live-locked");
        // Validate drainable decisions against an oracle over the
        // current entries.
        let snapshot: Vec<_> = wb.entries().to_vec();
        let mut drainable = Vec::new();
        wb.drainable(64, &mut drainable);
        for id in &drainable {
            let idx = snapshot.iter().position(|e| e.id == *id).expect("listed");
            let e = &snapshot[idx];
            prop_assert!(e.srcs.iter().all(Option::is_none), "tagged entry drained");
            if let Some(a) = e.kind.addr() {
                let same_line_older = snapshot[..idx]
                    .iter()
                    .any(|o| o.kind.addr().is_some_and(|b| b / 64 == a / 64));
                prop_assert!(!same_line_older, "same-line order violated");
            }
            if matches!(e.kind, WbKind::Store { .. }) {
                let barrier_older = snapshot[..idx]
                    .iter()
                    .any(|o| matches!(o.kind, WbKind::StBarrier));
                prop_assert!(!barrier_older, "store drained past a barrier");
            }
        }
        // Make progress: complete one drainable entry, finish
        // controls, and clear one outstanding tag.
        let mut progressed = false;
        if let Some(&first) = drainable.first() {
            wb.mark_draining(first);
            wb.complete(first);
            progressed = true;
        }
        let mut finished = Vec::new();
        wb.take_finished_controls(&mut finished);
        if !finished.is_empty() {
            progressed = true;
        }
        if let Some(t) = pending_tags.pop() {
            wb.clear_src(t);
            progressed = true;
        }
        prop_assert!(progressed, "no progress possible with entries left");
    }
    Ok(())
}

/// The drain rule written out as a fresh O(n²) scan: memory entries
/// with clear tags that are not draining, not stores behind a `DMB ST`
/// token, and (unless `reorder`) with no older entry on their line.
fn reference_drainable(entries: &[WbEntry], draining: &[InstId], reorder: bool) -> Vec<InstId> {
    let line_of = |e: &WbEntry| e.kind.addr().map(|a| a / 64);
    let mut out = Vec::new();
    let mut barrier_seen = false;
    for (i, e) in entries.iter().enumerate() {
        match e.kind {
            WbKind::StBarrier => {
                barrier_seen = true;
                continue;
            }
            WbKind::Join => continue,
            WbKind::Store { .. } | WbKind::Cvap { .. } => {}
        }
        if draining.contains(&e.id) || e.srcs.iter().any(Option::is_some) {
            continue;
        }
        if barrier_seen && matches!(e.kind, WbKind::Store { .. }) {
            continue;
        }
        let line = line_of(e);
        if !reorder && entries[..i].iter().any(|o| line_of(o) == line) {
            continue;
        }
        out.push(e.id);
    }
    out
}

/// Random pushes, tag clears, drain starts, completions and control
/// removals: after every one the cached drain list equals a fresh scan.
fn cached_drain_list_matches_fresh_scan_impl(ops: &[(u8, u8, u8)], reorder: bool) -> CaseResult {
    let mut wb = WriteBuffer::new(16);
    wb.set_reorder_same_line(reorder);
    let mut draining: Vec<InstId> = Vec::new();
    let mut next = 0u64;
    let (mut cached, mut finished) = (Vec::new(), Vec::new());
    // Tags name six producers, so clears often hit several entries.
    let tag = |b: u8| (!b.is_multiple_of(3)).then(|| InstId(1000 + u64::from(b % 6)));
    for &(op, a, b) in ops {
        let entries = wb.entries();
        match op % 6 {
            0 | 1 if wb.has_space() => {
                let addr = 0x1_0000_0000 + u64::from(a % 5) * 64 + u64::from(a % 2) * 8;
                let kind = match a % 8 {
                    0..=3 => WbKind::Store {
                        addr,
                        width: 8,
                        value: [1, 0],
                    },
                    4 | 5 => WbKind::Cvap { addr },
                    6 => WbKind::Join,
                    _ => WbKind::StBarrier,
                };
                let srcs = match kind {
                    WbKind::StBarrier => [None, None],
                    WbKind::Join => [tag(b), tag(b / 6)],
                    _ => [tag(b), None],
                };
                wb.push(InstId(next), kind, srcs);
                next += 1;
            }
            2 => wb.clear_src(InstId(1000 + u64::from(a % 6))),
            3 => {
                // Start draining a waiting memory entry, eligible or not.
                let waiting: Vec<InstId> = entries
                    .iter()
                    .filter(|e| e.kind.addr().is_some() && !draining.contains(&e.id))
                    .map(|e| e.id)
                    .collect();
                if !waiting.is_empty() {
                    let id = waiting[usize::from(a) % waiting.len()];
                    wb.mark_draining(id);
                    draining.push(id);
                }
            }
            4 => {
                if !draining.is_empty() {
                    let id = draining.remove(usize::from(a) % draining.len());
                    wb.complete(id);
                }
            }
            _ => wb.take_finished_controls(&mut finished),
        }
        wb.drainable(64, &mut cached);
        prop_assert_eq!(
            &cached,
            &reference_drainable(wb.entries(), &draining, reorder)
        );
    }
    Ok(())
}

property! {
    fn cached_drain_list_matches_fresh_scan(
        ops in check::vec((0u8..6, check::any::<u8>(), check::any::<u8>()), 1..200),
        reorder in check::any::<bool>()
    ) {
        cached_drain_list_matches_fresh_scan_impl(&ops, reorder)?;
    }

    fn buffer_always_drains_and_respects_rules(
        entries in check::vec(entry_strategy(), 1..24)
    ) {
        drains_and_respects_rules_impl(&entries)?;
    }

    /// Capacity is strictly enforced and `has_space` is accurate.
    fn capacity_accounting(n in 1usize..16) {
        let mut wb = WriteBuffer::new(n);
        for i in 0..n {
            prop_assert!(wb.has_space());
            wb.push(InstId(i as u64), WbKind::Join, [None, None]);
        }
        prop_assert!(!wb.has_space());
        prop_assert_eq!(wb.len(), n);
    }
}
