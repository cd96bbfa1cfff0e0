//! Property tests for the post-retirement write buffer's ordering rules.

use ede_cpu::wb::{WbKind, WriteBuffer};
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

property! {
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
