//! Recovery triage under arbitrary at-rest corruption.
//!
//! The triage engine (`ede_nvm::triage`) promises a typed verdict for
//! *any* byte-level state of an NVM image: damage is repaired from
//! redundancy, quarantined, or declared unrecoverable — never silently
//! mis-recovered and never a panic. These tests hold it to that promise
//! on crash images drawn from real simulated runs of the crash-safe
//! configurations (B, IQ, WB), plus hand-built images driving each
//! [`RecoveryOutcome`] variant and the scrub pass's byte-range
//! reporting.

use ede_check::corrupt::{corrupt, CorruptOptions};
use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_nvm::log::{
    checksum, classify_marker, header_word, MarkerCopy, MAGIC, OFF_ADDR, OFF_CSUM, OFF_MAGIC,
    OFF_OLD, OFF_TXID,
};
use ede_nvm::recovery::NvmImage;
use ede_nvm::triage::{recover, scrub, Protocol};
use ede_nvm::{Layout, RecoveryOutcome, RegionClass};
use ede_sim::{run_workload, SimConfig};
use ede_util::rng::{mix64, SmallRng};
use ede_workloads::{update::Update, WorkloadParams};

const SAFE: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// Crash images from a real run of the `update` kernel: one per
/// requested crash point, evenly spaced over the run's persist cycles,
/// merged with the initial pool contents exactly as the crash checker
/// does.
fn crash_images(arch: ArchConfig, n: usize) -> (Layout, Vec<NvmImage>) {
    let sim = SimConfig::a72();
    let p = WorkloadParams {
        ops: 30,
        ops_per_tx: 10,
        array_elems: 64,
        ..WorkloadParams::default()
    };
    let r = run_workload(&Update, &p, arch, &sim).unwrap();
    let layout = r.output.layout;
    let mut cycles: Vec<u64> = r.trace.persists.iter().map(|p| p.cycle).collect();
    cycles.sort_unstable();
    cycles.dedup();
    let images = (0..n)
        .map(|i| {
            let c = cycles[(i * (cycles.len() - 1)) / n.max(1)];
            let mut image = nvm_image_at(&r.trace, c, 64);
            for &(a, v) in r.output.init_writes.iter() {
                image.entry(a).or_insert(v);
            }
            image
        })
        .collect();
    (layout, images)
}

/// A formatted-but-empty image: magic on both header lines, nothing
/// committed, no entries — what a fresh pool file looks like.
fn formatted(layout: &Layout) -> NvmImage {
    let mut image = NvmImage::default();
    image.insert(layout.log_header + OFF_MAGIC, MAGIC);
    image.insert(layout.log_header_twin + OFF_MAGIC, MAGIC);
    image
}

fn put_entry(image: &mut NvmImage, layout: &Layout, slot: u64, addr: u64, old: u64, txid: u64) {
    let s = layout.slot_addr(slot);
    image.insert(s + OFF_ADDR, addr);
    image.insert(s + OFF_OLD, old);
    image.insert(s + OFF_TXID, txid);
    image.insert(s + OFF_CSUM, checksum(addr, old, txid));
}

#[test]
fn arbitrary_corruption_never_panics() {
    // Fully arbitrary damage: random words anywhere in the image's
    // address range scribbled with random values (or erased). Triage
    // must return a verdict on every one of them.
    for arch in SAFE {
        let (layout, images) = crash_images(arch, 4);
        let mut rng = SmallRng::seed_from_u64(mix64(0x000A_11D0 ^ arch as u64));
        for pristine in &images {
            let mut addrs: Vec<u64> = pristine.keys().copied().collect();
            addrs.sort_unstable();
            for _ in 0..50 {
                let mut image = pristine.clone();
                for _ in 0..rng.gen_range(1u64..6) {
                    // Half the scribbles hit existing words, half land on
                    // arbitrary aligned addresses (absent words included).
                    let addr = if rng.gen_bool(0.5) && !addrs.is_empty() {
                        addrs[rng.gen_range(0usize..addrs.len())]
                    } else {
                        layout.nvm_base + rng.gen_range(0u64..1 << 21) * 8
                    };
                    if rng.gen_bool(0.2) {
                        image.remove(&addr);
                    } else {
                        image.insert(addr, rng.gen::<u64>());
                    }
                }
                let report = recover(&mut image, &layout, Protocol::Undo);
                // The verdict is typed; its display never panics either.
                let _ = format!("{} / {}", report.outcome, report.outcome.label());
            }
        }
    }
}

#[test]
fn superblock_scribbles_with_one_surviving_copy_recover_exactly() {
    // Damage confined to ONE of the two header lines: the twin
    // redundancy must make recovery exact — same committed id, every
    // heap word equal to golden recovery of the undamaged image — and
    // the claim must stay strong (never Unrecoverable).
    for arch in SAFE {
        let (layout, images) = crash_images(arch, 3);
        let mut rng = SmallRng::seed_from_u64(mix64(0x5B5C ^ arch as u64));
        for pristine in &images {
            let mut golden = pristine.clone();
            let golden_report = recover(&mut golden, &layout, Protocol::Undo);
            assert!(golden_report.outcome.is_strong_claim());
            for case in 0..40 {
                // Alternate which copy takes the damage; the other line
                // survives untouched.
                let line = if case % 2 == 0 {
                    layout.log_header
                } else {
                    layout.log_header_twin
                };
                let mut image = pristine.clone();
                for _ in 0..rng.gen_range(1u64..4) {
                    let w = rng.gen_range(0u64..8) * 8;
                    image.insert(line + w, rng.gen::<u64>());
                }
                let mut recovered = image;
                let report = recover(&mut recovered, &layout, Protocol::Undo);
                if report.outcome.is_strong_claim() {
                    assert_eq!(report.committed, golden_report.committed, "{arch}");
                    for (&a, &v) in golden.iter().filter(|(&a, _)| a >= layout.heap_base) {
                        assert_eq!(
                            recovered.get(&a).copied().unwrap_or(0),
                            v,
                            "{arch}: heap word {a:#x} diverged under a strong claim"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn torn_single_header_is_always_repaired_from_the_twin() {
    // The flagship repair: any tear of the primary commit marker — any
    // value that no longer validates — is healed to exactly the twin's
    // word, and the whole image recovers byte-equal to golden.
    for arch in SAFE {
        let (layout, images) = crash_images(arch, 3);
        let mut rng = SmallRng::seed_from_u64(mix64(0x7032 ^ arch as u64));
        for pristine in &images {
            let mut golden = pristine.clone();
            let golden_report = recover(&mut golden, &layout, Protocol::Undo);
            if golden_report.committed == 0 {
                continue; // nothing committed yet: no marker to tear
            }
            for _ in 0..25 {
                let torn = loop {
                    let v = rng.gen::<u64>();
                    if classify_marker(v) == MarkerCopy::Corrupt {
                        break v;
                    }
                };
                let mut recovered = pristine.clone();
                recovered.insert(layout.log_header, torn);
                let report = recover(&mut recovered, &layout, Protocol::Undo);
                assert!(
                    matches!(report.outcome, RecoveryOutcome::RepairedTorn { .. }),
                    "{arch}: torn primary {torn:#x} gave {:?}",
                    report.outcome
                );
                assert_eq!(report.committed, golden_report.committed);
                assert_eq!(
                    recovered, golden,
                    "{arch}: repaired image must equal golden"
                );
                let sb = report.region_covering(layout.log_header).unwrap();
                assert_eq!(sb.class, RegionClass::Repaired);
            }
        }
    }
}

#[test]
fn campaign_contract_holds_across_kinds_and_safe_archs() {
    // The full taxonomy through the campaign's own contract machinery
    // (panic-freedom, differential strong claims with the documented
    // carve-outs, region accounting), one seeded case per cell.
    let report = corrupt(&CorruptOptions {
        seed: 0xCA5E,
        cases: 1,
        archs: SAFE.to_vec(),
        ..CorruptOptions::default()
    });
    assert!(report.contract_holds(), "{:?}", report.failure);
    assert_eq!(report.cells.len(), 7 * 3);
    assert!(report.cells.iter().all(|c| c.total() == 1));
}

// ---- one unit test per RecoveryOutcome variant ----

#[test]
fn outcome_clean_on_an_undamaged_idle_image() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    image.insert(layout.log_header, header_word(2));
    image.insert(layout.log_header_twin, header_word(2));
    let r = recover(&mut image, &layout, Protocol::Undo);
    assert_eq!(r.outcome, RecoveryOutcome::Clean);
    assert_eq!(r.committed, 2);
}

#[test]
fn outcome_rolled_back_restores_the_pre_image() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    let x = layout.heap_base;
    put_entry(&mut image, &layout, 0, x, 7, 1); // tx 1 never committed
    image.insert(x, 99);
    let r = recover(&mut image, &layout, Protocol::Undo);
    assert_eq!(r.outcome, RecoveryOutcome::RolledBack { entries: 1 });
    assert_eq!(image[&x], 7);
}

#[test]
fn outcome_repaired_torn_heals_in_place() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    image.insert(layout.log_header, header_word(3) ^ (1 << 50)); // bit rot
    image.insert(layout.log_header_twin, header_word(3));
    let r = recover(&mut image, &layout, Protocol::Undo);
    assert_eq!(r.outcome, RecoveryOutcome::RepairedTorn { entries: 0 });
    assert_eq!(r.committed, 3);
    assert_eq!(image[&layout.log_header], header_word(3));
}

#[test]
fn outcome_quarantined_when_the_sole_witness_is_lost() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    image.insert(layout.log_header, header_word(3));
    image.insert(layout.log_header_twin, 0x0BAD_F00D); // twin destroyed
    let r = recover(&mut image, &layout, Protocol::Undo);
    match &r.outcome {
        RecoveryOutcome::Quarantined { entries, reason } => {
            assert!(*entries >= 1);
            assert!(reason.contains("twin"), "{reason}");
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert!(!r.outcome.is_strong_claim());
}

#[test]
fn outcome_unrecoverable_leaves_the_image_untouched() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    image.insert(layout.log_header + OFF_MAGIC, 0x1111); // both magics gone
    image.insert(layout.log_header_twin + OFF_MAGIC, 0x2222);
    image.insert(layout.heap_base, 42);
    let before = image.clone();
    let r = recover(&mut image, &layout, Protocol::Undo);
    match &r.outcome {
        RecoveryOutcome::Unrecoverable { diagnosis } => {
            assert!(diagnosis.contains("magic"), "{diagnosis}");
        }
        other => panic!("expected Unrecoverable, got {other:?}"),
    }
    assert_eq!(image, before, "no mutation on an unrecoverable image");
}

// ---- scrub ----

#[test]
fn scrub_reports_byte_ranges_without_mutating() {
    let layout = Layout::standard();
    let mut image = formatted(&layout);
    image.insert(layout.log_header, header_word(1));
    image.insert(layout.log_header_twin, header_word(1));
    // A committed entry plus garbage beyond the 32-byte entry of slot 3.
    put_entry(&mut image, &layout, 0, layout.heap_base, 5, 1);
    let bad_slot = layout.slot_addr(3);
    image.insert(bad_slot + 40, 0xDEAD);
    let before = image.clone();

    let r = scrub(&image, &layout, Protocol::Undo);
    assert_eq!(image, before, "scrub must not write");

    // Every region is a well-formed byte range, and the garbage word is
    // covered by a quarantined one naming the slot.
    for region in &r.regions {
        assert!(region.start < region.end, "{region:?}");
    }
    let hit = r
        .region_covering(bad_slot + 40)
        .expect("garbage word covered");
    assert_eq!(hit.class, RegionClass::Quarantined);
    assert_eq!((hit.start, hit.end), (bad_slot, bad_slot + 64));
    assert!(hit.detail.contains("slot 3"), "{}", hit.detail);
    // The valid entry's slot and the header lines are reported too.
    assert!(r.region_covering(layout.slot_addr(0)).is_some());
    assert!(r.region_covering(layout.log_header).is_some());
    assert_eq!(r.count(RegionClass::Quarantined), 1);
}
