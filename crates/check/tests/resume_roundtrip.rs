//! Property tests for the `ede.checkpoint.v1` document: randomly
//! generated checkpoints must survive a serialize → parse round trip
//! bit-for-bit, and every mismatch axis (format tag, campaign kind,
//! options fingerprint, tampered document) must be rejected with the
//! right typed error.

use ede_check::{
    fuzz, fuzz_campaign, inject_campaign, Checkpoint, FuzzOptions, HarnessPanic, InjectOptions,
    ResumeError, RuntimeOptions,
};
use ede_util::rng::SplitMix64;

/// Strings with every escaping hazard the document writer must handle:
/// quotes, backslashes, control characters, multi-byte UTF-8.
const NASTY: &[&str] = &[
    "",
    "plain",
    "with \"quotes\" and \\backslashes\\",
    "newline\nand\ttab",
    "control \u{1} \u{1f} chars",
    "unicode: žluťoučký 🦀 ∀x∃y",
    "panicked at 'index out of bounds: the len is 3 but the index is 7'",
];

/// Builds a random-but-valid checkpoint: a random done subset, a
/// quarantined subset of the done units, and payloads on another done
/// subset, all in strictly increasing unit order as the writer emits.
fn random_checkpoint(rng: &mut SplitMix64) -> Checkpoint {
    let total = rng.next_u64() % 300;
    let mut cp = Checkpoint::new(
        "fuzz",
        NASTY[(rng.next_u64() % NASTY.len() as u64) as usize],
        rng.next_u64(),
        total,
    );
    for unit in 0..total {
        if !rng.next_u64().is_multiple_of(3) {
            cp.mark_done(unit);
        }
    }
    for unit in 0..total {
        if cp.is_done(unit) && rng.next_u64().is_multiple_of(11) {
            let payload = NASTY[(rng.next_u64() % NASTY.len() as u64) as usize];
            cp.quarantined.push(HarnessPanic {
                unit,
                payload: payload.to_string(),
            });
        }
        if cp.is_done(unit) && rng.next_u64().is_multiple_of(7) {
            let data = NASTY[(rng.next_u64() % NASTY.len() as u64) as usize];
            cp.payloads.push((unit, data.to_string()));
        }
    }
    if total > 0 && rng.next_u64().is_multiple_of(2) {
        cp.earliest_failure = Some(rng.next_u64() % total);
    }
    cp
}

#[test]
fn random_checkpoints_round_trip_through_the_document() {
    let mut rng = SplitMix64::new(0x5eed);
    for case in 0..200 {
        let cp = random_checkpoint(&mut rng);
        let doc = cp.to_json();
        let back = Checkpoint::parse(&doc)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{doc}"));
        assert_eq!(back, cp, "case {case} round trip");
        assert_eq!(back.to_json(), doc, "case {case} fixpoint");
    }
}

#[test]
fn foreign_format_tags_are_rejected() {
    let doc = Checkpoint::new("fuzz", "fp", 1, 4)
        .to_json()
        .replace("ede.checkpoint.v1", "ede.checkpoint.v2");
    match Checkpoint::parse(&doc) {
        Err(ResumeError::Format { found }) => assert_eq!(found, "ede.checkpoint.v2"),
        other => panic!("expected Format error, got {other:?}"),
    }
}

#[test]
fn kind_and_fingerprint_mismatches_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("ede-rt-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cp.json");
    // A fuzz checkpoint with exactly unit 0 done: one worker, stopped
    // after its first unit.
    let base = FuzzOptions {
        cases: 8,
        max_cmds: 10,
        jobs: 1,
        ..FuzzOptions::default()
    };
    let interrupted = fuzz(&FuzzOptions {
        runtime: RuntimeOptions {
            checkpoint_path: Some(path.clone()),
            stop_after_units: Some(1),
            ..RuntimeOptions::default()
        },
        ..base.clone()
    });
    assert!(interrupted.interrupted);
    let cp = Checkpoint::load(&path).expect("load");
    assert!(cp.is_done(0) && !cp.is_done(1));
    assert_eq!(cp.completed(), 1);

    let resume = RuntimeOptions {
        resume_from: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    match inject_campaign(&InjectOptions {
        runtime: resume.clone(),
        ..InjectOptions::default()
    }) {
        Err(ResumeError::Kind { expected, found }) => {
            assert_eq!((expected.as_str(), found.as_str()), ("inject", "fuzz"));
        }
        Err(other) => panic!("expected Kind error, got {other:?}"),
        Ok(_) => panic!("expected Kind error, got a report"),
    }
    let reseeded = FuzzOptions {
        seed: 1,
        runtime: resume.clone(),
        ..base.clone()
    };
    match fuzz_campaign(&reseeded) {
        Err(ResumeError::Fingerprint { expected, found }) => {
            assert_eq!(expected, ede_check::fuzz::fingerprint(&reseeded));
            assert_eq!(found, ede_check::fuzz::fingerprint(&base));
            assert_eq!(found, cp.fingerprint);
        }
        Err(other) => panic!("expected Fingerprint error, got {other:?}"),
        Ok(_) => panic!("expected Fingerprint error, got a report"),
    }
    // The matching campaign resumes from the completed unit and ends
    // exactly where an uninterrupted run does.
    let resumed = fuzz_campaign(&FuzzOptions {
        runtime: resume,
        ..base.clone()
    })
    .expect("matching options resume");
    assert!(!resumed.interrupted);
    assert_eq!(resumed, fuzz(&base));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_documents_are_rejected_not_misread() {
    let mut cp = Checkpoint::new("fuzz", "fp", 7, 70);
    cp.mark_done(3);
    let doc = cp.to_json();
    // Flip the completed count without touching the bitmap.
    let tampered = doc.replace("\"completed\": 1,", "\"completed\": 2,");
    assert_ne!(doc, tampered, "tamper target must exist");
    assert!(matches!(
        Checkpoint::parse(&tampered),
        Err(ResumeError::Corrupt { .. })
    ));
    // Truncated documents are parse errors, not panics.
    for cut in [1, doc.len() / 2, doc.len() - 1] {
        assert!(Checkpoint::parse(&doc[..cut]).is_err(), "cut at {cut}");
    }
}
