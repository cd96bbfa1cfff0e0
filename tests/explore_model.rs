//! Cross-validation of the bounded-exhaustive crash-state explorer.
//!
//! Two families of checks (tier-1):
//!
//! * **Litmus catalog sweep** — every fenced idiom in
//!   `ede_check::litmus` must be *proved* crash-consistent on B, IQ,
//!   and WB within the default budget, and every idiom must yield a
//!   shrunk counterexample under the ordering fault that voids the
//!   mechanism it relies on (`weak-dsb` for the fence-ordered idioms,
//!   `drop-edeps` for the dependence-ordered ones).
//! * **Explorer/fuzzer agreement** — the explorer and the differential
//!   fuzzer consume identical seed streams, so on the same generated
//!   programs a clean exhaustive proof must coincide with a clean fuzz
//!   campaign, and every counterexample the explorer reports must
//!   re-fail the model oracle deterministically
//!   ([`ede_check::explore::reproduces`]).

use ede_check::explore::{self, ExploreOptions, Source, Verdict};
use ede_check::fuzz::{fuzz, FuzzOptions};
use ede_check::litmus;
use ede_isa::ArchConfig;
use ede_mem::FaultInjection;

/// The crash-safe trio the acceptance criteria name.
const ARCHS: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// For each litmus idiom, the statically modelable ordering fault that
/// breaks it: the fence-ordered idioms die when `DSB SY` stops ordering
/// older persists (`weak-dsb`), the dependence-ordered idioms die when
/// declared execution dependences are dropped (`drop-edeps`).
const BREAKING_FAULT: [(&str, FaultInjection); 5] = [
    ("two_update", FaultInjection::WeakDsb),
    ("fenced_update", FaultInjection::WeakDsb),
    ("hazard", FaultInjection::DropEdeps),
    ("join", FaultInjection::DropEdeps),
    ("wait_all", FaultInjection::DropEdeps),
];

fn catalog_opts() -> ExploreOptions {
    ExploreOptions {
        archs: ARCHS.to_vec(),
        ..ExploreOptions::default()
    }
}

#[test]
fn every_litmus_idiom_is_proved_on_every_arch() {
    let report = explore::explore(&catalog_opts()).expect("catalog explores");
    assert_eq!(
        report.cells.len(),
        litmus::NAMES.len() * ARCHS.len(),
        "one cell per (idiom, arch)"
    );
    for c in &report.cells {
        assert_eq!(
            c.verdict,
            Verdict::Proved,
            "{}/{} not proved: truncated={} impl_diffs={:?} cx={:?}",
            c.name,
            c.arch.label(),
            c.truncated,
            c.impl_diffs,
            c.counterexample.as_ref().map(|cx| &cx.detail),
        );
        assert!(!c.truncated, "{}/{} hit a budget", c.name, c.arch.label());
        assert!(c.states > 0 && c.crash_points == c.states);
    }
    // The sweep covers the whole catalog — a new idiom without coverage
    // (or a stale BREAKING_FAULT entry) fails here.
    let swept: Vec<&str> = BREAKING_FAULT.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        litmus::NAMES,
        *swept,
        "litmus catalog changed: update BREAKING_FAULT"
    );
}

#[test]
fn multi_persist_idioms_exercise_sleep_set_pruning() {
    let report = explore::explore(&catalog_opts()).expect("catalog explores");
    for name in ["two_update", "join", "wait_all"] {
        let c = report
            .cells
            .iter()
            .find(|c| c.name == name)
            .expect("cell present");
        assert!(
            c.pruned > 0,
            "{name} has independent persists; sleep sets must prune (got {})",
            c.pruned
        );
        // Each distinct crash state is visited exactly once: the search
        // tree is exactly a spanning tree of the ideal lattice.
        assert_eq!(c.expanded, c.states - 1, "{name}: revisited a state");
    }
}

#[test]
fn every_idiom_yields_a_shrunk_counterexample_under_its_breaking_fault() {
    for (name, fault) in BREAKING_FAULT {
        let opts = ExploreOptions {
            source: Source::Litmus(vec![name.to_string()]),
            fault: Some(fault),
            archs: vec![ArchConfig::WriteBuffer],
            ..ExploreOptions::default()
        };
        let report = explore::explore(&opts).expect("explores");
        let again = explore::explore(&opts).expect("explores");
        assert_eq!(
            report.to_json(),
            again.to_json(),
            "{name}: counterexample search must be deterministic"
        );
        let [c] = &report.cells[..] else {
            panic!("{name}: expected exactly one cell")
        };
        assert_eq!(
            c.verdict,
            Verdict::Counterexample,
            "{name} under {} should break",
            fault.label()
        );
        let cx = c.counterexample.as_ref().expect("counterexample recorded");
        assert!(
            !cx.cmds.is_empty(),
            "{name}: reproducer must survive shrinking"
        );
        assert_ne!(
            cx.missing, 0,
            "{name}: a mandated predecessor must be missing"
        );
        assert!(
            explore::reproduces(&cx.cmds, Some(fault), opts.max_events),
            "{name}: shrunk reproducer {:?} no longer fails the oracle",
            cx.cmds
        );
    }
}

#[test]
fn hazard_survives_weak_dsb_because_its_ordering_is_a_dependence() {
    // The converse direction of the sweep: an idiom whose ordering never
    // relies on the faulted mechanism must still be *proved* under the
    // fault — counterexamples may only come from genuine relaxations.
    let opts = ExploreOptions {
        source: Source::Litmus(vec!["hazard".to_string()]),
        fault: Some(FaultInjection::WeakDsb),
        archs: vec![ArchConfig::WriteBuffer],
        ..ExploreOptions::default()
    };
    let report = explore::explore(&opts).expect("explores");
    assert_eq!(report.cells[0].verdict, Verdict::Proved);
}

#[test]
fn exhaustive_proof_agrees_with_the_fuzzer_on_generated_programs() {
    // Same seed, same case count, same generator stream: the explorer
    // proves every reachable crash state of each program clean *and*
    // cross-checks the pipeline against the model, so the differential
    // fuzzer must find nothing on the identical programs.
    let seed = 0xE0E_CA5E;
    let cases = 6;
    let max_cmds = 10;
    let opts = ExploreOptions {
        source: Source::Generated { cases },
        seed,
        max_cmds,
        archs: ARCHS.to_vec(),
        ..ExploreOptions::default()
    };
    let report = explore::explore(&opts).expect("generated programs explore");
    assert_eq!(report.cells.len(), cases as usize * ARCHS.len());
    for c in &report.cells {
        assert_eq!(
            c.verdict,
            Verdict::Proved,
            "{}/{}: fault-free exploration must prove (impl_diffs={:?})",
            c.name,
            c.arch.label(),
            c.impl_diffs,
        );
    }
    let fr = fuzz(&FuzzOptions {
        seed,
        cases,
        max_cmds,
        archs: ARCHS.to_vec(),
        ..FuzzOptions::default()
    });
    assert_eq!(fr.cases_run, cases);
    assert!(
        fr.failure.is_none(),
        "fuzzer disagreed with the explorer's proof: {:?}",
        fr.failure.map(|f| f.diffs)
    );
}

#[test]
fn tx_crash_states_all_recover_through_undo() {
    // The transactional source checks recovery (not just ordering):
    // every enumerated crash image must recover to a prefix-consistent
    // state under the undo log's recovery procedure.
    let opts = ExploreOptions {
        source: Source::Tx { cases: 2 },
        seed: 7,
        archs: vec![ArchConfig::Baseline, ArchConfig::WriteBuffer],
        ..ExploreOptions::default()
    };
    let report = explore::explore(&opts).expect("tx programs explore");
    assert_eq!(report.cells.len(), 4);
    for c in &report.cells {
        assert_eq!(
            c.verdict,
            Verdict::Proved,
            "{}/{}: {:?}",
            c.name,
            c.arch.label(),
            c.counterexample.as_ref().map(|cx| &cx.detail),
        );
        assert!(c.states > 1, "tx programs persist more than once");
    }
}

#[test]
fn reproduces_rejects_unmodelable_faults_and_clean_programs() {
    let clean = litmus::cmds("fenced_update").expect("catalog idiom");
    // A fenced program is no reproducer at all without a fault...
    assert!(!explore::reproduces(&clean, None, 16));
    // ...is one under the fence-voiding fault...
    assert!(explore::reproduces(
        &clean,
        Some(FaultInjection::WeakDsb),
        16
    ));
    // ...and timing-dependent faults have no static model to fail.
    assert!(!explore::reproduces(
        &clean,
        Some(FaultInjection::TornStp),
        16
    ));
}
