//! Golden snapshot of the `ede.explore.v1` coverage ledger.
//!
//! The full litmus catalog explored fault-free under default budgets
//! has a checked-in ledger, `tests/golden/explore_catalog.json`. Any
//! change to the persist model (event extraction, ordering edges), the
//! sleep-set search (state/expansion/prune counts), or the ledger
//! format itself shows up here as a unified diff against the blessed
//! document. The same bytes must come out of every `--jobs` value and
//! of both the fast-forward and reference simulation paths — the ledger
//! is a pure function of the programs and the axioms, never of
//! scheduling.
//!
//! To regenerate after an *intentional* model or format change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test explore_golden
//! git diff tests/golden/   # review every changed line before committing
//! ```

use ede_check::explore::{explore, ExploreOptions};

#[path = "support/golden.rs"]
mod golden;

/// The blessed configuration: the full catalog, default budgets, the
/// crash-safe trio, fault-free.
fn catalog_ledger(jobs: usize, fast_forward: bool) -> String {
    let opts = ExploreOptions {
        jobs,
        fast_forward,
        ..ExploreOptions::default()
    };
    let report = explore(&opts).expect("catalog explores");
    format!("{}\n", report.to_json())
}

#[test]
fn catalog_ledger_matches_the_blessed_snapshot() {
    let live = catalog_ledger(1, true);
    golden::check(
        &golden::path("explore_catalog.json"),
        &live,
        "explore_golden",
        "the explore ledger",
    );
}

#[test]
fn ledger_is_byte_identical_across_job_counts() {
    let sequential = catalog_ledger(1, true);
    for jobs in [2, 4] {
        assert_eq!(
            sequential,
            catalog_ledger(jobs, true),
            "ledger depends on --jobs {jobs}"
        );
    }
}

#[test]
fn ledger_is_byte_identical_without_fast_forward() {
    assert_eq!(
        catalog_ledger(1, true),
        catalog_ledger(1, false),
        "ledger depends on the fast-forward kernel"
    );
}
