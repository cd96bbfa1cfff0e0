//! Metrics-document goldens.
//!
//! `tests/golden/metrics/digests.txt` holds one row per metrics
//! document: its length in bytes and an FNV-1a-64 digest of its bytes.
//! The documents are
//!
//! * the `ede.metrics.v1` document (`metrics_json`) of each Table II
//!   application on all five architectures at small sizes, and
//! * the campaign registries — fuzz's `campaign_metrics` and the
//!   `metrics()` of an inject, corrupt and explore report — at tiny
//!   budgets.
//!
//! The other metrics checks (`fastforward_differential`, the
//! repeat-stability tests, the CI `--jobs` diff) compare two outputs of
//! the same build, so a renamed or misspelled metric passes all of them.
//! This table compares against a stored copy: any change to a metric's
//! name, kind or value, or to the document layout, changes a row.
//!
//! To regenerate after an *intentional* metrics change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test metrics_golden
//! git diff tests/golden/metrics/   # review every changed row
//! ```

use ede_check::fuzz::campaign_metrics;
use ede_check::{
    corrupt, explore, inject, CorruptOptions, ExploreOptions, FuzzOptions, InjectOptions, Source,
};
use ede_isa::ArchConfig;
use ede_sim::{metrics_json, run_workload, SimConfig};
use ede_util::diff::unified_diff;
use ede_workloads::{standard_suite, WorkloadParams};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/metrics/digests.txt"
    ))
}

/// FNV-1a, 64-bit, over a document's bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(table: &mut String, name: &str, doc: &str) {
    let _ = writeln!(
        table,
        "{name} {} {:016x}",
        doc.len(),
        fnv1a64(doc.as_bytes())
    );
}

#[test]
fn metrics_documents_are_pinned() {
    let sim = SimConfig::a72();
    let params = WorkloadParams {
        ops: 20,
        ops_per_tx: 10,
        prepopulate: 64,
        array_elems: 512,
        mispredict_rate: 0.05,
        ..WorkloadParams::default()
    };
    let mut table = format!(
        "# metrics documents: apps at ops {} ops_per_tx {} prepopulate {} array_elems {} \
         mispredict_rate {} seed {}; campaigns at tiny budgets\n\
         # document bytes fnv1a64(document)\n",
        params.ops,
        params.ops_per_tx,
        params.prepopulate,
        params.array_elems,
        params.mispredict_rate,
        params.seed,
    );
    for w in standard_suite() {
        for arch in ArchConfig::ALL {
            let r = run_workload(w.as_ref(), &params, arch, &sim)
                .unwrap_or_else(|e| panic!("{} on {arch}: {e}", w.name()));
            row(
                &mut table,
                &format!("{}.{}", w.name(), arch.label()),
                &metrics_json(&r),
            );
        }
    }

    let fuzz_opts = FuzzOptions {
        seed: 0xF022,
        cases: 6,
        max_cmds: 20,
        jobs: 1,
        ..FuzzOptions::default()
    };
    row(
        &mut table,
        "fuzz.campaign_metrics",
        &campaign_metrics(&fuzz_opts, fuzz_opts.cases, fuzz_opts.cases).to_json(),
    );

    let injected = inject(&InjectOptions {
        cases: 1,
        max_cmds: 12,
        jobs: 1,
        ..InjectOptions::default()
    });
    row(&mut table, "inject.metrics", &injected.metrics().to_json());

    let corrupted = corrupt(&CorruptOptions {
        cases: 1,
        jobs: 1,
        ..CorruptOptions::default()
    });
    row(
        &mut table,
        "corrupt.metrics",
        &corrupted.metrics().to_json(),
    );

    let explored = explore(&ExploreOptions {
        source: Source::Litmus(vec!["two_update".to_string(), "hazard".to_string()]),
        jobs: 1,
        ..ExploreOptions::default()
    })
    .expect("explore runs");
    row(&mut table, "explore.metrics", &explored.metrics().to_json());

    let path = golden_path();
    if std::env::var_os("EDE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &table).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — run `EDE_BLESS=1 cargo test -p ede-check \
             --test metrics_golden` to create it",
            path.display()
        )
    });
    assert!(
        golden == table,
        "metrics documents changed:\n{}\n\
         (if the change is intentional, re-bless with EDE_BLESS=1)",
        unified_diff(&golden, &table, "golden", "live"),
    );
}
