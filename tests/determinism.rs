//! The simulator is a deterministic function of (workload, params, arch,
//! sim config): two runs with the same seed must agree on every observable
//! statistic, bit for bit. This is what makes `EDE_PROPTEST_SEED` replay
//! lines and the paper's figure scripts trustworthy.

use ede_isa::ArchConfig;
use ede_sim::{run_workload, RunResult, SimConfig};
use ede_workloads::update::Update;
use ede_workloads::WorkloadParams;

fn run_once(seed: u64, arch: ArchConfig) -> RunResult {
    let params = WorkloadParams {
        ops: 120,
        ops_per_tx: 10,
        seed,
        array_elems: 64,
        prepopulate: 32,
        mispredict_rate: 0.05,
        zipf_theta: None,
    };
    run_workload(&Update, &params, arch, &SimConfig::a72()).expect("run completes")
}

fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.workload, b.workload);
    assert_eq!(a.arch, b.arch);
    assert_eq!(a.cycles, b.cycles, "total cycles diverged");
    assert_eq!(a.tx_cycles, b.tx_cycles, "tx-phase cycles diverged");
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.squashes, b.squashes);
    assert_eq!(a.attribution, b.attribution);
    assert_eq!(a.issue_hist, b.issue_hist);
    assert_eq!(a.nvm_occupancy, b.nvm_occupancy);
    assert_eq!(a.mem_stats, b.mem_stats);
    assert_eq!(a.timings, b.timings, "per-instruction timings diverged");
    assert_eq!(a.trace.stores, b.trace.stores, "store events diverged");
    assert_eq!(
        a.trace.persists, b.trace.persists,
        "persist events diverged"
    );
    assert_eq!(
        a.output.program.len(),
        b.output.program.len(),
        "generated programs diverged"
    );
}

/// The undo-logging workload, run twice with the same seed, produces
/// byte-identical statistics under every architecture configuration.
#[test]
fn same_seed_same_stats() {
    for arch in ArchConfig::ALL {
        let a = run_once(0xDEC0_DE00, arch);
        let b = run_once(0xDEC0_DE00, arch);
        assert_identical(&a, &b);
    }
}

/// Distinct seeds actually change the generated work (guards against the
/// seed being silently ignored, which would make `same_seed_same_stats`
/// vacuous).
#[test]
fn different_seeds_differ() {
    let a = run_once(1, ArchConfig::Baseline);
    let b = run_once(2, ArchConfig::Baseline);
    assert_ne!(
        (a.cycles, a.trace.stores.len()),
        (b.cycles, b.trace.stores.len()),
        "seed has no observable effect"
    );
}
