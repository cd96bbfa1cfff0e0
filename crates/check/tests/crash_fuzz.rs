//! `CrashChecker` coverage on fuzzer-generated transactional programs.
//!
//! The golden model and the differential fuzzer exercise raw litmus
//! programs; this file closes the loop on the *protocol* level: seeded
//! random undo-logged transactions from `TxWriter`, simulated on every
//! configuration, with the crash checker judging every persist prefix.
//! Crash-safe configurations (B, IQ, WB) must pass everywhere; the
//! deliberately unsafe ones (SU, U) must yield at least one
//! counterexample across the fuzzed set — if they never fail, the
//! checker is vacuous.

use ede_check::golden::{self, GoldenConfig};
use ede_isa::ArchConfig;
use ede_nvm::{Layout, TxOutput, TxWriter};
use ede_sim::{run_program, SimConfig};
use ede_util::rng::SmallRng;

const SLOTS: u64 = 6;

/// A seeded random transactional workload: a few undo-logged
/// transactions over a small heap array, with reads, volatile stores,
/// and branches mixed in to stress the pipeline around the protocol.
fn random_tx_output(arch: ArchConfig, seed: u64) -> TxOutput {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tx = TxWriter::new(Layout::standard(), arch);
    let base = tx.heap_alloc(SLOTS * 8, 64);
    for i in 0..SLOTS {
        tx.write_init(base + i * 8, 100 + i);
    }
    tx.finish_init();

    for _ in 0..(1 + rng.gen_range(0u64..3)) {
        tx.begin_tx();
        for _ in 0..(1 + rng.gen_range(0u64..4)) {
            let slot = rng.gen_range(0..SLOTS);
            tx.write(base + slot * 8, 1 + rng.gen_range(0u64..1_000_000));
            match rng.gen_range(0u64..4) {
                0 => {
                    let _ = tx.read(base + rng.gen_range(0..SLOTS) * 8);
                }
                1 => tx.compute(1 + rng.gen_range(0usize..3)),
                2 => tx.compare_branch(1, 2, rng.gen_range(0u64..4) == 0),
                _ => {}
            }
        }
        tx.commit_tx();
    }
    tx.finish()
}

fn sim() -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim
}

const SEEDS: std::ops::Range<u64> = 0..8;

/// Every crash prefix of every fuzzed transaction recovers
/// consistently on the crash-safe configurations.
#[test]
fn crash_safe_configs_survive_fuzzed_transactions() {
    for seed in SEEDS {
        for arch in ArchConfig::ALL.into_iter().filter(|a| a.is_crash_safe()) {
            let out = random_tx_output(arch, seed);
            let r = run_program("crash-fuzz", out, arch, &sim()).expect("run completes");
            r.crash_consistent()
                .unwrap_or_else(|e| panic!("seed {seed} on {arch}: crash inconsistency {e:?}"));
        }
    }
}

/// The unsafe configurations are not vacuously blessed: across the same
/// fuzzed set, SU or U must produce at least one crash-inconsistent
/// prefix (the paper's §III argument that `DMB ST` alone, or no fences
/// at all, cannot order persists).
#[test]
fn unsafe_configs_yield_a_counterexample() {
    let mut counterexamples = 0usize;
    for seed in SEEDS {
        for arch in [ArchConfig::StoreBarrierUnsafe, ArchConfig::Unsafe] {
            let out = random_tx_output(arch, seed);
            let r = run_program("crash-fuzz", out, arch, &sim()).expect("run completes");
            if r.crash_consistent().is_err() {
                counterexamples += 1;
            }
        }
    }
    assert!(
        counterexamples > 0,
        "SU and U passed every crash prefix — checker is vacuous"
    );
}

/// The golden model agrees with the `TxWriter` functional memory on the
/// final value of every NVM word the program wrote. Register bookkeeping
/// is relaxed (`strict_registers: false`) because `TxWriter` programs
/// use address-computation idioms the in-order model does not track, and
/// DRAM scratch is excluded: the functional model only follows the
/// persistent heap and log.
#[test]
fn golden_model_matches_tx_functional_memory() {
    let cfg = GoldenConfig {
        strict_registers: false,
    };
    let nvm_base = Layout::standard().nvm_base;
    for seed in SEEDS {
        let out = random_tx_output(ArchConfig::Baseline, seed);
        let golden = golden::run(&out.program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: golden model rejected: {e}"));
        let mut compared = 0usize;
        for (&addr, &model) in golden.mem.range(nvm_base..) {
            if out.memory.read(addr) != 0 || model != 0 {
                assert_eq!(
                    model,
                    out.memory.read(addr),
                    "seed {seed}: golden vs functional memory at {addr:#x}"
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "seed {seed}: nothing to compare");
    }
}
