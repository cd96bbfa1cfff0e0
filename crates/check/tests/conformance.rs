//! Conformance regressions and the tier-1 fuzz smoke.
//!
//! Every `regression_*` case is a minimal program the differential fuzzer
//! produced during development (seed and hunt noted per case), frozen
//! here so the exact shape stays covered forever. Each must conform on
//! every crash-safe configuration — and, where the program was found
//! hunting an injected pipeline bug, must *fail* once that bug is
//! re-injected, proving the axiom that caught it still catches it.

use ede_check::explore::relaxation_for;
use ede_check::fuzz::{diff_case, fuzz, FuzzOptions};
use ede_check::gen::{cmds_strategy, concretize, Cmd};
use ede_core::ordering::{check, OrderRelaxation};
use ede_cpu::FaultInjection;
use ede_isa::ArchConfig;
use ede_sim::{raw_output, run_program, SimConfig};
use ede_util::check::Strategy;
use ede_util::rng::SmallRng;

const CRASH_SAFE: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// Asserts the command list conforms on every crash-safe configuration.
fn assert_conforms(cmds: &[Cmd]) {
    for arch in CRASH_SAFE {
        let diffs = diff_case(cmds, arch, None);
        assert!(diffs.is_empty(), "{arch}: {diffs:?}");
    }
}

/// Asserts at least one crash-safe configuration fails under the fault.
fn assert_fault_caught(cmds: &[Cmd], fault: FaultInjection) {
    let caught = CRASH_SAFE
        .iter()
        .any(|&arch| !diff_case(cmds, arch, Some(fault)).is_empty());
    assert!(caught, "injected {fault:?} went undetected on {cmds:?}");
}

/// Fuzzer-found (seed 0, case 0, DropEdeps hunt): an EDE consumer store
/// followed by `WAIT_ALL_KEYS`. The wait depends on the store's
/// completion (its write-buffer drain), which a pipeline that drops
/// dependence registration lets it overtake.
#[test]
fn regression_consumer_store_wait_all_keys() {
    let cmds = [Cmd::Store { slot: 0, key: 1 }, Cmd::WaitAllKeys];
    assert_conforms(&cmds);
    assert_fault_caught(&cmds, FaultInjection::DropEdeps);
}

/// Fuzzer-found (seed 0, case 2, WeakDsb hunt): a load on the same NVM
/// line as a later store + cvap. This caught a *checker* bug — the
/// golden model leaked load-learned initial memory into its persist
/// image — so it pins the oracle, not the pipeline.
#[test]
fn regression_learned_word_shares_persisted_line() {
    assert_conforms(&[
        Cmd::Load { slot: 9, key: 1 },
        Cmd::Store { slot: 8, key: 1 },
        Cmd::Cvap { slot: 8, key: 1 },
    ]);
}

/// Fuzzer-found (seed 0, case 5, WeakDsb hunt): store → `DSB SY` →
/// `WAIT_KEY`. The wait executes the moment issue lets it, so a DSB that
/// retires without draining the store lets the wait's effect precede the
/// store's completion.
#[test]
fn regression_store_dsb_wait_key() {
    let cmds = [
        Cmd::Store { slot: 0, key: 0 },
        Cmd::DsbSy,
        Cmd::WaitKey { key: 1 },
    ];
    assert_conforms(&cmds);
    assert_fault_caught(&cmds, FaultInjection::WeakDsb);
}

/// The paper's Figure 7 shape: cvap producing a key, store consuming it,
/// with aliasing stores on both lines around it.
#[test]
fn regression_figure7_pair_with_aliasing() {
    assert_conforms(&[
        Cmd::Store { slot: 0, key: 0 },
        Cmd::Cvap { slot: 0, key: 1 },
        Cmd::Store { slot: 8, key: 1 },
        Cmd::Store { slot: 0, key: 0 }, // realias the flushed line
        Cmd::Cvap { slot: 8, key: 0 },
    ]);
}

/// Key reuse: the same key produced twice, consumed between and after —
/// each consumer must link to the *latest* producer only.
#[test]
fn regression_key_reuse_latest_producer() {
    assert_conforms(&[
        Cmd::Cvap { slot: 0, key: 2 },
        Cmd::Store { slot: 1, key: 2 },
        Cmd::Cvap { slot: 2, key: 2 },
        Cmd::Store { slot: 3, key: 2 },
        Cmd::WaitKey { key: 2 },
    ]);
}

/// Key-exhaustion pressure: every live key produced back-to-back, then
/// a `JOIN` over two of them and a global wait.
#[test]
fn regression_key_exhaustion_join() {
    let mut cmds: Vec<Cmd> = (1..16)
        .map(|key| Cmd::Cvap {
            slot: key % 12,
            key,
        })
        .collect();
    cmds.push(Cmd::Join {
        def: 1,
        use1: 14,
        use2: 15,
    });
    cmds.push(Cmd::Store { slot: 0, key: 1 });
    cmds.push(Cmd::WaitAllKeys);
    assert_conforms(&cmds);
}

/// Fence interleavings: `DMB ST` and `DMB SY` between aliasing stores,
/// a store pair astride them, and a trailing full barrier.
#[test]
fn regression_fence_interleaving() {
    assert_conforms(&[
        Cmd::Store { slot: 4, key: 0 },
        Cmd::DmbSt,
        Cmd::StorePair { slot: 4, key: 0 },
        Cmd::DmbSy,
        Cmd::Load { slot: 4, key: 0 },
        Cmd::Store { slot: 4, key: 0 },
        Cmd::DsbSy,
    ]);
}

/// A mispredicted branch squashing over live EDE state: the EDM must
/// recover such that the post-squash consumer still links correctly.
#[test]
fn regression_squash_over_live_keys() {
    assert_conforms(&[
        Cmd::Cvap { slot: 0, key: 3 },
        Cmd::Branch { mispredicted: true },
        Cmd::Store { slot: 1, key: 3 },
        Cmd::Compute { n: 2 },
        Cmd::Cvap { slot: 1, key: 3 },
        Cmd::WaitKey { key: 3 },
    ]);
}

/// The tier-1 smoke: a small seeded budget on every crash-safe
/// configuration. CI runs the 200-case release-mode version via
/// `ede-sim fuzz`; this keeps `cargo test` self-contained.
#[test]
fn fuzz_smoke() {
    let report = fuzz(&FuzzOptions {
        seed: 0xEDE,
        cases: 30,
        max_cmds: 30,
        ..FuzzOptions::default()
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// The acceptance-criteria demonstration in miniature: an injected
/// pipeline bug is found and shrunk to a ≤10-instruction reproducer.
#[test]
fn injected_bug_shrinks_to_tiny_reproducer() {
    for fault in [FaultInjection::DropEdeps, FaultInjection::WeakDsb] {
        let report = fuzz(&FuzzOptions {
            cases: 60,
            max_cmds: 40,
            fault: Some(fault),
            ..FuzzOptions::default()
        });
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("{fault:?} undetected"));
        assert!(
            failure.program.len() <= 10,
            "{fault:?}: minimal program has {} instructions",
            failure.program.len()
        );
    }
}

/// One edge enumeration feeds both oracles, so a fault's
/// `OrderRelaxation` must describe what the faulted pipeline still
/// honors. Under each statically modelable fault, every generated
/// program's observed timing respects the relaxed edges: the explorer's
/// relaxed `PersistDag`, which closes those edges, over-approximates the
/// faulty pipeline. The full edges still catch the fault somewhere, so
/// the relaxation only drops edges the fault really breaks.
#[test]
fn fault_relaxation_binds_the_faulty_pipeline() {
    let strat = cmds_strategy(40);
    for fault in [FaultInjection::DropEdeps, FaultInjection::WeakDsb] {
        let relax = relaxation_for(Some(fault)).expect("statically modelable fault");
        let mut sim = SimConfig::a72();
        sim.cpu.fault = Some(fault);
        let mut rng = SmallRng::seed_from_u64(0xEDE);
        let mut caught = 0;
        for case in 0..60 {
            let program = concretize(&strat.generate(&mut rng).value);
            for arch in CRASH_SAFE {
                let r = run_program("relax", raw_output(program.clone()), arch, &sim)
                    .unwrap_or_else(|e| panic!("{fault:?} case {case} on {arch}: {e}"));
                let relaxed = check(&program, &r.timings, relax);
                assert!(
                    relaxed.is_empty(),
                    "{fault:?} case {case} on {arch}: {relaxed:?}"
                );
                caught +=
                    usize::from(!check(&program, &r.timings, OrderRelaxation::NONE).is_empty());
            }
        }
        assert!(caught > 0, "{fault:?} never broke a full-axiom edge");
    }
}
