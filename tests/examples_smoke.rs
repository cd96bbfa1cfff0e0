//! Smoke tests: every `examples/*.rs` target runs to completion *and
//! produces non-trivial, fully-attributed results*. Each example is
//! compiled into this test as a `#[path]` module (their `run`/`main`
//! are `pub` for exactly this reason) — which also guarantees the
//! examples keep compiling and keep working as the library APIs evolve.
//!
//! "Non-trivial" closes a real gap: an example that silently degrades
//! into running nothing (empty program, zero retires) used to pass.
//! Every returned [`ede_sim::RunResult`] must now retire instructions,
//! burn cycles, and decompose *all* of them into busy + typed stall
//! causes — zero unexplained stall cycles, on every stage.

use ede_cpu::StageId;
use ede_sim::RunResult;

#[path = "../examples/quickstart.rs"]
mod quickstart;

// The `main` wrappers below are entry points for `cargo run --example`,
// not for this harness — only `run()` is called here (and `main` is a
// one-line `run()` call, so exercising all five would double the suite's
// runtime for no extra coverage; `example_mains_still_run` keeps one).
#[path = "../examples/undo_logging.rs"]
#[allow(dead_code)]
mod undo_logging;

#[path = "../examples/timeline.rs"]
#[allow(dead_code)]
mod timeline;

#[path = "../examples/hazard_pointer.rs"]
#[allow(dead_code)]
mod hazard_pointer;

#[path = "../examples/crash_recovery.rs"]
#[allow(dead_code)]
mod crash_recovery;

/// Every example result must be substantive and fully explained.
fn assert_nontrivial(example: &str, results: &[RunResult]) {
    assert!(!results.is_empty(), "{example}: no runs returned");
    for (i, r) in results.iter().enumerate() {
        let ctx = format!("{example} result {i} ({} on {})", r.workload, r.arch);
        assert!(r.retired > 0, "{ctx}: zero instructions retired");
        assert!(r.cycles > 0, "{ctx}: zero cycles");
        assert!(
            r.attribution.conserved(r.cycles),
            "{ctx}: unexplained stall cycles"
        );
        for stage in StageId::ALL {
            assert_eq!(
                r.attribution.stage(stage).total(),
                r.cycles,
                "{ctx}: stage {} not fully attributed",
                stage.label()
            );
        }
        assert_eq!(
            r.metrics.counter("cpu.retired"),
            r.retired,
            "{ctx}: registry and stats disagree on retires"
        );
    }
}

#[test]
fn quickstart_runs() {
    assert_nontrivial("quickstart", &quickstart::run());
}

#[test]
fn undo_logging_runs() {
    assert_nontrivial("undo_logging", &undo_logging::run());
}

#[test]
fn timeline_runs() {
    assert_nontrivial("timeline", &timeline::run());
}

#[test]
fn hazard_pointer_runs() {
    assert_nontrivial("hazard_pointer", &hazard_pointer::run());
}

#[test]
fn crash_recovery_runs() {
    assert_nontrivial("crash_recovery", &crash_recovery::run());
}

/// The thin `main` wrappers stay exercised too (they are the
/// `cargo run --example` entry points).
#[test]
fn example_mains_still_run() {
    quickstart::main();
}
