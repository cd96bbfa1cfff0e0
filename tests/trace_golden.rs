//! Golden-trace snapshot tests.
//!
//! Every named litmus program (`ede_check::litmus`) has a checked-in
//! rendering of its pipeline event stream under B, IQ, and WB — the
//! snapshots in `tests/golden/`. A behavioral change to dispatch,
//! issue, retire, EDK tracking, or the persist path shows up here as a
//! unified diff against the blessed stream, cycle by cycle.
//!
//! To regenerate after an *intentional* pipeline change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test trace_golden
//! git diff tests/golden/   # review every changed line before committing
//! ```

use ede_check::litmus;
use ede_cpu::TracerConfig;
use ede_isa::ArchConfig;
use ede_sim::{raw_output, run_program_observed, SimConfig};
use ede_util::diff::unified_diff;
use std::path::PathBuf;

/// The snapshot directory, anchored to the repo root so the test works
/// from any cargo invocation directory.
fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Renders the live event stream for one (litmus, arch) pair, on the
/// fast-forward or reference simulation path.
fn live_trace_on(name: &str, arch: ArchConfig, fast_forward: bool) -> String {
    let program = litmus::program(name).expect(name);
    // Capacity far above any litmus program's event count: snapshots
    // must never silently truncate from the front of the run.
    let cfg = TracerConfig {
        capacity: 1 << 20,
        ..TracerConfig::default()
    };
    let mut sim = SimConfig::a72();
    sim.cpu.fast_forward = fast_forward;
    let (result, tracer) = run_program_observed(name, raw_output(program.clone()), arch, &sim, cfg)
        .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
    assert_eq!(tracer.dropped(), 0, "{name} on {arch}: ring overflowed");
    format!(
        "# {name} on {} — {} cycles, {} retired, {} persists\n{}",
        arch.label(),
        result.cycles,
        result.retired,
        result.trace.persists.len(),
        litmus::render_events(&program, tracer.events())
    )
}

fn check_snapshot(name: &str, arch: ArchConfig) {
    // The default (fast-forward) path is what blessing records; the
    // reference per-cycle path must render the identical stream — the
    // snapshots double as a differential fixture, no re-blessing needed
    // when toggling the kernel.
    let live = live_trace_on(name, arch, true);
    let path = golden_dir().join(format!("{name}.{}.txt", arch.label()));
    if std::env::var_os("EDE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &live).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}) — run `EDE_BLESS=1 cargo test -p ede-check \
             --test trace_golden` to create it",
            path.display()
        )
    });
    assert!(
        golden == live,
        "golden trace mismatch for {name} on {}:\n{}\n\
         (if the pipeline change is intentional, re-bless with EDE_BLESS=1)",
        arch.label(),
        unified_diff(&golden, &live, "golden", "live"),
    );
    let reference = live_trace_on(name, arch, false);
    assert!(
        golden == reference,
        "reference-path trace mismatch for {name} on {}:\n{}\n\
         (the fast-forward kernel and the per-cycle path diverged)",
        arch.label(),
        unified_diff(&golden, &reference, "golden", "reference"),
    );
}

macro_rules! golden_tests {
    ($($fn_name:ident: $litmus:literal on $arch:ident;)+) => {$(
        #[test]
        fn $fn_name() {
            check_snapshot($litmus, ArchConfig::$arch);
        }
    )+};
}

golden_tests! {
    two_update_b:    "two_update"    on Baseline;
    two_update_iq:   "two_update"    on IssueQueue;
    two_update_wb:   "two_update"    on WriteBuffer;
    fenced_update_b:  "fenced_update" on Baseline;
    fenced_update_iq: "fenced_update" on IssueQueue;
    fenced_update_wb: "fenced_update" on WriteBuffer;
    hazard_b:    "hazard"   on Baseline;
    hazard_iq:   "hazard"   on IssueQueue;
    hazard_wb:   "hazard"   on WriteBuffer;
    join_b:      "join"     on Baseline;
    join_iq:     "join"     on IssueQueue;
    join_wb:     "join"     on WriteBuffer;
    wait_all_b:  "wait_all" on Baseline;
    wait_all_iq: "wait_all" on IssueQueue;
    wait_all_wb: "wait_all" on WriteBuffer;
}

/// Snapshots must cover exactly the litmus catalog — a new named
/// program without a golden test (or a stale macro entry) fails here.
#[test]
fn catalog_is_fully_snapshotted() {
    assert_eq!(
        litmus::NAMES,
        ["two_update", "fenced_update", "hazard", "join", "wait_all"],
        "litmus catalog changed: update the golden_tests! list and re-bless"
    );
}
