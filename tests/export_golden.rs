//! Byte-identity goldens for the two renderings of a run's stage
//! stream: the Chrome-trace timeline (`chrome_trace_json`) and the
//! `pipeview` lane chart.
//!
//! `tests/golden/exports/digests.txt` holds one row per litmus program
//! (`ede_check::litmus`), architecture (B, IQ, WB) and export: the
//! FNV-1a-64 of the rendered text and its length in bytes. The trace
//! snapshots pin the event stream itself; these rows pin what the two
//! exporters make of it. To regenerate after an *intentional* change
//! to either format:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test export_golden
//! git diff tests/golden/exports/   # review every changed row
//! ```

use ede_check::litmus;
use ede_isa::ArchConfig;
use ede_sim::{chrome_trace_json, raw_output, run_program_traced, SimConfig};
use ede_util::diff::unified_diff;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The `pipeview` binary's renderer, compiled into this test.
#[allow(dead_code)]
#[path = "../crates/sim/src/bin/pipeview.rs"]
mod pipeview;

const ARCHS: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// Lane-chart width, the `pipeview` default.
const WIDTH: usize = 72;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/exports/digests.txt"
    ))
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn chrome(name: &str, arch: ArchConfig) -> String {
    let program = litmus::program(name).expect(name);
    let (result, tracer) = run_program_traced(name, raw_output(program), arch, &SimConfig::a72())
        .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
    chrome_trace_json(&result, &tracer)
}

fn lane_chart(name: &str, arch: ArchConfig) -> String {
    let program = litmus::program(name).expect(name);
    pipeview::pipeview(name, &program, arch, WIDTH)
        .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"))
}

#[test]
fn chrome_and_pipeview_digests_are_pinned() {
    let mut table = String::from("# litmus arch export fnv1a64 len\n");
    for name in litmus::NAMES {
        for arch in ARCHS {
            for (export, text) in [
                ("chrome", chrome(name, arch)),
                ("pipeview", lane_chart(name, arch)),
            ] {
                let _ = writeln!(
                    table,
                    "{name} {} {export} {:016x} {}",
                    arch.label(),
                    fnv1a64(text.as_bytes()),
                    text.len()
                );
            }
        }
    }
    let path = golden_path();
    if std::env::var_os("EDE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &table).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}) — run `EDE_BLESS=1 cargo test -p ede-check \
             --test export_golden` to create it",
            path.display()
        )
    });
    assert!(
        golden == table,
        "export digests changed:\n{}\n\
         (if the format change is intentional, re-bless with EDE_BLESS=1)",
        unified_diff(&golden, &table, "golden", "live"),
    );
}
