//! Timing goldens for the out-of-order core.
//!
//! `tests/golden/core/digests.txt` holds one row per (program, arch):
//! the run's cycle and squash counts plus three FNV-1a-64 digests — of
//! every instruction's `(effect, complete)` timing, of the per-stage
//! stall-attribution table, and of the persist events. Any change to
//! what the pipeline does on any cycle shows up as a changed row.
//!
//! The programs are the six Table II applications on all five
//! architectures at small parameters (with mispredicted branches, so
//! squash repair is exercised), and a fixed batch of seeded litmus
//! fuzzer programs on B, IQ and WB that together cover branches,
//! `DMB ST`/`DMB SY`, `JOIN`, `WAIT_KEY` and `WAIT_ALL_KEYS`.
//!
//! To regenerate after an *intentional* timing change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test core_timing_golden
//! git diff tests/golden/core/   # review every changed row
//! ```

use ede_check::gen::{cmds_strategy, concretize, Cmd};
use ede_cpu::StageId;
use ede_isa::ArchConfig;
use ede_sim::{raw_output, run_program, run_workload, RunResult, SimConfig};
use ede_util::check::Strategy;
use ede_util::diff::unified_diff;
use ede_util::rng::SmallRng;
use ede_workloads::{standard_suite, WorkloadParams};
use std::fmt::Write as _;
use std::path::PathBuf;

const GEN_ARCHS: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// Seeded generator programs in the table.
const GEN_PROGRAMS: u64 = 32;

/// Longest generator program, in commands.
const GEN_MAX_CMDS: usize = 40;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/core/digests.txt"
    ))
}

/// FNV-1a, 64-bit, folded over a stream of words.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn row(table: &mut String, name: &str, r: &RunResult) {
    let timings = fnv1a64(r.timings.iter().flat_map(|t| [t.effect, t.complete]));
    let stalls = fnv1a64(StageId::ALL.iter().flat_map(|&s| {
        let st = r.attribution.stage(s);
        std::iter::once(st.busy).chain(st.breakdown().map(|(_, n)| n))
    }));
    let persists = fnv1a64(r.trace.persists.iter().flat_map(|p| [p.cycle, p.line]));
    let _ = writeln!(
        table,
        "{name} {} {} {} {timings:016x} {stalls:016x} {persists:016x}",
        r.arch.label(),
        r.cycles,
        r.squashes,
    );
}

/// The seeded generator programs, as command lists.
fn gen_programs() -> Vec<Vec<Cmd>> {
    let strat = cmds_strategy(GEN_MAX_CMDS);
    (0..GEN_PROGRAMS)
        .map(|seed| strat.generate(&mut SmallRng::seed_from_u64(seed)).value)
        .collect()
}

#[test]
fn generator_batch_covers_the_ordering_instructions() {
    let cmds: Vec<Cmd> = gen_programs().into_iter().flatten().collect();
    let has = |f: fn(&Cmd) -> bool| cmds.iter().any(f);
    assert!(has(|c| matches!(c, Cmd::Branch { mispredicted: true })));
    assert!(has(|c| matches!(c, Cmd::DmbSt)));
    assert!(has(|c| matches!(c, Cmd::DmbSy)));
    assert!(has(|c| matches!(c, Cmd::Join { .. })));
    assert!(has(|c| matches!(c, Cmd::WaitKey { .. })));
    assert!(has(|c| matches!(c, Cmd::WaitAllKeys)));
}

#[test]
fn core_timing_digests_are_pinned() {
    let sim = SimConfig::a72();
    let params = WorkloadParams {
        ops: 40,
        ops_per_tx: 10,
        prepopulate: 64,
        array_elems: 512,
        mispredict_rate: 0.05,
        ..WorkloadParams::default()
    };
    let mut table = format!(
        "# core timing: apps at ops {} ops_per_tx {} prepopulate {} array_elems {} \
         mispredict_rate {} seed {}; {GEN_PROGRAMS} generator programs of up to \
         {GEN_MAX_CMDS} commands\n\
         # program arch cycles squashes fnv1a64(timings) fnv1a64(stalls) fnv1a64(persists)\n",
        params.ops,
        params.ops_per_tx,
        params.prepopulate,
        params.array_elems,
        params.mispredict_rate,
        params.seed,
    );
    let mut squashes = 0;
    for w in standard_suite() {
        for arch in ArchConfig::ALL {
            let r = run_workload(w.as_ref(), &params, arch, &sim)
                .unwrap_or_else(|e| panic!("{} on {arch}: {e}", w.name()));
            squashes += r.squashes;
            row(&mut table, w.name(), &r);
        }
    }
    assert!(squashes > 0, "the app runs must exercise squash repair");
    for (seed, cmds) in gen_programs().iter().enumerate() {
        let name = format!("gen{seed:02}");
        for arch in GEN_ARCHS {
            let r = run_program(&name, raw_output(concretize(cmds)), arch, &sim)
                .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
            row(&mut table, &name, &r);
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
             --test core_timing_golden` to create it",
            path.display()
        )
    });
    assert!(
        golden == table,
        "core timing changed:\n{}\n\
         (if the timing change is intentional, re-bless with EDE_BLESS=1)",
        unified_diff(&golden, &table, "golden", "live"),
    );
}
