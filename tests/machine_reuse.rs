//! Machine-reuse differential suite.
//!
//! `run_program` keeps one core and memory system per thread (after
//! programs of up to 1024 instructions, which every member here is) and
//! resets them in place for every run. The contract is that reuse is invisible:
//! a run on a thread that has already run other programs — on other
//! architectures and cache geometries, with other persist-buffer sizes
//! and injected faults, traced or not, and ending in errors mid-flight —
//! must produce byte-identical output to the same run on a fresh thread,
//! whose first run builds a new machine.
//!
//! Each sequence below runs its members one after another on the test's
//! thread, then runs every member again on a thread of its own, and
//! compares the two: the `RunResult` Debug text, the metrics document,
//! the persist trace, the tracer stream, or the error.

use ede_check::gen::{cmds_strategy, concretize};
use ede_cpu::TracerConfig;
use ede_isa::{ArchConfig, TraceBuilder};
use ede_mem::config::CacheConfig;
use ede_mem::FaultInjection;
use ede_nvm::redo::RedoTxWriter;
use ede_nvm::{Layout, TxOutput, TxWriter};
use ede_sim::{metrics_json, raw_output, run_program, run_program_observed, RunResult, SimConfig};
use ede_util::check::Strategy;
use ede_util::rng::SmallRng;
use ede_workloads::{update::Update, Workload, WorkloadParams};

/// One run request.
struct Member {
    output: TxOutput,
    arch: ArchConfig,
    sim: SimConfig,
    tracer: Option<TracerConfig>,
}

/// What the member's run changes relative to the one before it, for the
/// coverage assertions.
#[derive(Default)]
struct Coverage {
    errors: usize,
    deadlocks: usize,
    geometry_changes: usize,
    slot_changes: usize,
    fault_changes: usize,
    traced: usize,
    untraced: usize,
    apps: usize,
    tx_programs: usize,
    bursts: usize,
}

/// Everything a run shows to its caller, as text.
fn observe(m: &Member) -> String {
    let text = |r: &RunResult| format!("{r:?}\n{}\n{:?}\n", metrics_json(r), r.trace);
    match m.tracer {
        None => match run_program("reuse", m.output.clone(), m.arch, &m.sim) {
            Ok(r) => text(&r),
            Err(e) => format!("error {e:?}"),
        },
        Some(cfg) => match run_program_observed("reuse", m.output.clone(), m.arch, &m.sim, cfg) {
            Ok((r, tr)) => format!(
                "{}dropped {}\n{:?}\n",
                text(&r),
                tr.dropped(),
                tr.events().collect::<Vec<_>>()
            ),
            Err(e) => format!("error {e:?}"),
        },
    }
}

/// A transaction program shaped like the inject campaign's crash probe:
/// four words, three transactions of two seeded writes, undo- or
/// redo-logged.
fn tx_program(rng: &mut SmallRng, arch: ArchConfig, redo: bool) -> TxOutput {
    macro_rules! build {
        ($tx:expr) => {{
            let mut tx = $tx;
            let base = tx.heap_alloc(4 * 8, 8);
            for i in 0..4u64 {
                tx.write_init(base + i * 8, i + 1);
            }
            tx.finish_init();
            for t in 0..3u64 {
                tx.begin_tx();
                for _ in 0..2 {
                    let word = base + 8 * rng.gen_range(0u64..4);
                    tx.write(word, 100 + t * 100 + rng.gen_range(0u64..90));
                }
                tx.commit_tx();
            }
            tx.finish()
        }};
    }
    if redo {
        build!(RedoTxWriter::new(Layout::standard(), arch))
    } else {
        build!(TxWriter::new(Layout::standard(), arch))
    }
}

/// Cache geometries whose set counts, associativities and latencies all
/// differ, so consecutive runs reshape the caches.
fn geometry(sim: &mut SimConfig, which: usize) {
    let level = |capacity, ways, latency| CacheConfig {
        capacity,
        ways,
        latency,
    };
    let (l1d, l2, l3) = match which {
        0 => return, // Table I
        1 => (level(1024, 2, 1), level(4096, 4, 6), level(16384, 4, 10)),
        _ => (level(512, 1, 2), level(2048, 8, 5), level(8192, 2, 9)),
    };
    sim.mem.l1d = l1d;
    sim.mem.l2 = l2;
    sim.mem.l3 = l3;
}

const FAULTS: [Option<FaultInjection>; 9] = [
    None,
    None,
    None,
    Some(FaultInjection::StuckCvap { nth: 0 }),
    Some(FaultInjection::DropPersist { nth: 1 }),
    Some(FaultInjection::DuplicatePersist),
    Some(FaultInjection::TornStp),
    Some(FaultInjection::DropOneEdep { nth: 2 }),
    Some(FaultInjection::ReorderWriteBuffer),
];

const TRACERS: [Option<TracerConfig>; 4] = [
    None,
    Some(TracerConfig::STAGES),
    Some(TracerConfig {
        capacity: 64,
        sample_every: 7,
    }),
    None,
];

fn member(rng: &mut SmallRng, prev: Option<&Member>, cov: &mut Coverage) -> Member {
    let arch = ArchConfig::ALL[rng.gen_range(0..ArchConfig::ALL.len())];
    let mut cut = rng.gen_range(0u32..6) == 0;
    let output = match rng.gen_range(0u32..10) {
        0..=4 => raw_output(concretize(&cmds_strategy(24).generate(rng).value)),
        5 => {
            // Stores and persists to distinct NVM lines: the write buffer
            // and the persist buffer fill, so a run cut off here leaves
            // both occupied.
            cov.bursts += 1;
            cut |= rng.gen_bool(0.5);
            let mut b = TraceBuilder::new();
            for i in 0..rng.gen_range(8u64..40) {
                let line = 0x1_0000_0000 + 64 * (i * 7 + rng.gen_range(0u64..7));
                b.store(line, i + 1);
                if rng.gen_bool(0.5) {
                    b.cvap(line);
                }
            }
            b.dsb_sy();
            raw_output(b.finish())
        }
        6 | 7 => {
            cov.tx_programs += 1;
            let redo = rng.gen_bool(0.5);
            tx_program(rng, arch, redo)
        }
        _ => {
            cov.apps += 1;
            let params = WorkloadParams {
                ops: 8,
                ops_per_tx: 4,
                array_elems: 64,
                seed: rng.gen_range(0u64..1000),
                ..WorkloadParams::default()
            };
            Update.generate(&params, arch)
        }
    };
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim.cpu.watchdog_cycles = 20_000;
    sim.cpu.fast_forward = rng.gen_bool(0.75);
    geometry(&mut sim, rng.gen_range(0usize..3));
    sim.mem.persist_slots = [128, 8, 2][rng.gen_range(0usize..3)];
    let fault = FAULTS[rng.gen_range(0..FAULTS.len())];
    sim.cpu.fault = fault;
    sim.mem.fault = fault;
    if cut {
        // Cut the run off mid-flight, leaving the machine full.
        sim.max_cycles = rng.gen_range(20u64..2000);
    }
    let tracer = TRACERS[rng.gen_range(0..TRACERS.len())];
    if let Some(p) = prev {
        cov.geometry_changes += usize::from(p.sim.mem.l1d != sim.mem.l1d);
        cov.slot_changes += usize::from(p.sim.mem.persist_slots != sim.mem.persist_slots);
        cov.fault_changes += usize::from(p.sim.mem.fault != sim.mem.fault);
    }
    if tracer.is_some() {
        cov.traced += 1;
    } else {
        cov.untraced += 1;
    }
    Member {
        output,
        arch,
        sim,
        tracer,
    }
}

#[test]
fn a_kept_machine_runs_like_a_fresh_one() {
    let mut cov = Coverage::default();
    for seq in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seq);
        let mut members: Vec<Member> = Vec::new();
        for _ in 0..16 {
            let m = member(&mut rng, members.last(), &mut cov);
            members.push(m);
        }
        // One thread, one machine, every member in turn.
        let reused: Vec<String> = members.iter().map(observe).collect();
        for (i, (m, seen)) in members.into_iter().zip(reused).enumerate() {
            assert!(
                m.output.program.len() <= 1024,
                "member {i} is too long to keep"
            );
            cov.errors += usize::from(seen.starts_with("error"));
            cov.deadlocks += usize::from(seen.starts_with("error Core(Deadlock"));
            // A new thread starts with no machine.
            let fresh = std::thread::spawn(move || observe(&m)).join().unwrap();
            if seen != fresh {
                let at = seen
                    .bytes()
                    .zip(fresh.bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                let near = |s: &str| {
                    let bytes = &s.as_bytes()[at.saturating_sub(300)..(at + 300).min(s.len())];
                    String::from_utf8_lossy(bytes).into_owned()
                };
                panic!(
                    "sequence {seq}, member {i}: the kept machine's run differs from a fresh \
                     machine's at byte {at}\n--- kept ---\n{}\n--- fresh ---\n{}",
                    near(&seen),
                    near(&fresh)
                );
            }
        }
    }
    // The sequences must exercise every transition reuse has to survive.
    assert!(
        cov.errors >= 5 && cov.deadlocks >= 1,
        "{} errors, {} deadlocks",
        cov.errors,
        cov.deadlocks
    );
    assert!(cov.geometry_changes >= 10 && cov.slot_changes >= 10 && cov.fault_changes >= 10);
    assert!(cov.traced >= 10 && cov.untraced >= 10);
    assert!(cov.apps >= 2 && cov.tx_programs >= 5 && cov.bursts >= 5);
}

#[test]
fn a_run_after_a_panicking_run_builds_a_fresh_machine() {
    let mut rng = SmallRng::seed_from_u64(3);
    let m = Member {
        output: raw_output(concretize(&cmds_strategy(24).generate(&mut rng).value)),
        arch: ArchConfig::WriteBuffer,
        sim: SimConfig::a72(),
        tracer: None,
    };
    let before = observe(&m);
    // Three sets is no power of two: resetting the kept machine to this
    // geometry panics halfway, and the run drops the machine it took.
    let mut bad = m.sim.clone();
    bad.mem.l2 = CacheConfig {
        capacity: 3 * 64,
        ways: 1,
        latency: 12,
    };
    let (output, arch) = (m.output.clone(), m.arch);
    let panicked = std::panic::catch_unwind(move || run_program("bad", output, arch, &bad));
    assert!(panicked.is_err());
    assert_eq!(before, observe(&m));
}
