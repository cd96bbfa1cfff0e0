//! Recovery-time experiment: crash a run mid-flight, then measure how
//! long each protocol's recovery takes on the simulated machine — and
//! how fast the recovery *triage* engine (scrub + self-healing
//! recovery) runs on the host, clean vs maximally corrupted, recorded
//! as `BENCH_recovery.json`.
//!
//! Undo recovery scans the whole log region and rolls back; CoW recovery
//! is a constant-time root read. Redo replays committed-but-unapplied
//! entries. The log scan dominates — which is why real systems bound
//! their log sizes. Triage adds classification work on top (marker
//! validation, twin resolution, per-slot checksum checks, region
//! accounting); the artifact pins what that costs in images/second.
//!
//! ```text
//! cargo run --release -p ede-bench --bin recovery [OUTPUT.json]
//! ```
//!
//! Knobs: `EDE_BENCH_SAMPLES` (default 3 samples per configuration).
//! `host_parallelism` is recorded so throughput reads in context.

use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_nvm::recovery::{recovery_trace, NvmImage};
use ede_nvm::triage::{recover, scrub, Protocol};
use ede_nvm::Layout;
use ede_sim::run_workload;
use ede_sim::runner::{raw_output, run_program};
use ede_util::bench::{Criterion, Measurement};
use ede_util::rng::{mix64, SmallRng};
use ede_workloads::update::Update;
use std::time::Duration;

/// Heavy at-rest damage across every region the triage engine walks:
/// bit flips and torn words over existing content, wiped lines in the
/// slot array, and a scribbled primary header — the worst image the
/// corruption campaign's kinds compose into.
fn corrupt_heavily(pristine: &NvmImage, layout: &Layout) -> NvmImage {
    let mut image = pristine.clone();
    let mut rng = SmallRng::seed_from_u64(mix64(0xC0_22_07));
    let mut addrs: Vec<u64> = pristine.keys().copied().collect();
    addrs.sort_unstable();
    for _ in 0..64 {
        let a = addrs[rng.gen_range(0usize..addrs.len())];
        let v = image.get(&a).copied().unwrap_or(0);
        image.insert(a, v ^ (1 << rng.gen_range(0u64..64)));
    }
    for _ in 0..16 {
        let a = addrs[rng.gen_range(0usize..addrs.len())];
        let v = image.get(&a).copied().unwrap_or(0);
        image.insert(a, v & 0xFFFF_FFFF);
    }
    for _ in 0..4 {
        let line = layout.slot_addr(rng.gen_range(0u64..layout.log_slots));
        for w in 0..8 {
            image.insert(line + w * 8, 0);
        }
    }
    image.insert(layout.log_header, rng.gen::<u64>());
    image
}

fn stats_json(m: &Measurement) -> String {
    format!(
        "{{ \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}, \
         \"samples\": {}, \"iters\": {} }}",
        m.mean_ns, m.min_ns, m.max_ns, m.samples, m.iters
    )
}

fn images_per_sec(m: &Measurement) -> f64 {
    1e9 / m.mean_ns
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let cfg = ede_bench::experiment_from_env();
    let mut params = cfg.params;
    params.ops = params.ops.min(300);
    eprintln!("running a baseline run to crash ({} ops)…", params.ops);
    let r = run_workload(&Update, &params, ArchConfig::Baseline, &cfg.sim)
        .expect("run completes");
    let layout = r.output.layout;

    // Crash in the middle of the transaction phase; merge the initial
    // pool contents exactly as the crash checker does (the superblock
    // magic rides in as an init write).
    let crash = r.tx_phase_start_cycle() + r.tx_cycles / 2;
    let mut pristine = nvm_image_at(&r.trace, crash, 64);
    for &(a, v) in &r.output.init_writes {
        pristine.entry(a).or_insert(v);
    }
    println!(
        "crashed the update/B run at cycle {crash}: {} persisted words in the image",
        pristine.len()
    );

    println!("\nrecovery cost by log size (undo log scan + rollback):");
    println!("  {:>9} {:>12} {:>12}", "slots", "insts", "cycles");
    for slots in [256u64, 1024, 8192] {
        let mut l = Layout::standard();
        l.log_slots = slots;
        let trace = recovery_trace(&pristine, &l);
        let insts = trace.len();
        let rr = run_program("recovery", raw_output(trace), ArchConfig::Baseline, &cfg.sim)
            .expect("recovery runs");
        println!("  {:>9} {:>12} {:>12}", slots, insts, rr.cycles);
    }

    // Host-side triage throughput, clean vs maximally corrupted. The
    // corrupted image exercises every slow path at once: header
    // repair/quarantine analysis, rejected entries, wiped-line regions.
    let corrupted = corrupt_heavily(&pristine, &layout);
    let samples: usize = std::env::var("EDE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let mut c = Criterion::default()
        .warm_up_time(Duration::from_millis(20))
        .measurement_time(Duration::from_millis(100))
        .sample_size(samples);

    eprintln!("\ntriage throughput ({samples} samples, host parallelism {host})…");
    let scrub_clean = c.bench_measured("scrub/clean", |b| {
        b.iter(|| scrub(&pristine, &layout, Protocol::Undo))
    });
    let scrub_corrupt = c.bench_measured("scrub/corrupt", |b| {
        b.iter(|| scrub(&corrupted, &layout, Protocol::Undo))
    });
    let recover_clean = c.bench_measured("triage-recover/clean", |b| {
        b.iter(|| {
            let mut image = pristine.clone();
            recover(&mut image, &layout, Protocol::Undo)
        })
    });
    let recover_corrupt = c.bench_measured("triage-recover/corrupt", |b| {
        b.iter(|| {
            let mut image = corrupted.clone();
            recover(&mut image, &layout, Protocol::Undo)
        })
    });

    let json = format!(
        "{{\n  \"bench\": \"recovery-triage\",\n  \
         \"ops\": {},\n  \"persisted_words\": {},\n  \"log_slots\": {},\n  \
         \"host_parallelism\": {host},\n  \
         \"scrub_clean\": {},\n  \"scrub_corrupt\": {},\n  \
         \"recover_clean\": {},\n  \"recover_corrupt\": {},\n  \
         \"images_per_sec\": {{ \"scrub_clean\": {:.1}, \"scrub_corrupt\": {:.1}, \
         \"recover_clean\": {:.1}, \"recover_corrupt\": {:.1} }}\n}}\n",
        params.ops,
        pristine.len(),
        layout.log_slots,
        stats_json(&scrub_clean),
        stats_json(&scrub_corrupt),
        stats_json(&recover_clean),
        stats_json(&recover_corrupt),
        images_per_sec(&scrub_clean),
        images_per_sec(&scrub_corrupt),
        images_per_sec(&recover_clean),
        images_per_sec(&recover_corrupt),
    );
    std::fs::write(&out_path, &json).expect("write benchmark artifact");
    println!(
        "triage: {:.0} clean / {:.0} corrupted images/s (scrub), \
         {:.0} / {:.0} (recover) -> {out_path}",
        images_per_sec(&scrub_clean),
        images_per_sec(&scrub_corrupt),
        images_per_sec(&recover_clean),
        images_per_sec(&recover_corrupt),
    );
}
