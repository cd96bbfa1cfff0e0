//! Recovery-time experiment: crash a run mid-flight, then measure how
//! long undo recovery takes on the simulated machine.
//!
//! Undo recovery scans the whole log region and rolls back; CoW recovery
//! is a constant-time root read. Redo replays committed-but-unapplied
//! entries. The log scan dominates — which is why real systems bound
//! their log sizes.
//!
//! ```text
//! cargo run --release -p ede-bench --bin recovery
//! ```

use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_nvm::recovery::recovery_trace;
use ede_nvm::Layout;
use ede_sim::run_workload;
use ede_sim::runner::{raw_output, run_program};
use ede_workloads::update::Update;

fn main() {
    let cfg = ede_bench::experiment_from_env();
    let mut params = cfg.params;
    params.ops = params.ops.min(300);
    eprintln!("running a baseline run to crash ({} ops)…", params.ops);
    let r = run_workload(&Update, &params, ArchConfig::Baseline, &cfg.sim).expect("run completes");

    // Crash in the middle of the transaction phase; merge the initial
    // pool contents exactly as the crash checker does (the superblock
    // magic rides in as an init write).
    let crash = r.tx_phase_start_cycle() + r.tx_cycles / 2;
    let mut pristine = nvm_image_at(&r.trace, crash, 64);
    for &(a, v) in r.output.init_writes.iter() {
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
        let rr = run_program(
            "recovery",
            raw_output(trace),
            ArchConfig::Baseline,
            &cfg.sim,
        )
        .expect("recovery runs");
        println!("  {:>9} {:>12} {:>12}", slots, insts, rr.cycles);
    }
}
