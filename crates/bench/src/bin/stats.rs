//! Pipeline diagnostics per application × configuration: where dispatch
//! stalls, squash counts, and memory-system behavior.
//!
//! Usage: `EDE_OPS=500 cargo run --release -p ede-bench --bin stats`

use ede_cpu::{StageId, StallCause};
use ede_isa::ArchConfig;
use ede_sim::run_workload;
use ede_workloads::standard_suite;

fn main() {
    let cfg = ede_bench::experiment_from_env();
    println!(
        "{:8} {:3} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}",
        "app", "cfg", "cycles", "IPC", "dsb", "rob", "iq", "lsq", "sq", "L1%", "nvmRd"
    );
    for w in standard_suite() {
        for arch in ArchConfig::ALL {
            let r = run_workload(w.as_ref(), &cfg.params, arch, &cfg.sim).expect("run completes");
            let d = r.attribution.stage(StageId::Dispatch);
            println!(
                "{:8} {:3} {:>9} {:>6.2} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6.1}% {:>7}",
                r.workload,
                arch.label(),
                r.tx_cycles,
                r.ipc(),
                d.cause(StallCause::DsbDispatch),
                d.cause(StallCause::RobFull),
                d.cause(StallCause::IqFull),
                d.cause(StallCause::LsqFull),
                r.squashes,
                100.0 * r.mem_stats.l1_hit_rate(),
                r.mem_stats.nvm_reads,
            );
        }
    }
}
