//! Regenerates Figure 9: application execution time, normalized to the
//! baseline, for all six applications and five configurations.
//!
//! Usage: `EDE_OPS=1000 cargo run --release -p ede-bench --bin fig9`

use ede_isa::ArchConfig;
use ede_sim::experiment::fig9_seeds;
use ede_sim::{experiment::fig9, report};
use ede_workloads::standard_suite;

fn main() {
    let cfg = ede_bench::experiment_from_env();
    // Optional multi-seed spread: EDE_SEEDS=<n> runs n seeds. Read up
    // front so a typo fails before the sweep, not after it.
    let n_seeds = ede_bench::env_u64("EDE_SEEDS", 1);
    eprintln!(
        "running fig9: {} ops x {} apps x 5 configs (EDE_OPS to change)…",
        cfg.params.ops,
        standard_suite().len()
    );
    let f = fig9(&cfg).expect("runs complete");
    if std::env::var("EDE_JSON").is_ok() {
        println!("{}", report::fig9_json(&f));
        return;
    }
    print!("{}", report::fig9(&f));

    if n_seeds > 1 {
        eprintln!("running {n_seeds} seeds for the spread…");
        let seeds: Vec<u64> = (0..n_seeds).map(|i| cfg.params.seed + i).collect();
        let s = fig9_seeds(&cfg, &standard_suite(), &seeds).expect("runs complete");
        println!("\n  geomean over {} seeds (mean ± stdev):", seeds.len());
        print!(" ");
        for (i, arch) in ArchConfig::ALL.iter().enumerate() {
            print!("  {}={:.3}±{:.3}", arch.label(), s.mean[i], s.stdev[i]);
        }
        println!();
    }
}
