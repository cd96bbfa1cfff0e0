//! Regenerates Figure 10: the distribution of pending NVM writes in the
//! persistent 128-slot on-DIMM buffer, sampled at each media write.
//!
//! Usage: `EDE_OPS=1000 cargo run --release -p ede-bench --bin fig10`

use ede_isa::ArchConfig;
use ede_sim::{experiment::fig10, report};

fn main() {
    let cfg = ede_bench::experiment_from_env();
    eprintln!(
        "running fig10: {} ops per app (EDE_OPS to change)…",
        cfg.params.ops
    );
    let f = fig10(&cfg).expect("runs complete");
    if std::env::var("EDE_JSON").is_ok() {
        println!("{}", report::fig10_json(&f));
        return;
    }
    print!("{}", report::fig10(&f));

    // The full distribution, as coarse percentile series per app/config.
    println!("\n  occupancy percentiles (p25/p50/p75/p95):");
    let mut apps: Vec<String> = f.cells.iter().map(|c| c.app.clone()).collect();
    apps.dedup();
    for app in apps {
        println!("  {app}:");
        for arch in ArchConfig::ALL {
            let Some(cell) = f.cell(&app, arch) else {
                continue;
            };
            let total: u64 = cell.histogram.iter().sum();
            if total == 0 {
                println!("    {:3}  (no samples)", arch.label());
                continue;
            }
            let pct = |p: f64| -> usize {
                let target = (total as f64 * p) as u64;
                let mut acc = 0;
                for (occ, &c) in cell.histogram.iter().enumerate() {
                    acc += c;
                    if acc >= target.max(1) {
                        return occ;
                    }
                }
                cell.histogram.len() - 1
            };
            println!(
                "    {:3}  {:>4} {:>4} {:>4} {:>4}",
                arch.label(),
                pct(0.25),
                pct(0.50),
                pct(0.75),
                pct(0.95)
            );
        }
    }
}
