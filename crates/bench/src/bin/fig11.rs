//! Regenerates Figure 11: the distribution of instructions issued each
//! cycle, plus the per-configuration IPC figures of §VII-B.
//!
//! Usage: `EDE_OPS=1000 cargo run --release -p ede-bench --bin fig11`

use ede_sim::{experiment::fig11, report};

fn main() {
    let cfg = ede_bench::experiment_from_env();
    eprintln!(
        "running fig11: {} ops per app (EDE_OPS to change)…",
        cfg.params.ops
    );
    let f = fig11(&cfg).expect("runs complete");
    if std::env::var("EDE_JSON").is_ok() {
        println!("{}", report::fig11_json(&f));
        return;
    }
    print!("{}", report::fig11(&f));
}
