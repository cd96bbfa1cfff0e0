//! Ablations of the design choices DESIGN.md calls out ("Key design
//! decisions"). Each table varies one parameter and prints the simulated
//! transaction-phase cycles of one run per variant; the simulation is
//! deterministic, so one run is the whole measurement.
//!
//! Usage:
//! `EDE_OPS=200 EDE_PREPOP=5000 EDE_ELEMS=65536 cargo run --release -p ede-bench --bin ablation`

use ede_isa::ArchConfig;
use ede_sim::run_workload;
use ede_sim::SimConfig;
use ede_workloads::{btree::BTree, update::Update, Workload};

fn table(name: &str, rows: impl IntoIterator<Item = (String, u64)>) {
    println!("{name}");
    for (variant, cycles) in rows {
        println!("  {variant:<20} {cycles:>12}");
    }
    println!();
}

fn main() {
    let cfg = ede_bench::experiment_from_env();
    let tx_cycles = |w: &dyn Workload, arch: ArchConfig, tweak: &dyn Fn(&mut SimConfig)| {
        let mut sim = cfg.sim.clone();
        tweak(&mut sim);
        run_workload(w, &cfg.params, arch, &sim)
            .expect("run completes")
            .tx_cycles
    };
    println!(
        "ablations, {} ops — tx-phase cycles per variant\n",
        cfg.params.ops
    );

    // 1 (§V-B): the enforcement point. The same EDE trace on IQ vs WB
    // hardware isolates the issue-queue-stall vs write-buffer-stall
    // difference of Figure 8.
    table(
        "ablation_enforcement",
        [ArchConfig::IssueQueue, ArchConfig::WriteBuffer].map(|arch| {
            (
                format!("btree/{}", arch.label()),
                tx_cycles(&BTree, arch, &|_| {}),
            )
        }),
    );

    // 2: persist-buffer write coalescing. A one-cache-line NVM device
    // line removes cross-line merging; the fence-free configuration pays
    // the most.
    table(
        "ablation_coalescing",
        [("256B-line", 256u64), ("64B-line", 64)].map(|(label, line)| {
            let cycles = tx_cycles(&Update, ArchConfig::Unsafe, &|s| {
                s.mem.nvm_line_bytes = line
            });
            (format!("update-U/{label}"), cycles)
        }),
    );

    // 3: NVM media write parallelism, which bounds the fence-free
    // configurations' throughput (the Figure 10 back-pressure).
    table(
        "ablation_media_writers",
        [2usize, 6, 16].map(|writers| {
            let cycles = tx_cycles(&Update, ArchConfig::Unsafe, &|s| {
                s.mem.media_writers = writers
            });
            (format!("update-U/{writers}w"), cycles)
        }),
    );

    // 4: write-buffer depth under WB enforcement — the structure that
    // gives WB its lookahead past blocked consumers.
    table(
        "ablation_wb_depth",
        [4usize, 16, 64].map(|entries| {
            let cycles = tx_cycles(&BTree, ArchConfig::WriteBuffer, &|s| {
                s.cpu.wb_entries = entries
            });
            (format!("btree-WB/{entries}e"), cycles)
        }),
    );

    // 5: next-line prefetching. The kernels' log writes are sequential,
    // so prefetching shifts some of the memory time EDE and the fences
    // fight over.
    table(
        "ablation_prefetch",
        [0usize, 2].map(|depth| {
            let cycles = tx_cycles(&Update, ArchConfig::Baseline, &|s| {
                s.mem.prefetch_next_lines = depth
            });
            (format!("update-B/{depth}lines"), cycles)
        }),
    );
}
