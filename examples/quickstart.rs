//! Quickstart: build a tiny EDE program by hand, run it on the simulated
//! A72-like machine under every architecture configuration, and print the
//! cycle counts.
//!
//! Run with: `cargo run --release --example quickstart`

use ede_isa::{disasm, ArchConfig, Edk, TraceBuilder};
use ede_sim::runner::{raw_output, run_program, RunResult};
use ede_sim::SimConfig;

pub fn main() {
    let _ = run();
}

/// Builds and runs the example, returning every simulation result (the
/// smoke test asserts they are non-trivial and fully attributed).
pub fn run() -> Vec<RunResult> {
    // The paper's Figure 1 scenario: three independent persistent
    // updates, each requiring "log entry persists before data store".
    let nvm = 0x1_0000_0000u64;

    // Baseline lowering: DC CVAP + DSB SY per update (Figure 4).
    let mut fenced = TraceBuilder::new();
    for i in 0..3u64 {
        let slot = nvm + i * 0x100;
        let elem = nvm + 0x1_0000 + i * 0x100;
        let s = fenced.lea(slot);
        fenced.store_pair_to(s, slot, [elem, i]); // log: addr + old value
        fenced.cvap_to(s, slot);
        fenced.release(s);
        fenced.dsb_sy(); // wait for the log entry to persist
        fenced.store(elem, 6 + i); // the update
        fenced.cvap(elem);
    }
    let fenced = fenced.finish();

    // EDE lowering: the DC CVAP produces a key, the store consumes it —
    // no fence, and the three updates are free to overlap (Figure 7).
    let mut ede = TraceBuilder::new();
    for i in 0..3u64 {
        let slot = nvm + i * 0x100;
        let elem = nvm + 0x1_0000 + i * 0x100;
        let key = Edk::new(i as u8 + 1).expect("small key index");
        let s = ede.lea(slot);
        ede.store_pair_to(s, slot, [elem, i]);
        ede.cvap_to_edk(s, slot, ede_isa::EdkPair::producer(key));
        ede.release(s);
        ede.store_consuming(elem, 6 + i, key);
        ede.cvap(elem);
    }
    let ede = ede.finish();

    println!("== fenced program (baseline) ==");
    print!("{}", disasm::listing(&fenced));
    println!("== EDE program ==");
    print!("{}", disasm::listing(&ede));

    let sim = SimConfig::a72();
    let mut results = Vec::new();
    let base = run_program("quickstart", raw_output(fenced), ArchConfig::Baseline, &sim)
        .expect("fenced run completes");
    println!("\nbaseline (DSB):      {:>6} cycles", base.cycles);
    for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
        let r = run_program("quickstart", raw_output(ede.clone()), arch, &sim)
            .expect("EDE run completes");
        println!(
            "EDE on {arch} hardware: {:>6} cycles  ({:.0}% faster)",
            r.cycles,
            100.0 * (1.0 - r.cycles as f64 / base.cycles as f64)
        );
        // On this store-only snippet IQ gains little (§V-B2/Figure 8(b):
        // the stalled consumer blocks younger retires); see the workload
        // benchmarks for IQ's gains when loads and compute can overlap.
        // The hardware honored every ordering axiom.
        let violations = r.ordering_violations();
        assert!(violations.is_empty());
        results.push(r);
    }
    results.push(base);
    results
}
