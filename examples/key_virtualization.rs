//! §IX-A: virtualized EDKs. A compiler can name far more concurrent
//! dependences than the fifteen architectural keys; the linear-scan
//! allocator maps them down, spilling to `WAIT_KEY` under pressure.
//!
//! Run with: `cargo run --release --example key_virtualization`

use ede_core::keyalloc::{KeyAllocator, VKey};
use ede_core::EnforcementPoint;
use ede_isa::TraceBuilder;
use ede_sim::runner::{raw_output, run_program, RunResult};
use ede_sim::SimConfig;

fn build(pairs: u64, release_eagerly: bool) -> (ede_isa::Program, u64) {
    let mut b = TraceBuilder::new();
    let mut ka = KeyAllocator::new();
    for i in 0..pairs {
        let v = VKey(i);
        let slot = 0x1_0000_0000 + i * 0x140;
        let elem = 0x1_0010_0000 + i * 0x140;
        let k = ka.define(v, &mut b);
        b.cvap_producing(slot, k);
        // Interleave some unrelated work so many dependences are live at
        // once — the pressure that forces spills.
        b.compute_chain(2);
        match ka.use_key(v) {
            Some(k) => {
                b.store_consuming(elem, i, k);
            }
            None => {
                // Spilled: the WAIT_KEY emitted at the steal point already
                // enforces this dependence.
                b.store(elem, i);
            }
        }
        if release_eagerly {
            // The compiler knows the live range ended: recycle the key.
            ka.release(v);
        }
    }
    (b.finish(), ka.spills())
}

pub fn main() {
    let _ = run();
}

/// Builds and runs the example, returning every simulation result (the
/// smoke test asserts they are non-trivial and fully attributed).
pub fn run() -> Vec<RunResult> {
    let sim = SimConfig::a72();
    println!("60 producer→consumer pairs, four times the 15 physical keys:\n");
    let mut results = Vec::new();
    for (label, eager) in [("live ranges tracked (release after last use)", true),
                           ("no liveness info (spill under pressure)", false)] {
        let (program, spills) = build(60, eager);
        let r = run_program("keyalloc", raw_output(program.clone()),
                            ede_isa::ArchConfig::WriteBuffer, &sim)
            .expect("run completes");
        let ok = r.ordering_violations().is_empty();
        println!(
            "  {label}:\n    {} instructions, {} spills (WAIT_KEYs), {} cycles, \
             orderings honored: {ok}",
            program.len(),
            spills,
            r.cycles
        );
        results.push(r);
    }
    println!(
        "\nWith live-range information the allocator never spills; without it,\n\
         WAIT_KEY spills keep the program correct at some cost — the same\n\
         trade register allocators make with stack spills (§IX-A)."
    );
    let _ = EnforcementPoint::WriteBuffer;
    results
}
