//! The §VIII hazard-pointer announcement, with the full fence of
//! Figure 12 replaced by an EDE store→load dependence — the load-consumer
//! extension of §VIII-C.
//!
//! Run with: `cargo run --release --example hazard_pointer`

use ede_isa::{disasm, ArchConfig, Edk, EdkPair, TraceBuilder};
use ede_sim::runner::{raw_output, run_program, RunResult};
use ede_sim::SimConfig;

const ELEM_PTR: u64 = 0x2000; // x1: pointer to the element's location
const HAZARD: u64 = 0x3000; // x2: this thread's hazard pointer
const ELEM: u64 = 0x1_0000_0040; // the element's current location

fn announcement(use_ede: bool, rounds: u64) -> ede_isa::Program {
    let mut b = TraceBuilder::new();
    for _ in 0..rounds {
        let x1 = b.lea(ELEM_PTR);
        let x2 = b.lea(HAZARD);
        // ldr x3, [x1] — load the element's location.
        let x3 = b.load_from(x1, ELEM_PTR, ELEM);
        if use_ede {
            // str (1, 0), x3, [x2] — announce, producing EDK #1.
            let k = Edk::new(1).expect("key 1");
            b.push_raw(ede_isa::Inst::with_edks(
                ede_isa::Op::Str {
                    src: x3,
                    base: x2,
                    addr: HAZARD,
                    value: ELEM,
                },
                EdkPair::producer(k),
            ));
            // ldr (0, 1), x4, [x1] — revalidate, consuming EDK #1: the
            // reload cannot happen before the announcement is visible.
            let x4 = b.load_from_edk(x1, ELEM_PTR, ELEM, EdkPair::consumer(k));
            let _ = x4;
        } else {
            // Figure 12: announce, full fence, revalidate.
            b.push_raw(ede_isa::Inst::plain(ede_isa::Op::Str {
                src: x3,
                base: x2,
                addr: HAZARD,
                value: ELEM,
            }));
            b.dmb_sy();
            let x4 = b.load_from(x1, ELEM_PTR, ELEM);
            let _ = x4;
        }
        // cmp x4, x3 ; b.ne Loop — validation (predicted correctly).
        let xa = b.mov_imm(ELEM);
        let xb = b.mov_imm(ELEM);
        b.cmp_branch(xa, xb, false);
        b.release(x1);
        b.release(x2);
        // …and then the thread actually *uses* the protected element:
        // independent loads that a full fence needlessly holds back but
        // an execution dependence leaves free.
        for j in 0..4u64 {
            b.load(ELEM + 0x80 + j * 0x40, j);
        }
        b.compute_chain(4);
    }
    b.finish()
}

pub fn main() {
    let _ = run();
}

/// Builds and runs the example, returning every simulation result (the
/// smoke test asserts they are non-trivial and fully attributed).
pub fn run() -> Vec<RunResult> {
    let rounds = 200;
    let fenced = announcement(false, rounds);
    let ede = announcement(true, rounds);

    println!("one announcement round, fenced (Figure 12):");
    for (_, inst) in fenced.iter().take(7) {
        println!("    {}", disasm::Disasm(inst));
    }
    println!("with EDE (§VIII-A):");
    for (_, inst) in ede.iter().take(6) {
        println!("    {}", disasm::Disasm(inst));
    }

    let sim = SimConfig::a72();
    let base = run_program("hazard-dmb", raw_output(fenced), ArchConfig::Baseline, &sim)
        .expect("fenced run completes");
    println!(
        "\nDMB SY version:  {:>7} cycles for {rounds} rounds",
        base.cycles
    );
    let mut results = Vec::new();
    for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
        let r = run_program("hazard-ede", raw_output(ede.clone()), arch, &sim)
            .expect("EDE run completes");
        assert!(
            r.ordering_violations().is_empty(),
            "announcement ordering broken"
        );
        println!(
            "EDE, {arch} hardware: {:>7} cycles  ({:.0}% faster, ordering verified)",
            r.cycles,
            100.0 * (1.0 - r.cycles as f64 / base.cycles as f64)
        );
        results.push(r);
    }
    results.push(base);
    results
}
