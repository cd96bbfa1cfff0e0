//! Program-identity goldens for the persist-ordering lowering.
//!
//! The undo, redo and CoW writers lower each ordering a protocol needs
//! into `DSB SY` (B), `DMB ST` (SU), an EDK def/use pair (IQ/WB) or
//! nothing (U). These snapshots pin the generated instruction streams:
//!
//! * `tests/golden/lowering/<protocol>.<arch>.txt` — the full
//!   disassembly of one small transaction per protocol and arch;
//! * `tests/golden/lowering/digests.txt` — one row per generated
//!   program of the extended and lock-free suites, plus the redo and
//!   CoW update kernels, on every arch: the FNV-1a-64 of the listing
//!   and the program length.
//!
//! Any change to register allocation, key rotation, fence placement or
//! address materialization shows up as a unified diff. To regenerate
//! after an *intentional* code-generation change:
//!
//! ```sh
//! EDE_BLESS=1 cargo test -p ede-check --test lowering_golden
//! git diff tests/golden/lowering/   # review every changed line
//! ```

use ede_isa::{disasm, ArchConfig, Program};
use ede_nvm::cow::{cow_update_kernel, CowTxWriter};
use ede_nvm::redo::{redo_update_kernel, RedoTxWriter};
use ede_nvm::{Layout, TxWriter};
use ede_workloads::lockfree::lockfree_suite;
use ede_workloads::{extended_suite, WorkloadParams};
use std::fmt::Write as _;

#[path = "support/golden.rs"]
mod golden;

/// Compares `live` with the blessed file `lowering/<name>`, or rewrites
/// the file under `EDE_BLESS=1`.
fn check_golden(name: &str, live: &str) {
    golden::check(
        &golden::path(&format!("lowering/{name}")),
        live,
        "lowering_golden",
        &format!("the generated program for {name}"),
    );
}

/// Two words, three writes (one repeated, so undo logs it once), one
/// commit.
fn undo_tx(arch: ArchConfig) -> Program {
    let mut tx = TxWriter::new(Layout::standard(), arch);
    let a = tx.heap_alloc(16, 8);
    tx.write_init(a, 1);
    tx.write_init(a + 8, 2);
    tx.finish_init();
    tx.begin_tx();
    tx.write(a, 10);
    tx.write(a + 8, 20);
    tx.write(a, 11);
    tx.commit_tx();
    tx.finish().program
}

fn redo_tx(arch: ArchConfig) -> Program {
    let mut tx = RedoTxWriter::new(Layout::standard(), arch);
    let a = tx.heap_alloc(16, 8);
    tx.write_init(a, 1);
    tx.write_init(a + 8, 2);
    tx.finish_init();
    tx.begin_tx();
    tx.write(a, 10);
    tx.write(a + 8, 20);
    assert_eq!(tx.read(a), 10);
    tx.write(a, 11);
    tx.commit_tx();
    tx.finish().program
}

/// Two slots in one leaf table, one written twice.
fn cow_tx(arch: ArchConfig) -> Program {
    let mut tx = CowTxWriter::new(Layout::standard(), arch, 8);
    tx.finish_init();
    tx.begin_tx();
    tx.write(0, 0, 7);
    tx.write(1, 2, 9);
    assert_eq!(tx.read(0, 0), 7);
    tx.write(0, 1, 8);
    tx.commit_tx();
    tx.finish().program
}

fn check_one_tx(protocol: &str, generate: fn(ArchConfig) -> Program) {
    for arch in ArchConfig::ALL {
        let program = generate(arch);
        let live = format!(
            "# {protocol} one-transaction program on {} — {} instructions\n{}",
            arch.label(),
            program.len(),
            disasm::listing(&program)
        );
        check_golden(&format!("{protocol}.{}.txt", arch.label()), &live);
    }
}

#[test]
fn undo_one_tx_listings_are_pinned() {
    check_one_tx("undo", undo_tx);
}

#[test]
fn redo_one_tx_listings_are_pinned() {
    check_one_tx("redo", redo_tx);
}

#[test]
fn cow_one_tx_listings_are_pinned() {
    check_one_tx("cow", cow_tx);
}

#[test]
fn suite_and_kernel_digests_are_pinned() {
    let params = WorkloadParams {
        ops: 60,
        ops_per_tx: 7,
        prepopulate: 50,
        array_elems: 256,
        ..WorkloadParams::default()
    };
    let mut table = format!(
        "# program digests: ops {} ops_per_tx {} prepopulate {} array_elems {} seed {}\n\
         # program arch fnv1a64(listing) len\n",
        params.ops, params.ops_per_tx, params.prepopulate, params.array_elems, params.seed
    );
    let mut row = |name: &str, arch: ArchConfig, program: &Program| {
        let digest = golden::fnv1a64(disasm::listing(program).bytes());
        let _ = writeln!(
            table,
            "{name} {} {digest:016x} {}",
            arch.label(),
            program.len()
        );
    };
    for w in extended_suite().iter().chain(lockfree_suite().iter()) {
        for arch in ArchConfig::ALL {
            row(w.name(), arch, &w.generate(&params, arch).program);
        }
    }
    let (ops, per_tx, elems) = (params.ops, params.ops_per_tx, params.array_elems);
    for arch in ArchConfig::ALL {
        let redo = redo_update_kernel(arch, ops, per_tx, elems, params.seed);
        row("redo_update_kernel", arch, &redo.program);
    }
    for arch in ArchConfig::ALL {
        let cow = cow_update_kernel(arch, ops, per_tx, elems, params.seed);
        row("cow_update_kernel", arch, &cow.program);
    }
    check_golden("digests.txt", &table);
}
