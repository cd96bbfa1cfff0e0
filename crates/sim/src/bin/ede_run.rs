//! Assemble and run an EDE program from a file (or stdin).
//!
//! ```sh
//! cargo run --release -p ede-sim --bin ede-run -- program.s [B|SU|IQ|WB|U] \
//!     [--metrics out.json] [--chrome trace.json]
//! ```
//!
//! Prints the disassembly, cycle count, IPC, and — when the trace contains
//! EDE instructions — whether every execution dependence was honored.
//! `--metrics` writes the `ede.metrics.v1` document for the run;
//! `--chrome` writes a `chrome://tracing` timeline.

use ede_isa::{asm, disasm, ArchConfig};
use ede_sim::runner::{raw_output, run_program_traced};
use ede_sim::{chrome_trace_json, metrics_json, SimConfig};
use std::io::Read as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut metrics_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let take = |it: &mut std::vec::IntoIter<String>, flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a path");
                std::process::exit(1);
            })
        };
        match arg.as_str() {
            "--metrics" => metrics_path = Some(take(&mut it, "--metrics")),
            "--chrome" => chrome_path = Some(take(&mut it, "--chrome")),
            _ => positional.push(arg),
        }
    }

    let (source, name) = match positional.first().map(String::as_str) {
        None | Some("-") => {
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s).expect("read stdin");
            (s, "<stdin>".to_string())
        }
        Some(path) => (
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
            path.to_string(),
        ),
    };
    let arch = positional
        .get(1)
        .map(|l| {
            ArchConfig::parse(l).unwrap_or_else(|| {
                eprintln!("unknown configuration `{l}` (use B, SU, IQ, WB or U)");
                std::process::exit(1);
            })
        })
        .unwrap_or(ArchConfig::WriteBuffer);

    let program = asm::assemble(&source).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    });
    println!(
        "== {name} ({} instructions, {arch} hardware) ==",
        program.len()
    );
    print!("{}", disasm::listing(&program));

    let sim = SimConfig::a72();
    let (r, tracer) = run_program_traced(&name, raw_output(program.clone()), arch, &sim)
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        });
    println!(
        "\ncycles: {}   retired: {}   IPC: {:.2}",
        r.cycles,
        r.retired,
        r.ipc()
    );
    if let Some(path) = &metrics_path {
        std::fs::write(path, metrics_json(&r)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = &chrome_path {
        std::fs::write(path, chrome_trace_json(&r, &tracer)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("chrome timeline written to {path}");
    }
    if program.iter().any(|(_, i)| i.is_ede()) {
        let v: Vec<_> = r
            .ordering_violations()
            .into_iter()
            .filter(|v| v.kind == ede_core::ordering::Axiom::Execution)
            .collect();
        if v.is_empty() {
            println!("execution dependences: all honored");
        } else {
            println!(
                "execution dependences: {} VIOLATIONS (hardware bug!)",
                v.len()
            );
            std::process::exit(2);
        }
    }
}
