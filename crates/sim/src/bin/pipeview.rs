//! Assemble a program and render its pipeline timeline as an ASCII lane
//! chart (gem5 `O3PipeView` style).
//!
//! ```sh
//! cargo run --release -p ede-sim --bin pipeview -- program.s [B|SU|IQ|WB|U] [width]
//! ```

use ede_cpu::{PipeStage, Tracer};
use ede_isa::{asm, ArchConfig, Program};
use ede_sim::{raw_output, run_program_traced, SimConfig, SimError};
use std::fmt::Write as _;
use std::io::Read as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (source, name) = match args.get(1).map(String::as_str) {
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
    let arch = args.get(2).map_or(ArchConfig::WriteBuffer, |l| {
        ArchConfig::parse(l).unwrap_or_else(|| {
            eprintln!("unknown configuration `{l}` (use B, SU, IQ, WB or U)");
            std::process::exit(1);
        })
    });
    let width: usize = args.get(3).map_or(72, |w| {
        w.parse().unwrap_or_else(|_| {
            eprintln!("width `{w}` is not a number of columns");
            std::process::exit(1);
        })
    });

    let program = asm::assemble(&source).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    });
    let chart = pipeview(&name, &program, arch, width).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    print!("{chart}");
}

/// Simulates `program` on `arch` and returns everything `pipeview`
/// prints: a header, the stage legend and the lane chart `width`
/// columns wide.
pub fn pipeview(
    name: &str,
    program: &Program,
    arch: ArchConfig,
    width: usize,
) -> Result<String, SimError> {
    let (result, tracer) =
        run_program_traced(name, raw_output(program.clone()), arch, &SimConfig::a72())?;
    Ok(format!(
        "== {name} on {arch} hardware — {} cycles ==\n\
         D dispatch, I issue, X executed, R retire, W drain, C complete, ~ squash\n\n{}",
        result.cycles,
        render_pipeview(program, &tracer, width)
    ))
}

/// Renders the stage events as a gem5 `O3PipeView`-style lane chart: one
/// row per instruction, one column per cycle bucket, with stage letters
/// `D` (dispatch), `I` (issue), `X` (executed), `R` (retire), `W` (drain)
/// and `C` (complete); `=` fills the instruction's lifetime and `~` marks
/// squashed incarnations. Cycles are bucketed to fit `width` columns.
fn render_pipeview(program: &Program, tracer: &Tracer, width: usize) -> String {
    let width = width.max(10);
    let max_cycle = tracer
        .stages()
        .map(|(cycle, _, _)| cycle)
        .max()
        .unwrap_or(1)
        .max(1);
    let scale = |cycle: u64| -> usize {
        ((cycle.saturating_sub(1)) as usize * (width - 1) / max_cycle as usize).min(width - 1)
    };
    let letter = |s: PipeStage| match s {
        PipeStage::Dispatch => 'D',
        PipeStage::Issue => 'I',
        PipeStage::Executed => 'X',
        PipeStage::Retire => 'R',
        PipeStage::Drain => 'W',
        PipeStage::Complete => 'C',
        PipeStage::Squash => '~',
    };
    let mut out = String::new();
    let _ = writeln!(out, "cycles 1..{max_cycle} mapped onto {width} columns");
    for ((id, inst), evs) in program.iter().zip(tracer.stages_by_inst(program.len())) {
        if evs.is_empty() {
            continue;
        }
        let mut lane = vec![' '; width];
        // The final incarnation's events follow its last squash.
        let finals = match evs.iter().rposition(|&(_, s)| s == PipeStage::Squash) {
            Some(i) => &evs[i + 1..],
            None => &evs[..],
        };
        // Fill the final incarnation's lifetime with '='.
        if let (Some(first), Some(last)) = (finals.first(), finals.last()) {
            for c in lane.iter_mut().take(scale(last.0) + 1).skip(scale(first.0)) {
                *c = '=';
            }
        }
        // Squashed incarnations appear as '~'.
        for &(cycle, stage) in &evs {
            if stage == PipeStage::Squash {
                lane[scale(cycle)] = '~';
            }
        }
        for &(cycle, stage) in finals {
            lane[scale(cycle)] = letter(stage);
        }
        let text: String = lane.into_iter().collect();
        let _ = writeln!(
            out,
            "{:>5} |{}| {}",
            id.to_string(),
            text,
            ede_isa::disasm::Disasm(inst)
        );
    }
    out
}
