//! Named litmus programs and a textual event-stream renderer.
//!
//! The golden-trace snapshot tests (and the `ede-sim trace` CLI) need
//! *small, stable, named* programs whose pipeline behavior is worth
//! pinning byte for byte. Each program here is a canonical persist
//! idiom from the paper:
//!
//! | name            | idiom                                            |
//! |-----------------|--------------------------------------------------|
//! | `two_update`    | two stores + flushes behind one `DSB SY` epoch   |
//! | `fenced_update` | the classic two-fence undo-log commit            |
//! | `hazard`        | producer `DC CVAP` → consumer store via one EDK  |
//! | `join`          | two producer keys merged by `JOIN`               |
//! | `wait_all`      | producers drained by `WAIT_ALL_KEYS`             |
//!
//! [`render_events`] turns a [`Tracer`](ede_cpu::Tracer) event stream
//! into the line-oriented text the snapshots store: one line per stage
//! transition or typed stall, in cycle order. Occupancy and
//! watchdog-quiet samples are diagnostic, not semantic, so the renderer
//! skips them — snapshots stay focused on *what the pipeline did*.

use ede_cpu::{StallCause, TraceEvent, TraceEventKind};
use ede_isa::disasm::Disasm;
use ede_isa::{Edk, Program, TraceBuilder, VAddr};
use std::fmt::Write as _;

/// First NVM data line the litmus programs touch.
const A: VAddr = 0x1_0000_0000;
/// Second NVM data line.
const B: VAddr = 0x1_0000_0040;
/// The "commit flag" line every idiom publishes last.
const FLAG: VAddr = 0x1_0000_0800;

/// Names of all litmus programs, in canonical order.
pub const NAMES: [&str; 5] = ["two_update", "fenced_update", "hazard", "join", "wait_all"];

/// Builds the named litmus program, or `None` for an unknown name.
pub fn program(name: &str) -> Option<Program> {
    let mut b = TraceBuilder::new();
    match name {
        "two_update" => {
            // Epoch persistency: both lines flushed, one fence, then the
            // publish store.
            b.store(A, 0x11);
            b.store(B, 0x22);
            b.cvap(A);
            b.cvap(B);
            b.dsb_sy();
            b.store(FLAG, 1);
        }
        "fenced_update" => {
            // Undo-log commit: data persists before the flag, the flag
            // persists before anything after it.
            b.store(A, 0xA1);
            b.cvap(A);
            b.dsb_sy();
            b.store(FLAG, 1);
            b.cvap(FLAG);
            b.dsb_sy();
        }
        "hazard" => {
            // The EDE replacement for `fenced_update`'s first fence: the
            // flag store *consumes* the key the flush *produces*.
            let k = Edk::new(1)?;
            b.store(A, 0xA1);
            b.cvap_producing(A, k);
            b.store_consuming(FLAG, 1, k);
        }
        "join" => {
            // Two independent flush chains merged into one key.
            let k1 = Edk::new(1)?;
            let k2 = Edk::new(2)?;
            let k3 = Edk::new(3)?;
            b.store(A, 0x11);
            b.cvap_producing(A, k1);
            b.store(B, 0x22);
            b.cvap_producing(B, k2);
            b.join(k3, k1, k2);
            b.store_consuming(FLAG, 1, k3);
        }
        "wait_all" => {
            // Bulk drain: every outstanding key, then publish.
            let k1 = Edk::new(1)?;
            let k2 = Edk::new(2)?;
            b.store(A, 0x11);
            b.cvap_producing(A, k1);
            b.store(B, 0x22);
            b.cvap_producing(B, k2);
            b.wait_all_keys();
            b.store(FLAG, 1);
        }
        _ => return None,
    }
    Some(b.finish())
}

/// Slot (see [`crate::gen::slot_addr`]) playing the first data line in the
/// command-level litmus catalog.
const SLOT_A: u8 = 0;
/// Slot playing the second data line (one full line above `SLOT_A`).
const SLOT_B: u8 = 8;
/// Slot playing the publish flag (its own line).
const SLOT_F: u8 = 16;

/// The named litmus idiom as an abstract command list over the
/// generator's slot space, or `None` for an unknown name.
///
/// These mirror [`program`]'s idioms shape-for-shape but live in
/// [`crate::gen::Cmd`] space so the exhaustive explorer, the fuzzer and
/// the shrinker all speak the same language: an explorer counterexample
/// on a litmus idiom is a command list the fuzz tooling can replay and
/// [`ede_util::check::minimize`] can shrink. Data lines persist via
/// explicit `DC CVAP`s and the flag line persists too — every ordering
/// obligation the idiom makes is observable as a persist event.
pub fn cmds(name: &str) -> Option<Vec<crate::gen::Cmd>> {
    use crate::gen::Cmd;
    let a = SLOT_A;
    let b = SLOT_B;
    let f = SLOT_F;
    Some(match name {
        "two_update" => vec![
            Cmd::Store { slot: a, key: 0 },
            Cmd::Store { slot: b, key: 0 },
            Cmd::Cvap { slot: a, key: 0 },
            Cmd::Cvap { slot: b, key: 0 },
            Cmd::DsbSy,
            Cmd::Store { slot: f, key: 0 },
            Cmd::Cvap { slot: f, key: 0 },
        ],
        "fenced_update" => vec![
            Cmd::Store { slot: a, key: 0 },
            Cmd::Cvap { slot: a, key: 0 },
            Cmd::DsbSy,
            Cmd::Store { slot: f, key: 0 },
            Cmd::Cvap { slot: f, key: 0 },
            Cmd::DsbSy,
        ],
        "hazard" => vec![
            Cmd::Store { slot: a, key: 0 },
            Cmd::Cvap { slot: a, key: 1 },
            Cmd::Store { slot: f, key: 1 },
            Cmd::Cvap { slot: f, key: 0 },
        ],
        "join" => vec![
            Cmd::Store { slot: a, key: 0 },
            Cmd::Cvap { slot: a, key: 1 },
            Cmd::Store { slot: b, key: 0 },
            Cmd::Cvap { slot: b, key: 2 },
            Cmd::Join {
                def: 3,
                use1: 1,
                use2: 2,
            },
            Cmd::Store { slot: f, key: 3 },
            Cmd::Cvap { slot: f, key: 0 },
        ],
        "wait_all" => vec![
            Cmd::Store { slot: a, key: 0 },
            Cmd::Cvap { slot: a, key: 1 },
            Cmd::Store { slot: b, key: 0 },
            Cmd::Cvap { slot: b, key: 2 },
            Cmd::WaitAllKeys,
            Cmd::Store { slot: f, key: 0 },
            Cmd::Cvap { slot: f, key: 0 },
        ],
        _ => return None,
    })
}

/// Renders a tracer event stream as snapshot-stable text.
///
/// One line per stage transition, `cycle  stage  #id  disasm`; runs of
/// identical per-stage stalls are coalesced into one line carrying the
/// run's first cycle and length, so a thousand-cycle persist drain is
/// one snapshot line, not a thousand:
///
/// ```text
///      3  dispatch  #0    str x1, [x0]
///      9  stall     issue: edk_wait ×41
/// ```
///
/// Occupancy and quiet samples are skipped (they are load-dependent
/// diagnostics, not pipeline semantics).
pub fn render_events<'a>(
    program: &Program,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> String {
    struct Run {
        stage: ede_cpu::StageId,
        cause: StallCause,
        start: u64,
        count: u64,
    }
    let mut out = String::new();
    // Open stall runs, at most one per stage, in first-stall order.
    let mut pending: Vec<Run> = Vec::new();
    let emit = |run: Run, out: &mut String| {
        let _ = writeln!(
            out,
            "{:>6}  {:<9} {}: {} ×{}",
            run.start,
            "stall",
            run.stage.label(),
            run.cause.label(),
            run.count
        );
    };
    for ev in events {
        match ev.kind {
            TraceEventKind::Stage { id, stage } => {
                // A cycle-N stage event follows every stall of cycle
                // < N, so open runs can be flushed in start order.
                pending.sort_by_key(|r| r.start);
                for run in pending.drain(..) {
                    emit(run, &mut out);
                }
                let text = program
                    .get(id)
                    .map(|inst| Disasm(inst).to_string())
                    .unwrap_or_else(|| "<unknown>".to_string());
                let _ = writeln!(
                    out,
                    "{:>6}  {:<9} #{:<4} {}",
                    ev.cycle,
                    stage.to_string(),
                    id.index(),
                    text
                );
            }
            TraceEventKind::Stall { stage, cause } => {
                match pending.iter_mut().find(|r| r.stage == stage) {
                    Some(run) if run.cause == cause => run.count += 1,
                    Some(run) => {
                        let done = std::mem::replace(
                            run,
                            Run {
                                stage,
                                cause,
                                start: ev.cycle,
                                count: 1,
                            },
                        );
                        emit(done, &mut out);
                    }
                    None => pending.push(Run {
                        stage,
                        cause,
                        start: ev.cycle,
                        count: 1,
                    }),
                }
            }
            // Diagnostic samples: excluded so snapshots don't churn on
            // sampling-rate or capacity changes.
            TraceEventKind::Occupancy { .. } | TraceEventKind::Quiet { .. } => {}
        }
    }
    pending.sort_by_key(|r| r.start);
    for run in pending {
        emit(run, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_cpu::TracerConfig;
    use ede_isa::ArchConfig;
    use ede_sim::{raw_output, run_program_observed, SimConfig};

    #[test]
    fn every_name_builds_and_runs_everywhere() {
        for name in NAMES {
            let p = program(name).expect(name);
            assert!(!p.is_empty(), "{name} is empty");
            for arch in ArchConfig::ALL {
                let (r, tr) = run_program_observed(
                    name,
                    raw_output(p.clone()),
                    arch,
                    &SimConfig::a72(),
                    TracerConfig::default(),
                )
                .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
                assert_eq!(r.retired, p.len() as u64, "{name} on {arch}");
                assert!(r.attribution.conserved(r.cycles), "{name} on {arch}");
                let text = render_events(&p, tr.events());
                assert!(text.contains("retire"), "{name} on {arch}:\n{text}");
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(program("nonesuch").is_none());
        assert!(cmds("nonesuch").is_none());
    }

    #[test]
    fn every_name_has_a_command_catalog_that_concretizes() {
        use crate::gen::{concretize, slot_addr};
        use crate::golden::{self, GoldenConfig};
        for name in NAMES {
            let cs = cmds(name).expect(name);
            let p = concretize(&cs);
            let run =
                golden::run(&p, &GoldenConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Each idiom persists its flag line last in program order.
            let flag_line = slot_addr(SLOT_F) & !63;
            assert_eq!(
                run.trace.persists.last().map(|p| p.line),
                Some(flag_line),
                "{name} must publish the flag"
            );
        }
    }

    #[test]
    fn hazard_exercises_edk_wait_under_ede() {
        let p = program("hazard").unwrap();
        // The consumer store must actually wait on the producer's key
        // on EDE hardware (IQ holds it at issue; WB at drain).
        let (_, tr) = run_program_observed(
            "hazard",
            raw_output(p.clone()),
            ArchConfig::IssueQueue,
            &SimConfig::a72(),
            TracerConfig::default(),
        )
        .unwrap();
        assert!(
            tr.events().any(|ev| matches!(
                ev.kind,
                TraceEventKind::Stall {
                    cause: StallCause::EdkWait,
                    ..
                }
            )),
            "no EDK-key wait observed:\n{}",
            render_events(&p, tr.events())
        );
    }

    #[test]
    fn render_is_deterministic() {
        let p = program("two_update").unwrap();
        let render = || {
            let (_, tr) = run_program_observed(
                "two_update",
                raw_output(p.clone()),
                ArchConfig::WriteBuffer,
                &SimConfig::a72(),
                TracerConfig::default(),
            )
            .unwrap();
            render_events(&p, tr.events())
        };
        assert_eq!(render(), render());
    }
}
