//! Metrics documents and Chrome-trace timelines for one run.
//!
//! Two export formats hang off a [`RunResult`]:
//!
//! * [`metrics_json`] — the `ede.metrics.v1` document: run identity,
//!   headline totals, the full per-stage stall-attribution breakdown
//!   (every [`StallCause`](ede_cpu::StallCause), zeros included, so the
//!   byte layout never depends on which stalls occurred), and the raw
//!   per-layer [`Registry`](ede_util::obs::Registry).
//! * [`chrome_trace_json`] — a `chrome://tracing` / Perfetto timeline:
//!   one duration slice per pipeline-stage span per instruction, instant
//!   events for squashes and persists.
//!
//! Both are byte-deterministic for a given run: keys are emitted in a
//! fixed order and the underlying registry serialization is
//! stable-ordered. [`validate_metrics_json`] is the in-repo shape
//! checker: it re-parses a document with `ede_util::obs::json` and
//! re-checks the conservation invariant (`busy + Σ causes == cycles`
//! per stage), which CI runs against live `trace` output.

use crate::runner::RunResult;
use ede_cpu::{PipeStage, StageId, StallCause, Tracer};
use ede_util::obs::{json, json_escape};
use std::fmt::Write as _;

/// Schema identifier embedded in every metrics document.
pub const METRICS_SCHEMA: &str = "ede.metrics.v1";

/// Renders the `ede.metrics.v1` JSON document for one run.
///
/// The document is byte-stable: same run, same bytes — regardless of
/// `--jobs`, tracing, or repetition.
pub fn metrics_json(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json_escape(METRICS_SCHEMA));
    let _ = writeln!(out, "  \"workload\": {},", json_escape(&r.workload));
    let _ = writeln!(out, "  \"arch\": {},", json_escape(r.arch.label()));
    let _ = writeln!(out, "  \"cycles\": {},", r.cycles);
    let _ = writeln!(out, "  \"tx_cycles\": {},", r.tx_cycles);
    let _ = writeln!(out, "  \"retired\": {},", r.retired);
    let _ = writeln!(out, "  \"squashes\": {},", r.squashes);
    let _ = writeln!(out, "  \"ipc\": {:.6},", r.ipc());
    out.push_str("  \"stall_attribution\": {\n");
    for (si, stage) in StageId::ALL.iter().enumerate() {
        let s = r.attribution.stage(*stage);
        let _ = write!(out, "    {}: {{", json_escape(stage.label()));
        let _ = write!(out, "\"busy\": {}", s.busy);
        for (cause, cycles) in s.breakdown() {
            let _ = write!(out, ", {}: {}", json_escape(cause.label()), cycles);
        }
        let _ = write!(out, ", \"total\": {}}}", s.total());
        out.push_str(if si + 1 < StageId::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"registry\": {}", r.metrics.to_json());
    out.push_str("}\n");
    out
}

/// Renders a Chrome-trace-format timeline of the run's pipeline events:
/// the stage transitions buffered in `tracer` (complete when it was
/// built from [`TracerConfig::STAGES`](ede_cpu::TracerConfig::STAGES))
/// and the persists in the run's trace.
///
/// Load the output in `chrome://tracing` or Perfetto. Cycles map to
/// microseconds (`ts`/`dur`); each instruction is one `tid`, stage spans
/// are `X` duration events, squashes and persists are `i` instants.
pub fn chrome_trace_json(r: &RunResult, tracer: &Tracer) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    let program = &r.output.program;
    for ((id, inst), evs) in program.iter().zip(tracer.stages_by_inst(program.len())) {
        if evs.is_empty() {
            continue;
        }
        let name = json_escape(&ede_isa::disasm::Disasm(inst).to_string());
        // Each squash ends an incarnation; spans never cross one.
        for w in evs.windows(2) {
            let ((a_cycle, a_stage), (b_cycle, b_stage)) = (w[0], w[1]);
            if a_stage == PipeStage::Squash {
                continue;
            }
            if b_stage == PipeStage::Squash {
                push(
                    format!(
                        "  {{\"name\": \"squash\", \"cat\": \"pipeline\", \"ph\": \"i\", \
                         \"ts\": {}, \"pid\": 1, \"tid\": {}, \"s\": \"t\"}}",
                        b_cycle, id.0
                    ),
                    &mut out,
                    &mut first,
                );
                continue;
            }
            push(
                format!(
                    "  {{\"name\": {name}, \"cat\": \"stage:{}\", \"ph\": \"X\", \
                     \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                    a_stage,
                    a_cycle,
                    b_cycle - a_cycle,
                    id.0
                ),
                &mut out,
                &mut first,
            );
        }
    }
    for p in &r.trace.persists {
        push(
            format!(
                "  {{\"name\": \"persist 0x{:x}\", \"cat\": \"nvm\", \"ph\": \"i\", \
                 \"ts\": {}, \"pid\": 2, \"tid\": 0, \"s\": \"g\"}}",
                p.line, p.cycle
            ),
            &mut out,
            &mut first,
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Validates the shape and invariants of an `ede.metrics.v1` document.
///
/// Checks: it parses, carries the right schema tag, and its
/// stall-attribution table is *exhaustive* (every stage lists every
/// cause) and *conserved* (per stage, `busy + Σ causes == total ==
/// cycles` — no unattributed residue).
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate_metrics_json(s: &str) -> Result<(), String> {
    let doc = json::parse(s)?;
    let schema = doc
        .get("schema")
        .and_then(json::Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != METRICS_SCHEMA {
        return Err(format!("schema {schema:?}, expected {METRICS_SCHEMA:?}"));
    }
    let cycles = doc
        .get("cycles")
        .and_then(json::Json::as_u64)
        .ok_or("missing \"cycles\"")?;
    for key in ["workload", "arch"] {
        doc.get(key)
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("missing {key:?}"))?;
    }
    for key in ["retired", "squashes", "tx_cycles"] {
        doc.get(key)
            .and_then(json::Json::as_u64)
            .ok_or_else(|| format!("missing {key:?}"))?;
    }
    let attribution = doc
        .get("stall_attribution")
        .and_then(json::Json::as_object)
        .ok_or("missing \"stall_attribution\"")?;
    for stage in StageId::ALL {
        let (_, table) = attribution
            .iter()
            .find(|(k, _)| k == stage.label())
            .ok_or_else(|| format!("stall_attribution missing stage {:?}", stage.label()))?;
        let field = |name: &str| -> Result<u64, String> {
            table
                .get(name)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("stage {:?} missing {name:?}", stage.label()))
        };
        let mut sum = field("busy")?;
        for cause in StallCause::ALL {
            sum += field(cause.label())?;
        }
        let total = field("total")?;
        if sum != total {
            return Err(format!(
                "stage {:?}: busy + causes = {sum} but total = {total}",
                stage.label()
            ));
        }
        if total != cycles {
            return Err(format!(
                "stage {:?}: attributed {total} of {cycles} cycles",
                stage.label()
            ));
        }
    }
    doc.get("registry")
        .and_then(json::Json::as_object)
        .ok_or("missing \"registry\"")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::runner::{raw_output, run_program, run_program_observed, run_program_traced};
    use ede_cpu::TracerConfig;
    use ede_isa::{ArchConfig, TraceBuilder};

    fn small_run(arch: ArchConfig) -> RunResult {
        let mut b = TraceBuilder::new();
        b.store(0x1_0000_0000, 7);
        b.cvap(0x1_0000_0000);
        b.dsb_sy();
        b.store(0x1_0000_0400, 9);
        run_program("unit", raw_output(b.finish()), arch, &SimConfig::a72()).unwrap()
    }

    #[test]
    fn metrics_document_validates() {
        for arch in ArchConfig::ALL {
            let r = small_run(arch);
            let doc = metrics_json(&r);
            validate_metrics_json(&doc).unwrap_or_else(|e| panic!("{arch}: {e}\n{doc}"));
        }
    }

    #[test]
    fn metrics_are_byte_stable_across_repeats() {
        let a = metrics_json(&small_run(ArchConfig::Baseline));
        let b = metrics_json(&small_run(ArchConfig::Baseline));
        assert_eq!(a, b);
    }

    #[test]
    fn tracing_does_not_change_metrics() {
        let plain = small_run(ArchConfig::WriteBuffer);
        let mut b = TraceBuilder::new();
        b.store(0x1_0000_0000, 7);
        b.cvap(0x1_0000_0000);
        b.dsb_sy();
        b.store(0x1_0000_0400, 9);
        let (traced, _) = run_program_observed(
            "unit",
            raw_output(b.finish()),
            ArchConfig::WriteBuffer,
            &SimConfig::a72(),
            TracerConfig::default(),
        )
        .unwrap();
        assert_eq!(metrics_json(&plain), metrics_json(&traced));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let mut b = TraceBuilder::new();
        b.store(0x1_0000_0000, 7);
        b.cvap(0x1_0000_0000);
        b.dsb_sy();
        let (r, tracer) = run_program_traced(
            "unit",
            raw_output(b.finish()),
            ArchConfig::Baseline,
            &SimConfig::a72(),
        )
        .unwrap();
        let doc = chrome_trace_json(&r, &tracer);
        let parsed = json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(json::Json::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        // The cvap persists, so an NVM instant event must appear.
        assert!(doc.contains("\"cat\": \"nvm\""));
    }

    #[test]
    fn validator_rejects_broken_conservation() {
        let r = small_run(ArchConfig::Baseline);
        let doc = metrics_json(&r);
        // Corrupt one busy counter and the validator must object.
        let busy = format!("\"busy\": {}", r.attribution.stage(StageId::Dispatch).busy);
        let corrupted = doc.replacen(&busy, "\"busy\": 999999999", 1);
        assert_ne!(doc, corrupted, "corruption must apply");
        assert!(validate_metrics_json(&corrupted).is_err());
    }
}
