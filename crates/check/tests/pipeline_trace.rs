//! Axiom 1 on real runs: the stage events a core's [`Tracer`] records
//! pass [`check_stage_order`] on a fixed-latency memory, including
//! squash-heavy runs, and show the IQ/WB issue-time contrast.

use ede_check::conform::check_stage_order;
use ede_core::EnforcementPoint;
use ede_cpu::{Core, CpuConfig, FixedLatencyMem, PipeStage, Tracer, TracerConfig};
use ede_isa::{Edk, InstId, TraceBuilder};

fn traced_run(program: ede_isa::Program, cfg: CpuConfig) -> (ede_cpu::RunStats, Tracer) {
    let mem = FixedLatencyMem::new(8, 33);
    let mut core = Core::new(cfg, program, mem);
    core.set_tracer(Tracer::new(TracerConfig::STAGES));
    let stats = core.run(1_000_000).expect("terminates");
    (stats, core.take_tracer().expect("tracer attached"))
}

/// The cycle of `id`'s first `stage` event.
fn first(tracer: &Tracer, id: InstId, stage: PipeStage) -> Option<u64> {
    tracer
        .stages()
        .find(|&(_, i, s)| i == id && s == stage)
        .map(|(cycle, _, _)| cycle)
}

fn count(tracer: &Tracer, stage: PipeStage) -> usize {
    tracer.stages().filter(|&(_, _, s)| s == stage).count()
}

#[test]
fn stage_ordering_holds_on_ede_run() {
    let mut b = TraceBuilder::new();
    let k = Edk::new(1).expect("key");
    for i in 0..8u64 {
        b.cvap_producing(0x1_0000_0000 + i * 0x140, k);
        b.store_consuming(0x1_0001_0000 + i * 0x140, i, k);
        b.compute_chain(3);
    }
    b.wait_all_keys();
    let p = b.finish();
    for point in [EnforcementPoint::IssueQueue, EnforcementPoint::WriteBuffer] {
        let mut cfg = CpuConfig::a72();
        cfg.enforcement = Some(point);
        let (stats, tracer) = traced_run(p.clone(), cfg);
        assert_eq!(stats.retired, p.len() as u64);
        check_stage_order(&tracer).unwrap_or_else(|e| panic!("{point}: {e}"));
        // Every instruction dispatched and completed.
        for (id, _) in p.iter() {
            assert!(first(&tracer, id, PipeStage::Dispatch).is_some(), "{id}");
            assert!(first(&tracer, id, PipeStage::Complete).is_some(), "{id}");
        }
        // Stores and cvaps drained through the write buffer.
        assert_eq!(
            count(&tracer, PipeStage::Drain),
            16,
            "8 stores + 8 cvaps drain"
        );
    }
}

#[test]
fn squashes_are_traced_and_ordering_still_holds() {
    let mut b = TraceBuilder::new();
    for _ in 0..6 {
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
        b.store(0x1_0000_0000, 3);
        b.compute_chain(4);
    }
    let p = b.finish();
    let (stats, tracer) = traced_run(p.clone(), CpuConfig::a72());
    assert_eq!(stats.squashes, 6);
    assert!(
        count(&tracer, PipeStage::Squash) > 0,
        "younger instructions were in flight"
    );
    check_stage_order(&tracer).expect("ordering with squashes");
}

#[test]
fn consumer_issue_is_late_under_iq_early_under_wb() {
    // The Figure 8 contrast, observed directly from pipeline events.
    let mut b = TraceBuilder::new();
    let k = Edk::new(1).expect("key");
    b.cvap_producing(0x1_0000_0000, k);
    let consumer_mov = b.next_id();
    b.store_consuming(0x1_0001_0000, 7, k);
    let consumer = InstId(consumer_mov.0 + 2); // lea, mov, str
    let producer = InstId(1);
    let p = b.finish();

    let mut iq = CpuConfig::a72();
    iq.enforcement = Some(EnforcementPoint::IssueQueue);
    let (_, tracer_iq) = traced_run(p.clone(), iq);
    let mut wb = CpuConfig::a72();
    wb.enforcement = Some(EnforcementPoint::WriteBuffer);
    let (_, tracer_wb) = traced_run(p.clone(), wb);

    let issue_cycle = |tracer: &Tracer, id| first(tracer, id, PipeStage::Issue).expect("issued");
    let complete_cycle =
        |tracer: &Tracer, id| first(tracer, id, PipeStage::Complete).expect("completed");
    // IQ: the consumer store cannot issue until the producer completes.
    assert!(
        issue_cycle(&tracer_iq, consumer) >= complete_cycle(&tracer_iq, producer),
        "IQ holds the consumer at the issue queue"
    );
    // WB: the consumer issues early (before the producer's persist ack).
    assert!(
        issue_cycle(&tracer_wb, consumer) < complete_cycle(&tracer_wb, producer),
        "WB lets the consumer execute ahead"
    );
}
