//! Targeted pipeline edge cases beyond the randomized property tests.

use ede_core::ordering::{check, OrderRelaxation};
use ede_core::EnforcementPoint;
use ede_cpu::{Core, CpuConfig, FixedLatencyMem};
use ede_isa::{Edk, EdkPair, Inst, InstKind, Op, Program, TraceBuilder};
use ede_mem::{MemConfig, MemSystem};

fn run(program: &Program, cfg: CpuConfig) -> ede_cpu::RunStats {
    let mem = FixedLatencyMem::new(12, 45);
    let mut core = Core::new(cfg, program.clone(), mem);
    core.run(2_000_000).expect("terminates")
}

fn wb_cfg() -> CpuConfig {
    CpuConfig::a72().with_enforcement(EnforcementPoint::WriteBuffer)
}

fn iq_cfg() -> CpuConfig {
    CpuConfig::a72().with_enforcement(EnforcementPoint::IssueQueue)
}

#[test]
fn single_entry_write_buffer_serializes_but_completes() {
    let mut b = TraceBuilder::new();
    for i in 0..10u64 {
        b.store(0x1_0000_0000 + i * 0x100, i);
    }
    let p = b.finish();
    let mut tiny = wb_cfg();
    tiny.wb_entries = 1;
    let slow = run(&p, tiny);
    let fast = run(&p, wb_cfg());
    assert_eq!(slow.retired, p.len() as u64);
    assert!(
        slow.cycles > fast.cycles,
        "wb=1 {} must be slower than wb=16 {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn stale_memory_response_after_squash_is_dropped() {
    // A long-latency load sits younger than a mispredicted branch; the
    // squash cancels it mid-flight, the refetch re-issues it, and the
    // stale response must not complete the new incarnation early.
    let mut b = TraceBuilder::new();
    let l = b.mov_imm(1);
    let r = b.mov_imm(2);
    b.cmp_branch(l, r, true);
    b.load(0x9000, 7);
    b.compute_chain(3);
    let p = b.finish();
    let stats = run(&p, wb_cfg());
    assert_eq!(stats.squashes, 1);
    assert_eq!(stats.retired, p.len() as u64);
}

#[test]
fn leading_dsb_completes_immediately() {
    let mut b = TraceBuilder::new();
    b.dsb_sy();
    b.mov_imm(1);
    let p = b.finish();
    let stats = run(&p, CpuConfig::a72());
    assert!(stats.cycles < 20, "empty DSB took {} cycles", stats.cycles);
}

#[test]
fn consecutive_mispredictions_recover() {
    let mut b = TraceBuilder::new();
    for _ in 0..4 {
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
    }
    b.store(0x1_0000_0000, 9);
    let p = b.finish();
    let stats = run(&p, iq_cfg());
    assert_eq!(stats.squashes, 4);
    assert_eq!(stats.retired, p.len() as u64);
}

#[test]
fn wait_key_without_producers_is_free() {
    let mut b = TraceBuilder::new();
    b.wait_key(Edk::new(5).expect("key"));
    b.wait_all_keys();
    b.mov_imm(1);
    let p = b.finish();
    for cfg in [iq_cfg(), wb_cfg()] {
        let stats = run(&p, cfg);
        assert!(
            stats.cycles < 20,
            "empty waits took {} cycles",
            stats.cycles
        );
    }
}

#[test]
fn join_with_zero_keys_is_immediate() {
    let mut b = TraceBuilder::new();
    b.join(Edk::ZERO, Edk::ZERO, Edk::ZERO);
    b.mov_imm(1);
    let p = b.finish();
    for cfg in [iq_cfg(), wb_cfg()] {
        let stats = run(&p, cfg);
        assert_eq!(stats.retired, 2);
    }
}

#[test]
fn completed_producer_imposes_no_stall_on_late_consumer() {
    let mut b = TraceBuilder::new();
    let k = Edk::new(1).expect("key");
    b.cvap_producing(0x1_0000_0000, k);
    // Plenty of independent work so the producer completes long before
    // the consumer dispatches.
    b.compute_chain(200);
    let consumer_at = b.next_id();
    b.store_consuming(0x1_0000_0100, 7, k);
    let p = b.finish();
    let stats = run(&p, iq_cfg());
    let t = &stats.timings;
    // The consumer store issues without an execution-dependence stall:
    // its effect follows its own dependences promptly.
    assert!(t[consumer_at.index() + 2].effect > 0);
    assert!(check(&p, t, OrderRelaxation::NONE).is_empty());
}

#[test]
fn stp_forwards_both_words() {
    let mut b = TraceBuilder::new();
    let base = b.lea(0x1_0000_0040);
    b.store_pair_to(base, 0x1_0000_0040, [11, 22]);
    b.release(base);
    b.load(0x1_0000_0048, 22); // second word of the pair
    let p = b.finish();
    let stats = run(&p, CpuConfig::a72());
    let load = p
        .iter()
        .find(|(_, i)| i.kind() == InstKind::Load)
        .expect("load present")
        .0;
    let stp = p
        .iter()
        .find(|(_, i)| i.kind() == InstKind::Store)
        .expect("stp present")
        .0;
    // Forwarded: completes before the STP's drain response.
    assert!(stats.timings[load.index()].complete <= stats.timings[stp.index()].complete + 2);
}

#[test]
fn trailing_dmb_st_completes() {
    let mut b = TraceBuilder::new();
    b.store(0x1_0000_0000, 1);
    b.dmb_st();
    let p = b.finish();
    let stats = run(&p, CpuConfig::a72());
    assert_eq!(stats.retired, p.len() as u64);
}

#[test]
fn wb_mode_load_consumer_blocks_at_issue() {
    // Even under WB enforcement, a *load* consumer waits at issue (no
    // write-buffer stage to defer to).
    let mut b = TraceBuilder::new();
    let k = Edk::new(2).expect("key");
    let base = b.lea(0x1_0000_0000);
    b.store_to_edk(base, 0x1_0000_0000, 5, EdkPair::producer(k));
    b.release(base);
    let base2 = b.lea(0x1_0000_0100);
    b.load_from_edk(base2, 0x1_0000_0100, 0, EdkPair::consumer(k));
    b.release(base2);
    let p = b.finish();
    let stats = run(&p, wb_cfg());
    assert!(check(&p, &stats.timings, OrderRelaxation::NONE).is_empty());
}

#[test]
fn retire_width_bounds_throughput() {
    let mut b = TraceBuilder::new();
    for i in 0..90 {
        b.mov_imm(i);
    }
    let p = b.finish();
    let mut narrow = CpuConfig::a72();
    narrow.retire_width = 1;
    let slow = run(&p, narrow);
    let fast = run(&p, CpuConfig::a72());
    assert!(slow.cycles >= 90, "1-wide retire floor");
    assert!(fast.cycles < slow.cycles);
}

#[test]
fn cvap_to_dram_line_completes_without_persisting() {
    let cfg = MemConfig::a72_hybrid();
    let mut b = TraceBuilder::new();
    b.store(cfg.dram_base + 0x40, 7);
    b.cvap(cfg.dram_base + 0x40);
    b.dsb_sy();
    let p = b.finish();
    let mem = MemSystem::new(cfg);
    let mut core = Core::new(CpuConfig::a72(), p.clone(), mem);
    let stats = core.run(1_000_000).expect("terminates");
    assert_eq!(stats.retired, p.len() as u64);
    let (_, mem) = core.into_parts();
    let trace = mem.into_trace();
    assert!(trace.persists.is_empty(), "DRAM lines never persist");
}

#[test]
fn issue_histogram_covers_every_cycle_under_squash() {
    let mut b = TraceBuilder::new();
    for _ in 0..5 {
        let l = b.mov_imm(1);
        let r = b.mov_imm(2);
        b.cmp_branch(l, r, true);
        b.compute_chain(5);
    }
    let p = b.finish();
    let stats = run(&p, wb_cfg());
    assert_eq!(stats.issue_hist.cycles(), stats.cycles);
    assert_eq!(stats.squashes, 5);
}

#[test]
fn key_redefinition_in_flight_links_to_newest_producer() {
    // Two producers reuse the key while both are in flight; the consumer
    // must be ordered after the *newest* (EDM overwrite, Figure 6).
    let mut b = TraceBuilder::new();
    let k = Edk::new(3).expect("key");
    b.cvap_producing(0x1_0000_0000, k);
    b.cvap_producing(0x1_0000_0100, k);
    b.store_consuming(0x1_0000_0200, 7, k);
    let p = b.finish();
    for cfg in [iq_cfg(), wb_cfg()] {
        let stats = run(&p, cfg);
        assert!(check(&p, &stats.timings, OrderRelaxation::NONE).is_empty());
        // The architectural dependence names the second cvap only.
        let deps = ede_core::ordering::execution_deps(&p);
        assert_eq!(deps.len(), 1);
        assert_eq!(
            deps[0].0,
            p.iter()
                .filter(|(_, i)| i.kind() == InstKind::Writeback)
                .map(|(id, _)| id)
                .nth(1)
                .expect("two cvaps")
        );
    }
}

/// Long enough that the producers older than the squash are still in
/// flight when their squashed consumers are dispatched again.
fn slow_mem() -> FixedLatencyMem {
    FixedLatencyMem::new(100, 100)
}

#[test]
fn squashed_register_wait_does_not_wake_the_refetched_consumer() {
    // `cmp` reads a slow load older than the branch (`old`) and one
    // younger (`young`). Its first incarnation waits on both and is
    // squashed with `young`; the refetched one waits on both again. When
    // `old` executes, the first incarnation's wait must not count
    // towards the second's, or `cmp` issues before `young` executes.
    let mut b = TraceBuilder::new();
    let old = b.load(0x1_0000_0000, 1);
    let (l, r) = (b.mov_imm(1), b.mov_imm(2));
    b.cmp_branch(l, r, true);
    let young_load = b.next_id().index() + 1; // after the address `mov`
    let young = b.load(0x1_0000_1000, 2);
    let cmp = b.push_raw(Inst::plain(Op::Cmp {
        lhs: old,
        rhs: young,
    }));
    let p = b.finish();
    let mut core = Core::new(iq_cfg(), p.clone(), slow_mem());
    let stats = core.run(2_000_000).expect("terminates");
    assert_eq!(stats.squashes, 1);
    let t = &stats.timings;
    assert!(
        t[cmp.index()].effect > t[young_load].complete,
        "cmp executed at {} before its younger source loaded at {}",
        t[cmp.index()].effect,
        t[young_load].complete
    );
}

#[test]
fn squashed_ede_wait_does_not_wake_the_refetched_consumer() {
    // A JOIN consumes a writeback older than the branch (key 1) and one
    // younger (key 2). Its first incarnation waits on both and is
    // squashed with the younger producer; the refetched JOIN waits on
    // both again. When the older writeback completes, the squashed
    // incarnation's wait must not count towards the refetched one's, or
    // the JOIN completes before the younger writeback persists.
    let (k1, k2, k3) = (
        Edk::new(1).expect("key"),
        Edk::new(2).expect("key"),
        Edk::new(3).expect("key"),
    );
    let mut b = TraceBuilder::new();
    b.cvap_producing(0x1_0000_0000, k1);
    let (l, r) = (b.mov_imm(1), b.mov_imm(2));
    b.cmp_branch(l, r, true);
    b.cvap_producing(0x1_0000_1000, k2);
    b.join(k3, k1, k2);
    let p = b.finish();
    let mut core = Core::new(iq_cfg(), p.clone(), slow_mem());
    let stats = core.run(2_000_000).expect("terminates");
    assert_eq!(stats.squashes, 1);
    let violations = check(&p, &stats.timings, OrderRelaxation::NONE);
    assert!(violations.is_empty(), "{violations:?}");
}
