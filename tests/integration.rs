//! Cross-crate integration tests: workloads → code generation → core
//! simulation → architectural validation.

use ede_core::ordering::{for_each_edge, Axiom, OrderRelaxation};
use ede_isa::ArchConfig;
use ede_sim::{run_workload, SimConfig};
use ede_workloads::{standard_suite, WorkloadParams};

fn small_params() -> WorkloadParams {
    WorkloadParams {
        ops: 60,
        ops_per_tx: 20,
        array_elems: 1024,
        prepopulate: 300,
        ..WorkloadParams::default()
    }
}

#[test]
fn every_workload_runs_on_every_configuration() {
    let params = small_params();
    let sim = SimConfig::a72();
    for w in standard_suite() {
        for arch in ArchConfig::ALL {
            let r = run_workload(w.as_ref(), &params, arch, &sim)
                .unwrap_or_else(|e| panic!("{} on {arch}: {e}", w.name()));
            assert_eq!(
                r.retired,
                r.output.program.len() as u64,
                "{} on {arch}: retirement count",
                w.name()
            );
            assert!(r.ipc() > 0.0);
            assert_eq!(r.issue_hist.cycles(), r.cycles);
        }
    }
}

#[test]
fn execution_dependences_honored_everywhere() {
    // The master EDE invariant: in every run of every workload, a
    // dependence producer completes before its consumer's effects are
    // observable — regardless of enforcement point.
    let params = small_params();
    let sim = SimConfig::a72();
    for w in standard_suite() {
        for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
            let r = run_workload(w.as_ref(), &params, arch, &sim).unwrap();
            let v = r.ordering_violations();
            assert!(
                v.is_empty(),
                "{} on {arch}: {} ordering violations, first: {:?}",
                w.name(),
                v.len(),
                v.first()
            );
        }
    }
}

#[test]
fn dsb_semantics_honored_in_baseline() {
    let params = small_params();
    let sim = SimConfig::a72();
    for w in standard_suite() {
        let r = run_workload(w.as_ref(), &params, ArchConfig::Baseline, &sim).unwrap();
        let v = r.ordering_violations();
        assert!(
            v.is_empty(),
            "{}: ordering violations, first: {:?}",
            w.name(),
            v.first()
        );
    }
}

#[test]
fn ede_removes_fences_and_shortens_traces() {
    let params = small_params();
    for w in standard_suite() {
        let b = w.generate(&params, ArchConfig::Baseline);
        let wb = w.generate(&params, ArchConfig::WriteBuffer);
        let b_fences = b
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::FenceFull)
            .count();
        let wb_fences = wb
            .program
            .iter()
            .filter(|(_, i)| i.kind() == ede_isa::InstKind::FenceFull)
            .count();
        assert!(b_fences > 0, "{}: baseline must fence", w.name());
        assert_eq!(wb_fences, 0, "{}: EDE code must not fence", w.name());
        assert!(
            wb.program.len() < b.program.len() + 1000,
            "{}: EDE code should not balloon",
            w.name()
        );
        // Identical semantics: same transaction record.
        assert_eq!(b.records, wb.records, "{}", w.name());
    }
}

#[test]
fn dependence_graph_shows_execution_edges_only_under_ede() {
    // EDE code trades the baseline's DSB windows for execution edges.
    let params = small_params();
    let w = &standard_suite()[0];
    let count = |arch, axiom| {
        let program = w.generate(&params, arch).program;
        let mut n = 0;
        for_each_edge(&program, OrderRelaxation::NONE, |e| {
            n += usize::from(e.axiom == axiom)
        });
        n
    };
    assert_eq!(count(ArchConfig::Baseline, Axiom::Execution), 0);
    assert!(count(ArchConfig::Baseline, Axiom::FullFence) > 0);
    assert!(count(ArchConfig::IssueQueue, Axiom::Execution) > 0);
    assert_eq!(count(ArchConfig::IssueQueue, Axiom::FullFence), 0);
}

#[test]
fn mispredictions_squash_and_recover_with_ede_state() {
    let params = WorkloadParams {
        mispredict_rate: 0.2, // provoke many squashes
        ..small_params()
    };
    let sim = SimConfig::a72();
    for arch in [ArchConfig::IssueQueue, ArchConfig::WriteBuffer] {
        let r = run_workload(standard_suite()[2].as_ref(), &params, arch, &sim).unwrap();
        assert!(r.squashes > 10, "{arch}: expected many squashes");
        let v = r.ordering_violations();
        assert!(v.is_empty(), "{arch}: EDM squash repair broke deps: {v:?}");
    }
}

#[test]
fn stats_are_internally_consistent() {
    let params = small_params();
    let sim = SimConfig::a72();
    let r = run_workload(
        standard_suite()[0].as_ref(),
        &params,
        ArchConfig::WriteBuffer,
        &sim,
    )
    .unwrap();
    // Memory stats add up: every load/store/cvap the core sent was served.
    let m = r.mem_stats;
    assert!(m.loads > 0 && m.store_drains > 0 && m.cvaps > 0);
    assert!(m.l1_hits <= m.loads + m.store_drains);
    // Persist trace is cycle-sorted.
    assert!(r.trace.stores.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    assert!(r
        .trace
        .persists
        .windows(2)
        .all(|w| w[0].cycle <= w[1].cycle));
    // Occupancy histogram bounded by buffer capacity.
    assert_eq!(r.nvm_occupancy.len(), sim.mem.persist_slots + 1);
}

#[test]
fn figure4_assembly_golden() {
    // The framework's lowering of `p_array[0] = 6` under the baseline
    // matches the shape of the paper's Figure 4: load original, store
    // pair into the slot, persist the slot, DSB, store the new value,
    // persist it.
    use ede_isa::ArchConfig;
    use ede_nvm::{Layout, TxWriter};
    let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
    let p_array = tx.heap_alloc(8, 8);
    tx.write_init(p_array, 9);
    tx.finish_init();
    tx.begin_tx();
    tx.write(p_array, 6);
    tx.commit_tx();
    let out = tx.finish();
    let text = ede_isa::disasm::listing(&out.program);
    // The Figure 4 backbone, in order.
    for needle in ["ldr", "stp", "dc cvap", "dsb sy", "str", "dc cvap"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    let idx = |pat: &str| text.find(pat).expect("present");
    assert!(idx("stp") < idx("dsb sy"));
    assert!(idx("dsb sy") < text.rfind("str").expect("store present"));
}

#[test]
fn deterministic_across_identical_runs() {
    let params = small_params();
    let sim = SimConfig::a72();
    let w = &standard_suite()[1];
    let a = run_workload(w.as_ref(), &params, ArchConfig::IssueQueue, &sim).unwrap();
    let b = run_workload(w.as_ref(), &params, ArchConfig::IssueQueue, &sim).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.trace.persists.len(), b.trace.persists.len());
    assert_eq!(a.squashes, b.squashes);
}
