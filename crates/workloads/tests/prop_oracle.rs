//! Property tests: for random seeds and sizes, every data structure's
//! functional state matches a standard-library oracle, for every
//! architecture configuration (lowering must never change semantics).

use ede_isa::ArchConfig;
use ede_util::check::{self, any, CaseError};
use ede_util::rng::SmallRng;
use ede_util::{prop_assert_eq, property};
use ede_workloads::{btree, ctree, rbtree, rtree, Workload, WorkloadParams};
use std::collections::BTreeMap;

fn params(seed: u64, ops: usize, prepopulate: usize) -> WorkloadParams {
    WorkloadParams {
        ops,
        ops_per_tx: 10,
        seed,
        array_elems: 64,
        prepopulate,
        mispredict_rate: 0.05,
    }
}

fn keys_model(seed: u64, salt: u64, n: usize) -> BTreeMap<u64, u64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let k: u64 = rng.gen();
        let v: u64 = rng.gen();
        m.insert(k, v);
    }
    m
}

property! {
    #![cases(12)]

    fn btree_matches_oracle(seed in 0u64..1_000_000, ops in 1usize..120, pre in 0usize..100) {
        let p = params(seed, ops, pre);
        for arch in [ArchConfig::Baseline, ArchConfig::WriteBuffer] {
            let out = btree::BTree.generate(&p, arch);
            let root_ptr = out.init_writes[0].0;
            let mut model = keys_model(seed, 0xb7ee ^ 0x5115, pre);
            model.extend(keys_model(seed, 0xb7ee, ops));
            for (&k, &v) in &model {
                prop_assert_eq!(btree::lookup(&out.memory, root_ptr, k), Some(v));
            }
        }
    }

    fn ctree_matches_oracle(seed in 0u64..1_000_000, ops in 1usize..120, pre in 0usize..100) {
        let p = params(seed, ops, pre);
        let out = ctree::CTree.generate(&p, ArchConfig::IssueQueue);
        let root_ptr = out.init_writes[0].0;
        let mut model = keys_model(seed, 0xc7ee ^ 0x5115, pre);
        model.extend(keys_model(seed, 0xc7ee, ops));
        for (&k, &v) in &model {
            prop_assert_eq!(ctree::lookup(&out.memory, root_ptr, k), Some(v));
        }
    }

    fn rbtree_matches_oracle_and_invariants(
        seed in 0u64..1_000_000, ops in 1usize..120, pre in 0usize..100
    ) {
        let p = params(seed, ops, pre);
        let out = rbtree::RbTree.generate(&p, ArchConfig::Unsafe);
        let (root_ptr, nil) = out.init_writes[0];
        let mut model = keys_model(seed, 0x4b7e ^ 0x5115, pre);
        model.extend(keys_model(seed, 0x4b7e, ops));
        for (&k, &v) in &model {
            prop_assert_eq!(rbtree::lookup(&out.memory, root_ptr, nil, k), Some(v));
        }
        rbtree::check_invariants(&out.memory, root_ptr, nil)
            .map_err(CaseError::fail)?;
    }

    fn rtree_matches_oracle(seed in 0u64..1_000_000, ops in 1usize..120, pre in 0usize..100) {
        let p = params(seed, ops, pre);
        let out = rtree::RTree.generate(&p, ArchConfig::StoreBarrierUnsafe);
        let root = out.init_writes[0].1;
        let mut model: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut pre_rng = SmallRng::seed_from_u64(
            seed ^ (0x47eeu64 ^ 0x5115).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for _ in 0..pre {
            let k: u32 = pre_rng.gen();
            let v: u64 = pre_rng.gen();
            model.insert(k, v);
        }
        let mut rng =
            SmallRng::seed_from_u64(seed ^ 0x47eeu64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..ops {
            let k: u32 = rng.gen();
            let v: u64 = rng.gen();
            model.insert(k, v);
        }
        for (&k, &v) in &model {
            prop_assert_eq!(rtree::lookup(&out.memory, root, k), Some(v));
        }
    }

    /// Random insert/delete interleavings keep the red–black tree
    /// equivalent to a map and its invariants intact.
    fn rbtree_insert_delete_interleavings(
        seed in 0u64..1_000_000,
        ops in check::vec((0u8..3, 0u64..60, any::<u64>()), 1..80)
    ) {
        use ede_nvm::{Layout, TxWriter};
        let p = params(seed, 1, 0);
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let mut model = BTreeMap::new();
        let (root_ptr, nil);
        {
            let mut t = rbtree::RbOps::create(&mut tx, &p);
            root_ptr = t.root_ptr;
            nil = t.nil;
            t.tx_begin_for_ops();
            for (op, k, v) in ops {
                match op {
                    0 | 1 => {
                        t.insert(k, v);
                        model.insert(k, v);
                    }
                    _ => {
                        let existed = t.delete(k);
                        prop_assert_eq!(existed, model.remove(&k).is_some());
                    }
                }
            }
            t.tx_commit_for_ops();
        }
        let out = tx.finish();
        rbtree::check_invariants(&out.memory, root_ptr, nil)
            .map_err(CaseError::fail)?;
        for k in 0..60u64 {
            prop_assert_eq!(
                rbtree::lookup(&out.memory, root_ptr, nil, k),
                model.get(&k).copied()
            );
        }
    }

    /// Same interleaving property for the crit-bit trie.
    fn ctree_insert_delete_interleavings(
        seed in 0u64..1_000_000,
        ops in check::vec((0u8..3, 0u64..60, any::<u64>()), 1..80)
    ) {
        use ede_nvm::{Layout, TxWriter};
        let p = params(seed, 1, 0);
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let mut model = BTreeMap::new();
        let root_ptr;
        {
            let mut t = ctree::CtOps::create(&mut tx, &p);
            root_ptr = t.root_ptr;
            t.tx_begin_for_ops();
            for (op, k, v) in ops {
                match op {
                    0 | 1 => {
                        t.insert(k, v);
                        model.insert(k, v);
                    }
                    _ => {
                        let existed = t.delete(k);
                        prop_assert_eq!(existed, model.remove(&k).is_some());
                    }
                }
            }
            t.tx_commit_for_ops();
        }
        let out = tx.finish();
        for k in 0..60u64 {
            prop_assert_eq!(
                ctree::lookup(&out.memory, root_ptr, k),
                model.get(&k).copied()
            );
        }
    }

    /// Arch configuration never changes semantics: the transaction
    /// records are identical across all five configurations.
    fn lowering_preserves_semantics(seed in 0u64..1_000_000) {
        let p = params(seed, 40, 20);
        for w in ede_workloads::standard_suite() {
            let reference = w.generate(&p, ArchConfig::Baseline);
            for arch in ArchConfig::ALL.into_iter().skip(1) {
                let out = w.generate(&p, arch);
                prop_assert_eq!(&out.records, &reference.records, "{} on {}", w.name(), arch);
                prop_assert_eq!(out.init_writes.len(), reference.init_writes.len());
            }
        }
    }
}
