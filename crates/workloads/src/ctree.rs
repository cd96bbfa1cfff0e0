//! Persistent crit-bit trie (Table II's `ctree`).
//!
//! A PATRICIA-style binary trie over 64-bit keys: internal nodes hold the
//! index of the most significant bit at which their subtrees differ;
//! leaves hold a key/value pair.

use crate::{mispredict, rng_for, Workload, WorkloadParams};
use ede_isa::ArchConfig;
use ede_nvm::{Layout, SimMemory, TxOutput, TxWriter};
use ede_util::rng::SmallRng;

/// Node tags (word 0).
const TAG_INTERNAL: u64 = 1;
const TAG_LEAF: u64 = 2;
/// Internal: [tag, bit, left, right]; leaf: [tag, key, value].
const NODE_WORDS: u64 = 4;

/// Crit-bit trie insert workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct CTree;

impl Workload for CTree {
    fn name(&self) -> &'static str {
        "ctree"
    }

    fn description(&self) -> &'static str {
        "Crit-bit trie implementation."
    }

    fn generate(&self, params: &WorkloadParams, arch: ArchConfig) -> TxOutput {
        let mut keys = rng_for(params, 0xc7ee);
        let mut branches = rng_for(params, 0xc7ef);
        let mut tx = TxWriter::new(Layout::standard(), arch);
        let root_ptr = tx.heap_alloc(8, 8);
        tx.write_init(root_ptr, 0);
        if params.prepopulate > 0 {
            let mut pre = rng_for(params, 0xc7ee ^ 0x5115);
            tx.begin_prepopulate();
            let mut t = Builder {
                tx: &mut tx,
                branches: &mut branches,
                params,
            };
            for _ in 0..params.prepopulate {
                let key: u64 = pre.gen();
                let val: u64 = pre.gen();
                t.insert(root_ptr, key, val);
            }
            tx.end_prepopulate();
        }
        tx.finish_init();

        let mut t = Builder {
            tx: &mut tx,
            branches: &mut branches,
            params,
        };
        let mut in_tx = 0usize;
        for _ in 0..params.ops {
            if in_tx == 0 {
                t.tx.begin_tx();
            }
            let key: u64 = keys.gen();
            let val: u64 = keys.gen();
            t.insert(root_ptr, key, val);
            in_tx += 1;
            if in_tx == params.ops_per_tx {
                t.tx.commit_tx();
                in_tx = 0;
            }
        }
        if in_tx > 0 {
            t.tx.commit_tx();
        }
        tx.finish()
    }
}

struct Builder<'a> {
    tx: &'a mut TxWriter,
    branches: &'a mut SmallRng,
    params: &'a WorkloadParams,
}

impl Builder<'_> {
    fn cmp(&mut self, a: u64, b: u64) {
        let m = mispredict(self.branches, self.params);
        self.tx.compare_branch(a, b, m);
    }

    fn new_leaf(&mut self, key: u64, val: u64) -> u64 {
        let n = self.tx.heap_alloc(NODE_WORDS * 8, 32);
        self.tx.write(n, TAG_LEAF);
        self.tx.write(n + 8, key);
        self.tx.write(n + 16, val);
        n
    }

    fn insert(&mut self, root_ptr: u64, key: u64, val: u64) {
        let root = self.tx.read(root_ptr);
        self.cmp(root, 0);
        if root == 0 {
            let leaf = self.new_leaf(key, val);
            self.tx.write(root_ptr, leaf);
            return;
        }
        // Walk to the best-matching leaf.
        let mut node = root;
        loop {
            let tag = self.tx.read(node);
            self.cmp(tag, TAG_INTERNAL);
            if tag != TAG_INTERNAL {
                break;
            }
            let bit = self.tx.read(node + 8);
            let side = (key >> (63 - bit)) & 1;
            node = self.tx.read(node + 16 + side * 8);
        }
        let leaf_key = self.tx.read(node + 8);
        self.cmp(leaf_key, key);
        if leaf_key == key {
            self.tx.write(node + 16, val);
            return;
        }
        // Most significant differing bit decides where the new internal
        // node goes.
        let diff = (63 - (key ^ leaf_key).leading_zeros()) as u64;
        let crit = 63 - diff; // bit index from the MSB
                              // Re-walk from the root to the insertion point: the first edge
                              // whose node is a leaf or has a bit index greater than `crit`.
        let mut slot = root_ptr;
        loop {
            let cur = self.tx.read(slot);
            let tag = self.tx.read(cur);
            self.cmp(tag, TAG_INTERNAL);
            if tag != TAG_INTERNAL {
                break;
            }
            let bit = self.tx.read(cur + 8);
            self.cmp(bit, crit);
            if bit > crit {
                break;
            }
            let side = (key >> (63 - bit)) & 1;
            slot = cur + 16 + side * 8;
        }
        let existing = self.tx.read(slot);
        let new_leaf = self.new_leaf(key, val);
        let internal = self.tx.heap_alloc(NODE_WORDS * 8, 32);
        self.tx.write(internal, TAG_INTERNAL);
        self.tx.write(internal + 8, crit);
        let key_side = (key >> (63 - crit)) & 1;
        if key_side == 1 {
            self.tx.write(internal + 16, existing);
            self.tx.write(internal + 24, new_leaf);
        } else {
            self.tx.write(internal + 16, new_leaf);
            self.tx.write(internal + 24, existing);
        }
        self.tx.write(slot, internal);
    }

    /// Removes `key`, returning whether it was present. The removed
    /// leaf's parent internal node collapses: its other child takes the
    /// parent's place (nodes are leaked — bump allocation).
    fn delete(&mut self, root_ptr: u64, key: u64) -> bool {
        let root = self.tx.read(root_ptr);
        self.cmp(root, 0);
        if root == 0 {
            return false;
        }
        // Walk, remembering the slot pointing at the current node and the
        // last internal node traversed with the side taken.
        let mut node_slot = root_ptr;
        let mut node = root;
        let mut parent: Option<(u64, u64)> = None; // (internal node, side)
        loop {
            let tag = self.tx.read(node);
            self.cmp(tag, TAG_INTERNAL);
            if tag != TAG_INTERNAL {
                break;
            }
            let bit = self.tx.read(node + 8);
            let side = (key >> (63 - bit)) & 1;
            parent = Some((node, side));
            node_slot = node + 16 + side * 8;
            node = self.tx.read(node_slot);
        }
        let leaf_key = self.tx.read(node + 8);
        self.cmp(leaf_key, key);
        if leaf_key != key {
            return false;
        }
        match parent {
            None => {
                // The root was the leaf.
                self.tx.write(root_ptr, 0);
            }
            Some((internal, side)) => {
                // Replace the internal node with the surviving sibling.
                // The slot pointing at `internal` is whatever slot we
                // descended through to reach it — re-walk to find it (the
                // grandparent slot), as real crit-bit deletion does.
                let sibling = self.tx.read(internal + 16 + (1 - side) * 8);
                let mut gslot = root_ptr;
                loop {
                    let cur = self.tx.read(gslot);
                    if cur == internal {
                        break;
                    }
                    let bit = self.tx.read(cur + 8);
                    let s = (key >> (63 - bit)) & 1;
                    gslot = cur + 16 + s * 8;
                }
                self.tx.write(gslot, sibling);
            }
        }
        let _ = node_slot;
        true
    }
}

/// Direct handle over the trie operations for tests and external
/// harnesses (the crit-bit counterpart of
/// [`RbOps`](crate::rbtree::RbOps)).
#[derive(Debug)]
pub struct CtOps<'a> {
    tx: &'a mut TxWriter,
    branches: SmallRng,
    params: WorkloadParams,
    /// The root-pointer word address.
    pub root_ptr: u64,
}

impl<'a> CtOps<'a> {
    /// Allocates the root pointer (preloaded empty) and wraps `tx`. Call
    /// before `finish_init`.
    pub fn create(tx: &'a mut TxWriter, params: &WorkloadParams) -> CtOps<'a> {
        let root_ptr = tx.heap_alloc(8, 8);
        tx.write_init(root_ptr, 0);
        CtOps {
            tx,
            branches: rng_for(params, 0xc7ef),
            params: *params,
            root_ptr,
        }
    }

    fn builder(&mut self) -> Builder<'_> {
        Builder {
            tx: self.tx,
            branches: &mut self.branches,
            params: &self.params,
        }
    }

    /// Inserts (or updates) `key`.
    pub fn insert(&mut self, key: u64, val: u64) {
        let root_ptr = self.root_ptr;
        self.builder().insert(root_ptr, key, val);
    }

    /// Deletes `key`, returning whether it was present.
    pub fn delete(&mut self, key: u64) -> bool {
        let root_ptr = self.root_ptr;
        self.builder().delete(root_ptr, key)
    }

    /// Closes the init phase and opens one transaction.
    pub fn tx_begin_for_ops(&mut self) {
        self.tx.finish_init();
        self.tx.begin_tx();
    }

    /// Commits the transaction opened by
    /// [`tx_begin_for_ops`](Self::tx_begin_for_ops).
    pub fn tx_commit_for_ops(&mut self) {
        self.tx.commit_tx();
    }
}

/// Pure lookup over the functional memory (test oracle; emits nothing).
pub fn lookup(mem: &SimMemory, root_ptr: u64, key: u64) -> Option<u64> {
    let mut node = mem.read(root_ptr);
    if node == 0 {
        return None;
    }
    loop {
        match mem.read(node) {
            TAG_INTERNAL => {
                let bit = mem.read(node + 8);
                let side = (key >> (63 - bit)) & 1;
                node = mem.read(node + 16 + side * 8);
            }
            TAG_LEAF => {
                return if mem.read(node + 8) == key {
                    Some(mem.read(node + 16))
                } else {
                    None
                };
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn matches_map_oracle() {
        let params = WorkloadParams {
            ops: 300,
            ops_per_tx: 50,
            prepopulate: 0,
            ..WorkloadParams::default()
        };
        let out = CTree.generate(&params, ArchConfig::Baseline);
        let root_ptr = out.init_writes[0].0;
        let mut rng = rng_for(&params, 0xc7ee);
        let mut model = BTreeMap::new();
        for _ in 0..params.ops {
            let k: u64 = rng.gen();
            let v: u64 = rng.gen();
            model.insert(k, v);
        }
        for (&k, &v) in &model {
            assert_eq!(lookup(&out.memory, root_ptr, k), Some(v), "key {k:#x}");
        }
        assert_eq!(lookup(&out.memory, root_ptr, 1), None);
    }

    #[test]
    fn delete_matches_map_oracle() {
        let params = WorkloadParams {
            ops: 1,
            ops_per_tx: 1,
            prepopulate: 0,
            ..WorkloadParams::default()
        };
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let root_ptr = tx.heap_alloc(8, 8);
        tx.write_init(root_ptr, 0);
        tx.finish_init();
        let mut branches = rng_for(&params, 2);
        let mut b = Builder {
            tx: &mut tx,
            branches: &mut branches,
            params: &params,
        };
        let mut rng = rng_for(&params, 33);
        let mut model = BTreeMap::new();
        b.tx.begin_tx();
        for step in 0..300u64 {
            if step % 3 != 2 || model.is_empty() {
                let k: u64 = rng.gen_range(0..150);
                let v: u64 = rng.gen();
                b.insert(root_ptr, k, v);
                model.insert(k, v);
            } else {
                let idx = rng.gen_range(0..model.len());
                let k = *model.keys().nth(idx).expect("nonempty");
                assert!(b.delete(root_ptr, k));
                model.remove(&k);
            }
        }
        assert!(!b.delete(root_ptr, u64::MAX), "absent key");
        b.tx.commit_tx();
        let out = tx.finish();
        for (&k, &v) in &model {
            assert_eq!(lookup(&out.memory, root_ptr, k), Some(v), "key {k}");
        }
        for k in 0..150u64 {
            if !model.contains_key(&k) {
                assert_eq!(lookup(&out.memory, root_ptr, k), None, "key {k}");
            }
        }
    }

    #[test]
    fn delete_to_empty_and_refill() {
        let params = WorkloadParams {
            ops: 1,
            ops_per_tx: 1,
            prepopulate: 0,
            ..WorkloadParams::default()
        };
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let root_ptr = tx.heap_alloc(8, 8);
        tx.write_init(root_ptr, 0);
        tx.finish_init();
        let mut branches = rng_for(&params, 4);
        let mut b = Builder {
            tx: &mut tx,
            branches: &mut branches,
            params: &params,
        };
        b.tx.begin_tx();
        b.insert(root_ptr, 10, 1);
        b.insert(root_ptr, 20, 2);
        assert!(b.delete(root_ptr, 10));
        assert!(b.delete(root_ptr, 20));
        assert!(!b.delete(root_ptr, 20), "tree is empty");
        b.insert(root_ptr, 30, 3);
        b.tx.commit_tx();
        let out = tx.finish();
        assert_eq!(lookup(&out.memory, root_ptr, 30), Some(3));
        assert_eq!(lookup(&out.memory, root_ptr, 10), None);
    }

    #[test]
    fn handles_prefix_relationships() {
        // Directed keys that share long prefixes exercise the crit-bit
        // re-walk logic.
        let params = WorkloadParams {
            ops: 4,
            ops_per_tx: 4,
            prepopulate: 0,
            ..WorkloadParams::default()
        };
        // Build manually to control keys.
        let mut tx = TxWriter::new(Layout::standard(), ArchConfig::Baseline);
        let root_ptr = tx.heap_alloc(8, 8);
        tx.write_init(root_ptr, 0);
        tx.finish_init();
        let mut branches = rng_for(&params, 1);
        let mut b = Builder {
            tx: &mut tx,
            branches: &mut branches,
            params: &params,
        };
        b.tx.begin_tx();
        for (i, k) in [0x8000_0000_0000_0000u64, 0x8000_0000_0000_0001, 0, 1]
            .iter()
            .enumerate()
        {
            b.insert(root_ptr, *k, i as u64 + 10);
        }
        b.tx.commit_tx();
        let out = tx.finish();
        assert_eq!(
            lookup(&out.memory, root_ptr, 0x8000_0000_0000_0000),
            Some(10)
        );
        assert_eq!(
            lookup(&out.memory, root_ptr, 0x8000_0000_0000_0001),
            Some(11)
        );
        assert_eq!(lookup(&out.memory, root_ptr, 0), Some(12));
        assert_eq!(lookup(&out.memory, root_ptr, 1), Some(13));
        assert_eq!(lookup(&out.memory, root_ptr, 2), None);
    }
}
