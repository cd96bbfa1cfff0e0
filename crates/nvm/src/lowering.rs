//! The one persist-ordering lowering every protocol writer shares.
//!
//! Undo logging, redo logging and copy-on-write each state the orderings
//! they need — "this writeback before that store", "every earlier
//! persist before anything later", "this persist durable now" — through
//! the five primitives of [`Lowering`], the only code that knows the
//! architecture configurations of Table III. [`marker_pair`] composes
//! the twin-first commit marker all three write; the other four lower as
//! follows, with keys from one rotor over the fifteen live keys:
//!
//! | config | [`persist`] | [`persist_before_store`] | [`boundary`] | [`durable`] |
//! |--------|-------------|--------------------------|--------------|-------------|
//! | B | `DC CVAP` | `DC CVAP` + `DSB SY` | `DSB SY` | `DSB SY` |
//! | SU | `DC CVAP` | `DC CVAP` + `DMB ST` (unsafe) | `DMB ST` | `DMB ST` |
//! | IQ/WB | `DC CVAP (k,0)` | `DC CVAP (k,0)` → `STR (0,k)` | `WAIT_ALL_KEYS` | `WAIT_KEY (k)` |
//! | U | `DC CVAP` | `DC CVAP` (unsafe) | nothing | nothing |
//!
//! [`persist`]: Lowering::persist
//! [`persist_before_store`]: Lowering::persist_before_store
//! [`boundary`]: Lowering::boundary
//! [`durable`]: Lowering::durable
//! [`marker_pair`]: Lowering::marker_pair

use ede_isa::{ArchConfig, Edk, EdkPair, Program, Reg, TraceBuilder, VAddr};
use std::ops::{Deref, DerefMut};

/// A commit marker: one word (`STR`) or a pointer/marker pair (`STP`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Marker {
    Word(u64),
    Pair([u64; 2]),
}

/// A trace builder that knows the target configuration. Plain
/// instructions go straight to the [`TraceBuilder`] it dereferences to;
/// every ordering decision goes through its primitives.
#[derive(Debug)]
pub(crate) struct Lowering {
    arch: ArchConfig,
    builder: TraceBuilder,
    key_rotor: u8,
}

impl Deref for Lowering {
    type Target = TraceBuilder;

    fn deref(&self) -> &TraceBuilder {
        &self.builder
    }
}

impl DerefMut for Lowering {
    fn deref_mut(&mut self) -> &mut TraceBuilder {
        &mut self.builder
    }
}

impl Lowering {
    pub(crate) fn new(arch: ArchConfig) -> Lowering {
        Lowering {
            arch,
            builder: TraceBuilder::new(),
            key_rotor: 0,
        }
    }

    pub(crate) fn finish(self) -> Program {
        self.builder.finish()
    }

    fn next_key(&mut self) -> Edk {
        self.key_rotor = self.key_rotor % 15 + 1;
        Edk::new(self.key_rotor).expect("rotor stays in 1..=15")
    }

    /// The fenced configurations' barrier: `DSB SY` on B, `DMB ST` on SU.
    fn fence(&mut self) {
        match self.arch {
            ArchConfig::Baseline => {
                self.builder.dsb_sy();
            }
            ArchConfig::StoreBarrierUnsafe => {
                self.builder.dmb_st();
            }
            ArchConfig::IssueQueue | ArchConfig::WriteBuffer | ArchConfig::Unsafe => {}
        }
    }

    /// Writes back the line of `addr` through `base`. Under EDE the
    /// writeback produces a fresh key, returned so a later
    /// [`durable`](Self::durable) can wait for it.
    pub(crate) fn persist(&mut self, base: Reg, addr: VAddr) -> Option<Edk> {
        if self.arch.uses_ede() {
            let k = self.next_key();
            self.builder.cvap_to_edk(base, addr, EdkPair::producer(k));
            Some(k)
        } else {
            self.builder.cvap_to(base, addr);
            None
        }
    }

    /// [`persist`](Self::persist), ordered before the next store: a fence
    /// on B/SU; under EDE the returned key, which that store consumes
    /// through [`store_after`](Self::store_after).
    pub(crate) fn persist_before_store(&mut self, base: Reg, addr: VAddr) -> Option<Edk> {
        let key = self.persist(base, addr);
        self.fence();
        key
    }

    /// `str` of `value` through `base`, consuming `key` if a
    /// [`persist_before_store`](Self::persist_before_store) produced one.
    pub(crate) fn store_after(&mut self, base: Reg, addr: VAddr, value: u64, key: Option<Edk>) {
        self.builder.store_to_edk(base, addr, value, consuming(key));
    }

    /// Orders every earlier persist before anything later.
    pub(crate) fn boundary(&mut self) {
        if self.arch.uses_ede() {
            self.builder.wait_all_keys();
        } else {
            self.fence();
        }
    }

    /// Makes the persist that returned `key` durable before anything
    /// later: `WAIT_KEY` under EDE, a fence on B/SU.
    pub(crate) fn durable(&mut self, key: Option<Edk>) {
        match key {
            Some(k) => {
                self.builder.wait_key(k);
            }
            None => self.fence(),
        }
    }

    /// Stores `marker` at `twin` and persists it, ordered before the same
    /// marker's store at `primary`, which is then persisted too. Returns
    /// the primary persist's key for [`durable`](Self::durable).
    ///
    /// At every crash instant the twin is at least as new as the primary,
    /// the invariant triage repairs a torn primary from.
    pub(crate) fn marker_pair(
        &mut self,
        twin: VAddr,
        primary: VAddr,
        marker: Marker,
    ) -> Option<Edk> {
        let base = self.store_marker(twin, marker, None);
        let twin_key = self.persist_before_store(base, twin);
        self.builder.release(base);
        let base = self.store_marker(primary, marker, twin_key);
        let key = self.persist(base, primary);
        self.builder.release(base);
        key
    }

    /// Stores `marker` at `addr`, consuming `key`, and returns a pinned
    /// base register for its writeback. On the fenced configurations a
    /// one-word marker is a plain `store` and its writeback materializes
    /// the address again; EDE and `STP` markers keep one base register.
    fn store_marker(&mut self, addr: VAddr, marker: Marker, key: Option<Edk>) -> Reg {
        let base = self.builder.lea(addr);
        match marker {
            Marker::Word(value) => self.builder.store_to_edk(base, addr, value, consuming(key)),
            Marker::Pair(values) => {
                self.builder
                    .store_pair_to_edk(base, addr, values, consuming(key))
            }
        };
        if self.arch.uses_ede() || matches!(marker, Marker::Pair(_)) {
            return base;
        }
        self.builder.release(base);
        self.builder.lea(addr)
    }
}

/// The key pair of an instruction consuming `key`, if any.
fn consuming(key: Option<Edk>) -> EdkPair {
    key.map_or(EdkPair::NONE, EdkPair::consumer)
}

/// Test helper: the first marker store at `twin`, its writeback, and
/// the next store at `primary` must be ordered — by an execution
/// dependence under EDE, by the configuration's fence on B/SU.
#[cfg(test)]
pub(crate) fn assert_twin_ordered_before_primary(
    program: &Program,
    arch: ArchConfig,
    twin: VAddr,
    primary: VAddr,
) {
    use ede_isa::{InstId, Op};
    let ops: Vec<&Op> = program.iter().map(|(_, i)| &i.op).collect();
    let find = |from: usize, line: VAddr, writeback: bool| {
        (from..ops.len())
            .find(|&i| match *ops[i] {
                Op::Str { addr, .. } | Op::Stp { addr, .. } => !writeback && addr == line,
                Op::DcCvap { addr, .. } => writeback && addr == line,
                _ => false,
            })
            .unwrap_or_else(|| panic!("{arch:?}: no marker access to {line:#x}"))
    };
    let twin_cvap = find(find(0, twin, false), twin, true);
    let primary_store = find(twin_cvap, primary, false);
    let between = &ops[twin_cvap..primary_store];
    match arch {
        ArchConfig::Baseline => assert!(between.contains(&&Op::DsbSy), "B: DSB SY between"),
        ArchConfig::StoreBarrierUnsafe => {
            assert!(between.contains(&&Op::DmbSt), "SU: DMB ST between")
        }
        ArchConfig::IssueQueue | ArchConfig::WriteBuffer => {
            let edge = (InstId(twin_cvap as u64), InstId(primary_store as u64));
            assert!(
                ede_core::ordering::execution_deps(program).contains(&edge),
                "{arch:?}: the primary store must consume the twin writeback's key"
            );
        }
        ArchConfig::Unsafe => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_rotor_cycles_through_live_keys() {
        let mut emit = Lowering::new(ArchConfig::WriteBuffer);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            seen.insert(emit.next_key().index());
        }
        assert_eq!(seen.len(), 15);
        assert!(!seen.contains(&0));
    }
}
