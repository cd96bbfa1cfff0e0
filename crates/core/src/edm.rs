//! The Execution Dependence Map (EDM).

use ede_isa::{Edk, Inst, InstId, Op, NUM_EDKS};

/// A single Execution Dependence Map: fifteen `EDK → in-flight
/// instruction` entries (§IV-A1, §V-A).
///
/// The zero key has no entry — encoding it means "field unused" — so index
/// 0 of the backing array is permanently empty.
///
/// # Example
///
/// ```
/// use ede_core::Edm;
/// use ede_isa::{Edk, InstId};
///
/// let mut edm = Edm::new();
/// let k = Edk::new(2).unwrap();
/// edm.define(k, InstId(7));
/// assert_eq!(edm.lookup(k), Some(InstId(7)));
/// edm.clear_matching(InstId(7));
/// assert_eq!(edm.lookup(k), None);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Edm {
    entries: [Option<InstId>; NUM_EDKS],
}

impl Edm {
    /// An empty map.
    pub fn new() -> Edm {
        Edm::default()
    }

    /// The current producer bound to `key`, if any. The zero key never has
    /// a producer.
    pub fn lookup(&self, key: Edk) -> Option<InstId> {
        if key.is_zero() {
            None
        } else {
            self.entries[key.index() as usize]
        }
    }

    /// Binds `key` to producer `id`, replacing any previous binding.
    /// Defining the zero key is a no-op (the field was unused).
    pub fn define(&mut self, key: Edk, id: InstId) {
        if !key.is_zero() {
            self.entries[key.index() as usize] = Some(id);
        }
    }

    /// Clears every entry currently bound to `id`.
    ///
    /// Called when a dependence producer completes: the hardware queries
    /// the producer's entry and clears it if the stored ID still matches
    /// (§V-A). A younger producer may have overwritten the entry, in which
    /// case it is left alone.
    pub fn clear_matching(&mut self, id: InstId) {
        for entry in &mut self.entries {
            if *entry == Some(id) {
                *entry = None;
            }
        }
    }
}

/// The execution dependences an instruction was found to consume at
/// decode: zero, one (memory variants, `WAIT_KEY`), or two (`JOIN`)
/// source instruction IDs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConsumedDeps {
    /// Source bound to `EDK_use` (or the `WAIT_KEY` key).
    pub src1: Option<InstId>,
    /// Source bound to `JOIN`'s `EDK_use2`.
    pub src2: Option<InstId>,
}

impl ConsumedDeps {
    /// Whether no execution dependence was found.
    pub fn is_empty(&self) -> bool {
        self.src1.is_none() && self.src2.is_none()
    }

    /// The distinct dependence sources, oldest first.
    pub fn sources(&self) -> impl Iterator<Item = InstId> {
        let (older, younger) = match (self.src1, self.src2) {
            (Some(a), Some(b)) if b < a => (Some(b), Some(a)),
            (Some(a), Some(b)) if a == b => (Some(a), None),
            (a, b) => (a, b),
        };
        older.into_iter().chain(younger)
    }
}

/// The two-copy EDM of §V-A1: a *speculative* map used by the front end
/// and a *non-speculative* map reflecting retired state only.
///
/// On a pipeline squash the speculative copy is overwritten with the
/// non-speculative copy — the same technique used for register map
/// checkpointing — and the pipeline replays the definitions of older,
/// un-retired producers ([`SpeculativeEdm::replay_spec`]).
///
/// # Example
///
/// ```
/// use ede_core::SpeculativeEdm;
/// use ede_isa::{Edk, EdkPair, Inst, InstId, Op, Reg};
///
/// let k = Edk::new(1).unwrap();
/// let p = Inst::with_edks(
///     Op::DcCvap { base: Reg::x(0).unwrap(), addr: 0 },
///     EdkPair::producer(k),
/// );
/// let mut edm = SpeculativeEdm::new();
/// edm.decode(&p, InstId(0));
/// edm.squash();                       // p was speculative: binding gone
/// assert_eq!(edm.spec().lookup(k), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SpeculativeEdm {
    spec: Edm,
    nonspec: Edm,
}

impl SpeculativeEdm {
    /// Two empty maps.
    pub fn new() -> SpeculativeEdm {
        SpeculativeEdm::default()
    }

    /// The speculative (front-end) map.
    pub fn spec(&self) -> &Edm {
        &self.spec
    }

    /// The non-speculative (retired-state) map.
    pub fn nonspec(&self) -> &Edm {
        &self.nonspec
    }

    /// Decode-time EDM access (§IV-A1): first search for the dependences
    /// the instruction consumes, then record the key it produces.
    ///
    /// `WAIT_KEY` both consumes and produces its key; note that its full
    /// "wait for *all* older producers" semantics additionally needs the
    /// pipeline's record of every incomplete producer of the key — the
    /// EDM alone only yields the most recent one.
    pub fn decode(&mut self, inst: &Inst, id: InstId) -> ConsumedDeps {
        let mut deps = ConsumedDeps::default();
        match inst.op {
            Op::Join { use2 } => {
                deps.src1 = self.spec.lookup(inst.edks.use_);
                deps.src2 = self.spec.lookup(use2);
                self.spec.define(inst.edks.def, id);
            }
            Op::WaitKey { key } => {
                deps.src1 = self.spec.lookup(key);
                self.spec.define(key, id);
            }
            Op::WaitAllKeys => {
                // Consumes "everything": the pipeline tracks every
                // incomplete EDE instruction; the EDM has nothing to add.
            }
            _ => {
                deps.src1 = self.spec.lookup(inst.edks.use_);
                self.spec.define(inst.edks.def, id);
            }
        }
        deps
    }

    /// Retire-time update: replays the instruction's key definition onto
    /// the non-speculative map.
    ///
    /// Callers must skip instructions that already completed (possible
    /// for producers whose completion point precedes retirement, e.g.
    /// loads): a completed producer imposes no dependence, and replaying
    /// its definition would leave a stale binding to survive a squash.
    pub fn retire(&mut self, inst: &Inst, id: InstId) {
        match inst.op {
            Op::Join { .. } => self.nonspec.define(inst.edks.def, id),
            Op::WaitKey { key } => self.nonspec.define(key, id),
            Op::WaitAllKeys => {}
            _ => self.nonspec.define(inst.edks.def, id),
        }
    }

    /// Completion-time update: clears `id` from both maps (a completed
    /// producer imposes no further waiting).
    pub fn complete(&mut self, id: InstId) {
        self.spec.clear_matching(id);
        self.nonspec.clear_matching(id);
    }

    /// Pipeline squash: the speculative map is restored from the
    /// non-speculative map (§V-A1).
    ///
    /// Producers that are older than the squash point but not yet retired
    /// are *not* part of the non-speculative map; the pipeline must replay
    /// their definitions afterwards with [`replay_spec`](Self::replay_spec)
    /// (the EDM analogue of walking the ROB to repair a rename map).
    pub fn squash(&mut self) {
        self.spec = self.nonspec.clone();
    }

    /// Re-applies an un-retired instruction's key definition to the
    /// speculative map during squash recovery.
    pub fn replay_spec(&mut self, inst: &Inst, id: InstId) {
        match inst.op {
            Op::Join { .. } => self.spec.define(inst.edks.def, id),
            Op::WaitKey { key } => self.spec.define(key, id),
            Op::WaitAllKeys => {}
            _ => self.spec.define(inst.edks.def, id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{EdkPair, Reg};

    fn k(n: u8) -> Edk {
        Edk::new(n).unwrap()
    }

    fn producer(key: Edk) -> Inst {
        Inst::with_edks(
            Op::DcCvap {
                base: Reg::x(0).unwrap(),
                addr: 0,
            },
            EdkPair::producer(key),
        )
    }

    fn consumer(key: Edk) -> Inst {
        Inst::with_edks(
            Op::Str {
                src: Reg::x(1).unwrap(),
                base: Reg::x(2).unwrap(),
                addr: 0,
                value: 0,
            },
            EdkPair::consumer(key),
        )
    }

    #[test]
    fn sources_are_distinct_and_oldest_first() {
        let deps = |src1, src2| ConsumedDeps { src1, src2 }.sources().collect::<Vec<_>>();
        let (a, b) = (InstId(1), InstId(3));
        assert_eq!(deps(Some(b), Some(a)), [a, b]);
        assert_eq!(deps(Some(a), Some(b)), [a, b]);
        assert_eq!(deps(Some(a), Some(a)), [a]);
        assert_eq!(deps(None, Some(b)), [b]);
        assert_eq!(deps(None, None), []);
    }

    #[test]
    fn zero_key_is_inert() {
        let mut edm = Edm::new();
        edm.define(Edk::ZERO, InstId(3));
        assert_eq!(edm.lookup(Edk::ZERO), None);
        assert!(edm.entries.iter().all(Option::is_none));
    }

    #[test]
    fn define_overwrites() {
        let mut edm = Edm::new();
        edm.define(k(1), InstId(1));
        edm.define(k(1), InstId(2));
        assert_eq!(edm.lookup(k(1)), Some(InstId(2)));
    }

    #[test]
    fn clear_matching_leaves_overwritten_entries() {
        let mut edm = Edm::new();
        edm.define(k(1), InstId(1));
        edm.define(k(1), InstId(2));
        // Instruction 1 completes late; its entry was already overwritten.
        edm.clear_matching(InstId(1));
        assert_eq!(edm.lookup(k(1)), Some(InstId(2)));
    }

    #[test]
    fn figure6_links() {
        // Figure 6: deps 1→6, 2→9, 3→(4,5), 7→8 using keys 1, 2, 3, then
        // key 1 reused by instruction 7.
        let mut edm = SpeculativeEdm::new();
        let seq = [
            (producer(k(1)), InstId(1)),
            (producer(k(2)), InstId(2)),
            (producer(k(3)), InstId(3)),
            (consumer(k(3)), InstId(4)),
            (consumer(k(3)), InstId(5)),
            (consumer(k(1)), InstId(6)),
            (producer(k(1)), InstId(7)),
            (consumer(k(1)), InstId(8)),
            (consumer(k(2)), InstId(9)),
        ];
        let mut found = Vec::new();
        for (inst, id) in &seq {
            let deps = edm.decode(inst, *id);
            for s in deps.sources() {
                found.push((s, *id));
            }
        }
        assert_eq!(
            found,
            vec![
                (InstId(3), InstId(4)),
                (InstId(3), InstId(5)),
                (InstId(1), InstId(6)),
                (InstId(7), InstId(8)),
                (InstId(2), InstId(9)),
            ]
        );
    }

    #[test]
    fn completed_producer_imposes_no_dependence() {
        let mut edm = SpeculativeEdm::new();
        edm.decode(&producer(k(1)), InstId(0));
        edm.complete(InstId(0));
        let deps = edm.decode(&consumer(k(1)), InstId(1));
        assert!(deps.is_empty());
    }

    #[test]
    fn squash_restores_nonspec_state() {
        let mut edm = SpeculativeEdm::new();
        let p_old = producer(k(1));
        edm.decode(&p_old, InstId(0));
        edm.retire(&p_old, InstId(0)); // retired: part of non-spec state

        let p_new = producer(k(1));
        edm.decode(&p_new, InstId(5)); // speculative redefinition
        assert_eq!(edm.spec().lookup(k(1)), Some(InstId(5)));

        edm.squash();
        assert_eq!(edm.spec().lookup(k(1)), Some(InstId(0)));
    }

    #[test]
    fn squash_then_new_consumer_links_to_retired_producer() {
        let mut edm = SpeculativeEdm::new();
        let p = producer(k(2));
        edm.decode(&p, InstId(0));
        edm.retire(&p, InstId(0));
        edm.decode(&producer(k(2)), InstId(3)); // will be squashed
        edm.squash();
        let deps = edm.decode(&consumer(k(2)), InstId(4));
        assert_eq!(deps.sources().collect::<Vec<_>>(), [InstId(0)]);
    }

    #[test]
    fn join_consumes_two_keys() {
        let mut edm = SpeculativeEdm::new();
        edm.decode(&producer(k(1)), InstId(0));
        edm.decode(&producer(k(2)), InstId(1));
        let join = Inst::with_edks(Op::Join { use2: k(2) }, EdkPair::new(k(3), k(1)));
        let deps = edm.decode(&join, InstId(2));
        assert_eq!(deps.sources().collect::<Vec<_>>(), [InstId(0), InstId(1)]);
        // JOIN is itself a producer of key 3.
        let deps2 = edm.decode(&consumer(k(3)), InstId(3));
        assert_eq!(deps2.sources().collect::<Vec<_>>(), [InstId(2)]);
    }

    #[test]
    fn wait_key_is_producer_and_consumer() {
        let mut edm = SpeculativeEdm::new();
        edm.decode(&producer(k(4)), InstId(0));
        let w = Inst::plain(Op::WaitKey { key: k(4) });
        let deps = edm.decode(&w, InstId(1));
        assert_eq!(deps.sources().collect::<Vec<_>>(), [InstId(0)]);
        // Later consumers now link to the WAIT_KEY.
        let deps2 = edm.decode(&consumer(k(4)), InstId(2));
        assert_eq!(deps2.sources().collect::<Vec<_>>(), [InstId(1)]);
    }

    #[test]
    fn completion_clears_both_copies() {
        let mut edm = SpeculativeEdm::new();
        let p = producer(k(1));
        edm.decode(&p, InstId(0));
        edm.retire(&p, InstId(0));
        edm.complete(InstId(0));
        assert_eq!(edm.spec().lookup(k(1)), None);
        assert_eq!(edm.nonspec().lookup(k(1)), None);
    }
}
