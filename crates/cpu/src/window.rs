//! The core's in-flight window: every dispatched instruction that has
//! not yet completed (§IV-B1), indexed by instruction class.
//!
//! Every ordering wait the pipeline models asks one question — is an
//! older instruction of some class still incomplete? — so one index
//! answers all of them; each [`Class`] names the rules that read it.
//! The `Ede` and `Producer` classes are the WB design's overall and
//! per-key counters of outstanding EDE instructions (§V-D) as sorted
//! lists, which also answer the IQ design's program-order question.
//!
//! The window changes at exactly three points: [`insert`](Window::insert)
//! at dispatch, [`complete`](Window::complete) at completion and
//! [`squash_younger`](Window::squash_younger) at a squash.

use ede_isa::{Edk, Inst, InstId, InstKind, Op, Program, NUM_EDKS};

/// An instruction class the window indexes, and the rules that read it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Class {
    /// Every instruction: the `DSB SY` retire drain, the EDM source
    /// filter, write-buffer `srcID` tags and the watchdog.
    Any,
    /// Loads, stores and writebacks: `DMB SY` completion.
    Mem,
    /// `STR` and `STP`: `DMB ST` completion and store-to-load forwarding.
    Store,
    /// `DMB SY`: younger memory ops wait at issue.
    DmbSy,
    /// `DMB ST`: younger loads, stores and writebacks wait at issue.
    DmbSt,
    /// `WAIT_ALL_KEYS`: younger EDE consumers link to it at decode.
    WaitAll,
    /// Every EDE instruction, producer, consumer or control:
    /// `WAIT_ALL_KEYS`.
    Ede,
    /// Producers of one key, a `WAIT_KEY` producing its own: `WAIT_KEY`.
    /// The zero key has no producers.
    Producer(Edk),
}

/// Classes before the per-key producer classes.
const FIXED: usize = 7;

/// Sets in the index: the fixed classes plus one producer class per key
/// (the zero key's stays empty).
const CLASSES: usize = FIXED + NUM_EDKS;

impl Class {
    fn index(self) -> usize {
        match self {
            Class::Any => 0,
            Class::Mem => 1,
            Class::Store => 2,
            Class::DmbSy => 3,
            Class::DmbSt => 4,
            Class::WaitAll => 5,
            Class::Ede => 6,
            Class::Producer(k) => FIXED + k.index() as usize,
        }
    }

    fn bit(self) -> u32 {
        1 << self.index()
    }
}

/// The classes `inst` belongs to, as a bit mask over [`Class::index`].
fn class_mask(inst: &Inst) -> u32 {
    let kind = inst.kind();
    let mut mask = Class::Any.bit();
    if matches!(kind, InstKind::Load | InstKind::Store | InstKind::Writeback) {
        mask |= Class::Mem.bit();
    }
    if kind == InstKind::Store {
        mask |= Class::Store.bit();
    }
    match inst.op {
        Op::DmbSy => mask |= Class::DmbSy.bit(),
        Op::DmbSt => mask |= Class::DmbSt.bit(),
        Op::WaitAllKeys => mask |= Class::WaitAll.bit(),
        _ => {}
    }
    if inst.is_ede() {
        mask |= Class::Ede.bit();
        let key = match inst.op {
            Op::WaitKey { key } => key,
            _ => inst.edks.def,
        };
        if !key.is_zero() {
            mask |= Class::Producer(key).bit();
        }
    }
    mask
}

/// The in-flight index (see the [module documentation](self)).
///
/// Dispatch runs in program order and a squash drops everything younger
/// than its cut before the refetch, so every insert is younger than every
/// member: each class is a sorted `Vec` that grows at its end, loses a
/// completed member by binary search and is truncated by a squash.
pub(crate) struct Window {
    /// Class mask per program instruction, computed once.
    masks: Vec<u32>,
    /// Incomplete members, per class, oldest first.
    sets: [Vec<InstId>; CLASSES],
}

/// The classes in `mask`, as indices into [`Window::sets`].
fn classes_in(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            c
        })
    })
}

impl Window {
    /// An empty window over `program`'s instructions.
    pub(crate) fn new(program: &Program) -> Window {
        Window {
            masks: program.iter().map(|(_, inst)| class_mask(inst)).collect(),
            sets: Default::default(),
        }
    }

    /// Enters a dispatched instruction into every class it belongs to.
    pub(crate) fn insert(&mut self, id: InstId) {
        for c in classes_in(self.masks[id.index()]) {
            let set = &mut self.sets[c];
            debug_assert!(set.last().is_none_or(|&last| last < id));
            set.push(id);
        }
    }

    /// Removes a completed instruction from every class.
    pub(crate) fn complete(&mut self, id: InstId) {
        for c in classes_in(self.masks[id.index()]) {
            let set = &mut self.sets[c];
            if let Ok(at) = set.binary_search(&id) {
                set.remove(at);
            }
        }
    }

    /// Drops every instruction younger than `id` (a squash at `id`).
    pub(crate) fn squash_younger(&mut self, id: InstId) {
        for set in &mut self.sets {
            let keep = set.partition_point(|&m| m <= id);
            set.truncate(keep);
        }
    }

    /// [`older`](Self::older) as a slice.
    fn older_slice(&self, class: Class, id: InstId) -> &[InstId] {
        let set = &self.sets[class.index()];
        &set[..set.partition_point(|&m| m < id)]
    }

    /// The incomplete members of `class` older than `id`, oldest first.
    pub(crate) fn older(
        &self,
        class: Class,
        id: InstId,
    ) -> impl DoubleEndedIterator<Item = InstId> + '_ {
        self.older_slice(class, id).iter().copied()
    }

    /// Whether any incomplete member of `class` is older than `id`.
    pub(crate) fn has_older(&self, class: Class, id: InstId) -> bool {
        self.sets[class.index()].first().is_some_and(|&m| m < id)
    }

    /// The youngest incomplete member of `class` older than `id`.
    pub(crate) fn youngest_older(&self, class: Class, id: InstId) -> Option<InstId> {
        self.older_slice(class, id).last().copied()
    }

    /// Every incomplete member of `class`, oldest first.
    pub(crate) fn iter(&self, class: Class) -> impl Iterator<Item = InstId> + '_ {
        self.sets[class.index()].iter().copied()
    }

    /// Whether instruction `id` belongs to `class`, in flight or not.
    pub(crate) fn is(&self, class: Class, id: InstId) -> bool {
        self.masks[id.index()] & class.bit() != 0
    }

    /// Whether `id` is dispatched and incomplete.
    pub(crate) fn contains(&self, id: InstId) -> bool {
        self.sets[Class::Any.index()].binary_search(&id).is_ok()
    }

    /// Number of incomplete members of `class`.
    pub(crate) fn len(&self, class: Class) -> usize {
        self.sets[class.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_isa::{EdkPair, Reg};
    use ede_util::check;
    use ede_util::{prop_assert_eq, property};

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

    fn nop() -> Inst {
        Inst::plain(Op::Nop)
    }

    /// A window over `insts`, padded with `NOP`s to `len` instructions.
    fn window(insts: &[(u64, Inst)], len: u64) -> Window {
        let program: Program = (0..len)
            .map(|id| {
                insts
                    .iter()
                    .find(|(at, _)| *at == id)
                    .map_or_else(nop, |(_, i)| i.clone())
            })
            .collect();
        Window::new(&program)
    }

    #[test]
    fn non_ede_instructions_join_no_ede_class() {
        // A consumer of the zero key is a plain store.
        let mut w = window(&[(1, consumer(Edk::ZERO))], 2);
        w.insert(InstId(0));
        w.insert(InstId(1));
        assert_eq!(w.len(Class::Ede), 0);
        assert_eq!(w.len(Class::Any), 2);
        assert_eq!(w.iter(Class::Store).collect::<Vec<_>>(), [InstId(1)]);
    }

    #[test]
    fn wait_key_blocks_on_all_older_producers() {
        // Two producers of key 1; a WAIT_KEY at id 5 must see both.
        let mut w = window(&[(0, producer(k(1))), (3, producer(k(1)))], 6);
        w.insert(InstId(0));
        w.insert(InstId(3));
        assert!(w.has_older(Class::Producer(k(1)), InstId(5)));
        w.complete(InstId(3));
        // The EDM would have forgotten producer 0 (overwritten by 3), but
        // the window still sees it — the WAIT_KEY semantics the paper
        // needs for calling conventions.
        assert!(w.has_older(Class::Producer(k(1)), InstId(5)));
        w.complete(InstId(0));
        assert!(!w.has_older(Class::Producer(k(1)), InstId(5)));
    }

    #[test]
    fn producers_younger_than_wait_do_not_block_it() {
        let mut w = window(&[(9, producer(k(1)))], 10);
        w.insert(InstId(9));
        assert!(!w.has_older(Class::Producer(k(1)), InstId(5)));
        assert!(w.has_older(Class::Producer(k(1)), InstId(10)));
    }

    #[test]
    fn wait_all_sees_consumers_too() {
        let mut w = window(&[(1, consumer(k(2)))], 2);
        w.insert(InstId(1));
        assert!(w.has_older(Class::Ede, InstId(4)));
        assert_eq!(w.len(Class::Producer(k(2))), 0); // a consumer produces nothing
        assert_eq!(w.len(Class::Ede), 1);
        w.complete(InstId(1));
        assert!(!w.has_older(Class::Ede, InstId(4)));
    }

    #[test]
    fn wait_key_instruction_is_tracked_as_producer_of_its_key() {
        let mut w = window(&[(2, Inst::plain(Op::WaitKey { key: k(3) }))], 3);
        w.insert(InstId(2));
        assert_eq!(w.len(Class::Producer(k(3))), 1);
        w.complete(InstId(2));
        assert_eq!(w.len(Class::Producer(k(3))), 0);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut w = window(
            &[
                (1, producer(k(1))),
                (8, producer(k(1))),
                (9, consumer(k(1))),
            ],
            10,
        );
        for id in [1, 8, 9] {
            w.insert(InstId(id));
        }
        w.squash_younger(InstId(5));
        assert_eq!(w.len(Class::Producer(k(1))), 1);
        assert_eq!(w.len(Class::Ede), 1);
        assert!(w.has_older(Class::Producer(k(1)), InstId(5)));
        // The squash point itself survives.
        let mut w = window(&[(5, producer(k(1)))], 6);
        w.insert(InstId(5));
        w.squash_younger(InstId(5));
        assert!(w.contains(InstId(5)));
    }

    #[test]
    fn counters_match_paper_semantics() {
        let insts: Vec<(u64, Inst)> = (0..4).map(|i| (i, producer(k(5)))).collect();
        let mut w = window(&insts, 4);
        for i in 0..4 {
            w.insert(InstId(i));
        }
        assert_eq!(w.len(Class::Producer(k(5))), 4);
        assert_eq!(w.len(Class::Ede), 4);
        for i in 0..4 {
            w.complete(InstId(i));
        }
        assert_eq!(w.len(Class::Producer(k(5))), 0);
        assert_eq!(w.len(Class::Ede), 0);
    }

    /// One instruction of the random programs: an opcode choice and a key.
    fn inst_of(choice: u8, key: u8) -> Inst {
        let key = Edk::new(key % 16).expect("in range");
        let (x0, x1) = (Reg::x(0).unwrap(), Reg::x(1).unwrap());
        let addr = u64::from(key.index()) * 8;
        match choice % 13 {
            0 => producer(key),
            1 => consumer(key),
            2 => consumer(Edk::ZERO), // a plain store
            3 => Inst::plain(Op::Stp {
                src1: x1,
                src2: x1,
                base: x0,
                addr,
                values: [0, 0],
            }),
            4 => Inst::with_edks(
                Op::Ldr {
                    dst: x1,
                    base: x0,
                    addr,
                    value: 0,
                },
                EdkPair::consumer(key),
            ),
            5 => producer(Edk::ZERO), // a plain writeback
            6 => Inst::plain(Op::DmbSy),
            7 => Inst::plain(Op::DmbSt),
            8 => Inst::plain(Op::DsbSy),
            9 => Inst::plain(Op::WaitKey { key }),
            10 => Inst::plain(Op::WaitAllKeys),
            11 => Inst::with_edks(Op::Join { use2: key }, EdkPair::new(key, Edk::ZERO)),
            _ => nop(),
        }
    }

    /// Class membership written out rule by rule, independently of
    /// [`class_mask`].
    fn member(class: Class, inst: &Inst) -> bool {
        match class {
            Class::Any => true,
            Class::Mem => matches!(
                inst.op,
                Op::Ldr { .. } | Op::Str { .. } | Op::Stp { .. } | Op::DcCvap { .. }
            ),
            Class::Store => matches!(inst.op, Op::Str { .. } | Op::Stp { .. }),
            Class::DmbSy => inst.op == Op::DmbSy,
            Class::DmbSt => inst.op == Op::DmbSt,
            Class::WaitAll => inst.op == Op::WaitAllKeys,
            Class::Ede => inst.is_ede(),
            // The zero key is never tracked, not even for a WAIT_KEY.
            Class::Producer(key) => {
                !key.is_zero()
                    && match inst.op {
                        Op::WaitKey { key: w } => w == key,
                        _ => inst.is_ede() && inst.edks.def == key,
                    }
            }
        }
    }

    fn all_classes() -> impl Iterator<Item = Class> {
        use Class::*;
        [Any, Mem, Store, DmbSy, DmbSt, WaitAll, Ede]
            .into_iter()
            .chain((0..16).map(|n| Producer(Edk::new(n).unwrap())))
    }

    /// Random dispatch / complete / squash sequences over random
    /// instructions: every query equals a brute-force scan of the live
    /// list. Dispatch runs in program order and a squash refetches from
    /// just past its cut, as the pipeline does.
    fn matches_reference_impl(insts: &[(u8, u8)], actions: &[(u8, u8)]) -> check::CaseResult {
        let insts: Vec<Inst> = insts.iter().map(|&(c, key)| inst_of(c, key)).collect();
        let mut w = Window::new(&insts.iter().cloned().collect());
        let mut live: Vec<InstId> = Vec::new();
        let mut next = 0u64;
        for &(action, pick) in actions {
            match action % 4 {
                0 | 1 => {
                    if (next as usize) < insts.len() {
                        w.insert(InstId(next));
                        live.push(InstId(next));
                        next += 1;
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(usize::from(pick) % live.len());
                        w.complete(id);
                    }
                }
                _ => {
                    if next > 0 {
                        let cut = InstId(u64::from(pick) % next);
                        w.squash_younger(cut);
                        live.retain(|&id| id <= cut);
                        next = cut.0 + 1;
                    }
                }
            }
            for class in all_classes() {
                // `live` stays in program order: dispatch appends past
                // every live id.
                let members: Vec<InstId> = live
                    .iter()
                    .copied()
                    .filter(|id| member(class, &insts[id.index()]))
                    .collect();
                prop_assert_eq!(
                    w.iter(class).collect::<Vec<_>>(),
                    members.clone(),
                    "{:?}",
                    class
                );
                prop_assert_eq!(w.len(class), members.len());
                for (i, inst) in insts.iter().enumerate() {
                    prop_assert_eq!(w.is(class, InstId(i as u64)), member(class, inst));
                }
                for probe in (0..=next).map(InstId) {
                    let older: Vec<InstId> =
                        members.iter().copied().filter(|&m| m < probe).collect();
                    prop_assert_eq!(w.older(class, probe).collect::<Vec<_>>(), older.clone());
                    prop_assert_eq!(w.youngest_older(class, probe), older.last().copied());
                    prop_assert_eq!(w.has_older(class, probe), !older.is_empty());
                }
            }
            for id in (0..insts.len() as u64).map(InstId) {
                prop_assert_eq!(w.contains(id), live.contains(&id));
            }
        }
        Ok(())
    }

    property! {
        fn window_matches_reference(
            insts in check::vec((0u8..13, 0u8..16), 1..40),
            actions in check::vec((0u8..4, check::any::<u8>()), 1..120)
        ) {
            matches_reference_impl(&insts, &actions)?;
        }
    }
}
