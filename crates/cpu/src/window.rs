//! The core's in-flight window: every dispatched instruction that has
//! not yet completed (§IV-B1), indexed by instruction class.
//!
//! Every ordering wait the pipeline models asks one question — is an
//! older instruction of some class still incomplete? — so one index
//! answers all of them; each [`Class`] names the rules that read it.
//! The `Ede` and `Producer` classes are the WB design's overall and
//! per-key counters of outstanding EDE instructions (§V-D), kept as
//! bitmaps with member counts, which also answer the IQ design's
//! program-order question.
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

/// The classes that name a key: every producer class.
const PRODUCERS: u32 = ((1 << CLASSES) - 1) & !((1 << FIXED) - 1);

/// One class's incomplete members: a bitmap over program indices, the
/// member count, and the oldest member (meaningful while `len > 0`).
#[derive(Default)]
struct Set {
    bits: Vec<u64>,
    len: usize,
    oldest: usize,
}

impl Set {
    fn has(&self, i: usize) -> bool {
        self.len > 0 && self.bits[i / 64] >> (i % 64) & 1 != 0
    }

    fn insert(&mut self, i: usize) {
        debug_assert!(self.len == 0 || self.oldest < i);
        if self.len == 0 {
            self.oldest = i;
        }
        self.bits[i / 64] |= 1 << (i % 64);
        self.len += 1;
    }

    fn remove(&mut self, i: usize) {
        if !self.has(i) {
            return;
        }
        self.bits[i / 64] &= !(1 << (i % 64));
        self.len -= 1;
        if self.len > 0 && i == self.oldest {
            self.oldest = self.first_from(i + 1);
        }
    }

    /// The oldest member at or above `i`; one must exist.
    fn first_from(&self, i: usize) -> usize {
        let mut w = i / 64;
        let mut word = self.bits[w] & (!0 << (i % 64));
        while word == 0 {
            w += 1;
            word = self.bits[w];
        }
        w * 64 + word.trailing_zeros() as usize
    }

    /// The youngest member below `i`, if any.
    fn last_below(&self, i: usize) -> Option<usize> {
        if self.len == 0 || self.oldest >= i {
            return None;
        }
        // A probe past the program starts at its last word; `oldest` is a
        // member below `i`, so the scan stops at its word.
        let i = i.min(self.bits.len() * 64);
        let mut w = (i - 1) / 64;
        let mut word = self.bits[w] & (!0 >> (63 - (i - 1) % 64));
        while word == 0 {
            w -= 1;
            word = self.bits[w];
        }
        Some(w * 64 + 63 - word.leading_zeros() as usize)
    }

    /// Drops every member in `from..end`; no member lies at or above `end`.
    fn clear_from(&mut self, from: usize, end: usize) {
        if self.len == 0 || from >= end {
            return;
        }
        let first = from / 64;
        for w in first..=(end - 1) / 64 {
            let keep = if w == first {
                (1 << (from % 64)) - 1
            } else {
                0
            };
            self.len -= (self.bits[w] & !keep).count_ones() as usize;
            self.bits[w] &= keep;
        }
    }
}

/// The in-flight index (see the [module documentation](self)).
///
/// Dispatch runs in program order and a squash drops everything younger
/// than its cut before the refetch, so every insert is younger than every
/// member. Each class is a bitmap over program indices with its member
/// count and oldest member: membership, completion and the "any older
/// member?" test are O(1), the youngest older member is a backward word
/// scan, and a squash clears the words above its cut.
pub(crate) struct Window {
    /// Class mask per program instruction, computed once.
    masks: Vec<u32>,
    /// Incomplete members, per class. Only the classes the program uses
    /// have a bitmap.
    sets: [Set; CLASSES],
    /// One past the youngest instruction inserted since the last squash:
    /// no class has a member at or above it.
    end: usize,
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
        let mut window = Window {
            masks: Vec::new(),
            sets: Default::default(),
            end: 0,
        };
        window.reset(program);
        window
    }

    /// Empties the window and indexes `program`'s instructions, keeping
    /// the storage of the masks and bitmaps.
    pub(crate) fn reset(&mut self, program: &Program) {
        let Window { masks, sets, end } = self;
        masks.clear();
        masks.extend(program.iter().map(|(_, inst)| class_mask(inst)));
        let words = masks.len().div_ceil(64);
        let used = masks.iter().fold(0, |all, &m| all | m);
        for (c, set) in sets.iter_mut().enumerate() {
            let Set { bits, len, oldest } = set;
            bits.clear();
            if used & 1 << c != 0 {
                bits.resize(words, 0);
            }
            *len = 0;
            *oldest = 0;
        }
        *end = 0;
    }

    /// Enters a dispatched instruction into every class it belongs to.
    pub(crate) fn insert(&mut self, id: InstId) {
        let i = id.index();
        for c in classes_in(self.masks[i]) {
            self.sets[c].insert(i);
        }
        self.end = self.end.max(i + 1);
    }

    /// Removes a completed instruction from every class.
    pub(crate) fn complete(&mut self, id: InstId) {
        let i = id.index();
        for c in classes_in(self.masks[i]) {
            self.sets[c].remove(i);
        }
    }

    /// Drops every instruction younger than `id` (a squash at `id`).
    pub(crate) fn squash_younger(&mut self, id: InstId) {
        let from = id.index() + 1;
        for set in &mut self.sets {
            set.clear_from(from, self.end);
        }
        self.end = self.end.min(from);
    }

    /// The incomplete members of `class` older than `id`, youngest first.
    pub(crate) fn older_rev(&self, class: Class, id: InstId) -> impl Iterator<Item = InstId> + '_ {
        let set = &self.sets[class.index()];
        let mut below = id.index();
        std::iter::from_fn(move || {
            let m = set.last_below(below)?;
            below = m;
            Some(InstId(m as u64))
        })
    }

    /// Whether any incomplete member of `class` is older than `id`.
    pub(crate) fn has_older(&self, class: Class, id: InstId) -> bool {
        let set = &self.sets[class.index()];
        set.len > 0 && set.oldest < id.index()
    }

    /// The youngest incomplete member of `class` older than `id`.
    pub(crate) fn youngest_older(&self, class: Class, id: InstId) -> Option<InstId> {
        self.older_rev(class, id).next()
    }

    /// Every incomplete member of `class`, oldest first.
    pub(crate) fn iter(&self, class: Class) -> impl Iterator<Item = InstId> + '_ {
        let set = &self.sets[class.index()];
        let (mut at, mut left) = (set.oldest, set.len);
        std::iter::from_fn(move || {
            // Counting the members down stops the scan at the youngest.
            (left > 0).then(|| {
                let m = set.first_from(at);
                (at, left) = (m + 1, left - 1);
                InstId(m as u64)
            })
        })
    }

    /// Whether instruction `id` belongs to `class`, in flight or not.
    pub(crate) fn is(&self, class: Class, id: InstId) -> bool {
        self.masks[id.index()] & class.bit() != 0
    }

    /// Whether instruction `id` produces a key, so the EDM may bind it.
    pub(crate) fn is_producer(&self, id: InstId) -> bool {
        self.masks[id.index()] & PRODUCERS != 0
    }

    /// Whether `id` is dispatched and incomplete.
    pub(crate) fn contains(&self, id: InstId) -> bool {
        self.sets[Class::Any.index()].has(id.index())
    }

    /// Number of incomplete members of `class`.
    pub(crate) fn len(&self, class: Class) -> usize {
        self.sets[class.index()].len
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

    /// The reference's answers for one class at one probe: the members
    /// older than `probe`, youngest first (all of them when `full`).
    fn check_probe(
        w: &Window,
        class: Class,
        members: &[InstId],
        probe: InstId,
        full: bool,
    ) -> check::CaseResult {
        let older = &members[..members.partition_point(|&m| m < probe)];
        if full {
            prop_assert_eq!(
                w.older_rev(class, probe).collect::<Vec<_>>(),
                older.iter().rev().copied().collect::<Vec<_>>(),
                "{:?} below {:?}",
                class,
                probe
            );
        }
        prop_assert_eq!(w.youngest_older(class, probe), older.last().copied());
        prop_assert_eq!(w.has_older(class, probe), !older.is_empty());
        Ok(())
    }

    /// Random dispatch / complete / squash sequences over random
    /// instructions: every query equals a brute-force scan of the live
    /// list. Dispatch runs in program order and a squash refetches from
    /// just past its cut, as the pipeline does. Most squashes cut near
    /// the youngest dispatch, as a mispredicted branch does, so the
    /// window grows across the bitmaps' 64-bit word boundaries.
    fn matches_reference_impl(insts: &[(u8, u8)], actions: &[(u8, u8)]) -> check::CaseResult {
        let insts: Vec<Inst> = insts.iter().map(|&(c, key)| inst_of(c, key)).collect();
        let mut w = Window::new(&insts.iter().cloned().collect());
        for class in all_classes() {
            for (i, inst) in insts.iter().enumerate() {
                prop_assert_eq!(w.is(class, InstId(i as u64)), member(class, inst));
            }
        }
        for (i, inst) in insts.iter().enumerate() {
            let producer =
                all_classes().any(|c| matches!(c, Class::Producer(_)) && member(c, inst));
            prop_assert_eq!(w.is_producer(InstId(i as u64)), producer);
        }
        let mut live: Vec<InstId> = Vec::new();
        let mut next = 0u64;
        for (step, &(action, pick)) in actions.iter().enumerate() {
            let mut touched = None;
            match action % 16 {
                0..=10 => {
                    if (next as usize) < insts.len() {
                        w.insert(InstId(next));
                        live.push(InstId(next));
                        touched = Some(InstId(next));
                        next += 1;
                    }
                }
                11..=14 => {
                    if !live.is_empty() {
                        let id = live.remove(usize::from(pick) % live.len());
                        w.complete(id);
                        touched = Some(id);
                    }
                }
                _ => {
                    if next > 0 {
                        // Mostly a few instructions deep; one in eight
                        // anywhere.
                        let depth = if pick < 224 {
                            u64::from(pick % 8).min(next - 1)
                        } else {
                            u64::from(pick) % next
                        };
                        let cut = InstId(next - 1 - depth);
                        w.squash_younger(cut);
                        live.retain(|&id| id <= cut);
                        next = cut.0 + 1;
                        touched = Some(cut);
                    }
                }
            }
            // Every probe after the last action; a few cheap ones (the
            // ends, each member's neighbours and the touched id) before.
            let last = step + 1 == actions.len();
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
                if last {
                    for probe in (0..=next + 1).map(InstId) {
                        check_probe(&w, class, &members, probe, true)?;
                    }
                    continue;
                }
                let ends = [InstId(0), InstId(next)];
                for probe in ends.into_iter().chain(touched) {
                    check_probe(&w, class, &members, probe, true)?;
                }
                for m in &members {
                    check_probe(&w, class, &members, *m, false)?;
                    check_probe(&w, class, &members, InstId(m.0 + 1), false)?;
                }
            }
            let mut is_live = vec![false; insts.len()];
            for id in &live {
                is_live[id.index()] = true;
            }
            for (i, &live) in is_live.iter().enumerate() {
                prop_assert_eq!(w.contains(InstId(i as u64)), live);
            }
        }
        Ok(())
    }

    property! {
        fn window_matches_reference(
            insts in check::vec((0u8..13, 0u8..16), 1..200),
            actions in check::vec((0u8..16, check::any::<u8>()), 1..400)
        ) {
            matches_reference_impl(&insts, &actions)?;
        }
    }
}
