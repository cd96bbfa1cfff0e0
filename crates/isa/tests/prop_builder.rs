//! Property tests: every trace the builder can produce is well formed.

use ede_isa::{disasm, Edk, EdkPair, TraceBuilder};
use ede_util::check::{self, any, strings, Just, Strategy};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};

/// One abstract builder action.
#[derive(Clone, Debug)]
enum Action {
    Store { addr_idx: u8, value: u64, key: u8 },
    StorePair { addr_idx: u8, values: [u64; 2] },
    Load { addr_idx: u8, value: u64 },
    Cvap { addr_idx: u8, key: u8 },
    Dsb,
    DmbSt,
    DmbSy,
    Join { def: u8, u1: u8, u2: u8 },
    WaitKey { key: u8 },
    WaitAll,
    Compute { n: u8 },
    Branch { mispredict: bool },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..16, any::<u64>(), 0u8..16).prop_map(|(a, v, k)| Action::Store {
            addr_idx: a,
            value: v,
            key: k
        }),
        (0u8..16, any::<[u64; 2]>()).prop_map(|(a, values)| Action::StorePair {
            addr_idx: a,
            values
        }),
        (0u8..16, any::<u64>()).prop_map(|(a, v)| Action::Load {
            addr_idx: a,
            value: v
        }),
        (0u8..16, 0u8..16).prop_map(|(a, k)| Action::Cvap {
            addr_idx: a,
            key: k
        }),
        Just(Action::Dsb),
        Just(Action::DmbSt),
        Just(Action::DmbSy),
        (0u8..16, 0u8..16, 0u8..16).prop_map(|(def, u1, u2)| Action::Join { def, u1, u2 }),
        (1u8..16).prop_map(|key| Action::WaitKey { key }),
        Just(Action::WaitAll),
        (1u8..8).prop_map(|n| Action::Compute { n }),
        any::<bool>().prop_map(|mispredict| Action::Branch { mispredict }),
    ]
}

fn addr(idx: u8) -> u64 {
    // A mix of DRAM and NVM lines, 16-byte aligned for STP.
    if idx.is_multiple_of(2) {
        0x2000 + u64::from(idx) * 0x50 * 16
    } else {
        0x1_0000_0000 + u64::from(idx) * 0x50 * 16
    }
}

fn key(k: u8) -> Edk {
    Edk::new(k % 16).expect("in range")
}

fn build(actions: &[Action]) -> ede_isa::Program {
    let mut b = TraceBuilder::new();
    for a in actions {
        match *a {
            Action::Store {
                addr_idx,
                value,
                key: k,
            } => {
                let base = b.lea(addr(addr_idx));
                b.store_to_edk(base, addr(addr_idx), value, EdkPair::consumer(key(k)));
                b.release(base);
            }
            Action::StorePair { addr_idx, values } => {
                let base = b.lea(addr(addr_idx));
                b.store_pair_to(base, addr(addr_idx), values);
                b.release(base);
            }
            Action::Load { addr_idx, value } => {
                b.load(addr(addr_idx), value);
            }
            Action::Cvap { addr_idx, key: k } => {
                b.cvap_producing(addr(addr_idx), key(k));
            }
            Action::Dsb => {
                b.dsb_sy();
            }
            Action::DmbSt => {
                b.dmb_st();
            }
            Action::DmbSy => {
                b.dmb_sy();
            }
            Action::Join { def, u1, u2 } => {
                b.join(key(def), key(u1), key(u2));
            }
            Action::WaitKey { key: k } => {
                b.wait_key(key(k));
            }
            Action::WaitAll => {
                b.wait_all_keys();
            }
            Action::Compute { n } => {
                b.compute_chain(n as usize);
            }
            Action::Branch { mispredict } => {
                let l = b.mov_imm(1);
                let r = b.mov_imm(2);
                b.cmp_branch(l, r, mispredict);
            }
        }
    }
    b.finish()
}

/// Replaces the old proptest regex strategy
/// `"(str|ldr|…) [x0-9#@,\[\]\(\) ]{0,30}"`: a real mnemonic followed by
/// operand-shaped garbage.
fn mnemonic_garbage() -> impl Strategy<Value = String> {
    const MNEMONICS: &[&str] = &[
        "str", "ldr", "stp", "mov", "add", "cmp", "dc", "dsb", "dmb", "join", "wait_key", "nop",
    ];
    (
        0usize..MNEMONICS.len(),
        strings::from_charset("x0123456789#@,[]() ", 0..31),
    )
        .prop_map(|(m, tail)| format!("{} {}", MNEMONICS[m], tail))
}

fn garbage_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("str".to_string()),
        Just("str (".to_string()),
        Just("ldr x1".to_string()),
        Just("dc cvap".to_string()),
        Just("join (1,2".to_string()),
        Just("mov x1 #2".to_string()),
        mnemonic_garbage().boxed(),
    ]
}

property! {
    fn built_traces_always_validate(actions in check::vec(action_strategy(), 0..60)) {
        let p = build(&actions);
        prop_assert!(p.validate().is_ok());
    }

    fn disassembly_never_panics_and_is_nonempty(
        actions in check::vec(action_strategy(), 1..40)
    ) {
        let p = build(&actions);
        let text = disasm::listing(&p);
        prop_assert!(!text.is_empty());
        prop_assert_eq!(text.lines().count(), p.len());
    }

    fn src_regs_exclude_zero_register(actions in check::vec(action_strategy(), 1..40)) {
        let p = build(&actions);
        for (_, inst) in p.iter() {
            for r in inst.src_regs() {
                prop_assert!(!r.is_zero());
            }
            if let Some(d) = inst.dst_reg() {
                prop_assert!(!d.is_zero());
            }
        }
    }

    fn encoding_roundtrips_static_fields(
        actions in check::vec(action_strategy(), 1..50)
    ) {
        use ede_isa::encode::{decode, encode, StaticInst};
        let p = build(&actions);
        for (_, inst) in p.iter() {
            let word = encode(inst);
            let decoded = decode(word);
            prop_assert_eq!(decoded, Ok(StaticInst::of(inst)));
        }
    }

    fn assembly_roundtrips(actions in check::vec(action_strategy(), 1..50)) {
        use ede_isa::asm::{assemble, listing_annotated};
        let p = build(&actions);
        let text = listing_annotated(&p);
        let q = assemble(&text).expect("own listing assembles");
        prop_assert_eq!(q, p);
    }

    fn assembler_never_panics_on_garbage(text in strings::printable(0..200)) {
        // Arbitrary printable input: must return Ok or Err, never panic.
        let _ = ede_isa::asm::assemble(&text);
    }

    fn assembler_never_panics_on_mnemonic_like_garbage(
        lines in check::vec(garbage_line(), 0..20)
    ) {
        let text = lines.join("\n");
        let _ = ede_isa::asm::assemble(&text);
    }

    fn execution_deps_point_backwards(actions in check::vec(action_strategy(), 1..60)) {
        let p = build(&actions);
        for (producer, consumer) in ede_core_deps(&p) {
            prop_assert!(producer < consumer);
        }
    }
}

// Local re-implementation hook: the ordering module lives in ede-core, a
// dev-dependency would create a cycle, so derive the same pairs here via
// the public EDM (architectural semantics).
fn ede_core_deps(p: &ede_isa::Program) -> Vec<(ede_isa::InstId, ede_isa::InstId)> {
    use ede_isa::Op;
    let mut latest: [Option<ede_isa::InstId>; 16] = [None; 16];
    let mut out = Vec::new();
    for (id, inst) in p.iter() {
        let consume = |k: Edk, out: &mut Vec<_>| {
            if !k.is_zero() {
                if let Some(prod) = latest[k.index() as usize] {
                    out.push((prod, id));
                }
            }
        };
        match inst.op {
            Op::Join { use2 } => {
                consume(inst.edks.use_, &mut out);
                consume(use2, &mut out);
            }
            Op::WaitKey { key } => consume(key, &mut out),
            Op::WaitAllKeys => {}
            _ => consume(inst.edks.use_, &mut out),
        }
        let def = match inst.op {
            Op::WaitKey { key } => key,
            _ => inst.edks.def,
        };
        if !def.is_zero() {
            latest[def.index() as usize] = Some(id);
        }
    }
    out
}
