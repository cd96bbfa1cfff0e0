//! Golden-model edge cases at the boundaries the fuzzer's distribution
//! only grazes: store pairs at the tail of the generator's two-line slot
//! window, `WAIT_ALL_KEYS` with nothing outstanding, and key recycling
//! far past the 15-key architectural space. Each scenario is checked
//! twice — directly against the golden interpreter's persist accounting,
//! and differentially through `diff_case` on the crash-safe trio.

use ede_check::fuzz::diff_case;
use ede_check::gen::{slot_addr, Cmd, SLOTS, SLOT_BASE};
use ede_check::golden::{run, GoldenConfig, GoldenRun};
use ede_isa::{ArchConfig, TraceBuilder};
use ede_mem::trace::nvm_image_at;
use ede_util::idmap::WordMap;

const NVM: u64 = 0x1_0000_0000;
const TRIO: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// The NVM image the golden run leaves when it completes.
fn image(g: &GoldenRun) -> WordMap {
    nvm_image_at(&g.trace, g.trace.horizon(), 64)
}

fn assert_conformant(cmds: &[Cmd]) {
    for arch in TRIO {
        let diffs = diff_case(cmds, arch, None);
        assert!(diffs.is_empty(), "{arch}: {diffs:?}");
    }
}

/// An STP at the last 16-aligned address of line 0 (words +48/+56) must
/// persist entirely with line 0, never bleeding into line 1; the store at
/// +64 opening line 1 persists separately.
#[test]
fn stp_at_the_line_boundary_persists_per_line() {
    let mut b = TraceBuilder::new();
    let base = b.lea(NVM + 48);
    b.store_pair_to(base, NVM + 48, [41, 42]); // line-0 tail
    b.release(base);
    b.store(NVM + 64, 43); // line-1 head
    b.cvap(NVM); // flush line 0 only
    let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
    assert_eq!(g.trace.persists.len(), 1);
    assert_eq!(g.trace.persists[0].line, NVM);
    let img = image(&g);
    assert_eq!(img.get(&(NVM + 48)), Some(&41));
    assert_eq!(img.get(&(NVM + 56)), Some(&42));
    assert_eq!(img.get(&(NVM + 64)), None, "line 1 is unflushed");

    let mut b = TraceBuilder::new();
    let base = b.lea(NVM + 48);
    b.store_pair_to(base, NVM + 48, [41, 42]);
    b.release(base);
    b.store(NVM + 64, 43);
    b.cvap(NVM + 64); // flush line 1 only
    let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
    assert_eq!(g.trace.persists.len(), 1);
    assert_eq!(g.trace.persists[0].line, NVM + 64);
    let img = image(&g);
    assert_eq!(img.get(&(NVM + 48)), None, "line 0 is unflushed");
    assert_eq!(img.get(&(NVM + 64)), Some(&43));
}

/// The generator's highest slots map to both edges of the window: slot 7
/// pairs at the line-0 tail (+48), slot 11 at line 1 (+80). The pipeline
/// must agree with the golden model on both, aliasing included.
#[test]
fn store_pairs_at_the_window_edges_conform() {
    assert_eq!(slot_addr(7) & !15, SLOT_BASE + 48);
    assert_eq!(slot_addr(11) & !15, SLOT_BASE + 80);
    assert_conformant(&[
        Cmd::StorePair { slot: 7, key: 0 },
        Cmd::Cvap { slot: 7, key: 1 },
        Cmd::StorePair { slot: 11, key: 1 },
        Cmd::Store { slot: 7, key: 0 }, // aliases the pair's second word
        Cmd::Cvap { slot: 11, key: 0 },
        Cmd::WaitAllKeys,
        Cmd::Cvap { slot: 7, key: 0 },
    ]);
}

/// `WAIT_ALL_KEYS` with zero outstanding keys is architecturally a no-op:
/// alone, first in the program, and doubled.
#[test]
fn wait_all_keys_with_nothing_outstanding() {
    let mut b = TraceBuilder::new();
    b.wait_all_keys();
    let g = run(&b.finish(), &GoldenConfig::default()).unwrap();
    assert_eq!(g.trace, Default::default());

    assert_conformant(&[Cmd::WaitAllKeys]);
    assert_conformant(&[Cmd::WaitAllKeys, Cmd::WaitAllKeys]);
    assert_conformant(&[
        Cmd::WaitAllKeys, // leading: no key has ever been produced
        Cmd::Store { slot: 0, key: 0 },
        Cmd::Cvap { slot: 0, key: 1 },
        Cmd::WaitAllKeys, // key 1 outstanding
        Cmd::WaitAllKeys, // and again, now satisfied
    ]);
}

/// Producers cycling through every architectural key 1..=15 twice over —
/// each key is defined, consumed, and *redefined* — with interleaved
/// consumers and a final `WAIT_ALL_KEYS`. Exercises the key-recycling
/// path the paper's 15-key space forces on long transactions.
#[test]
fn key_exhaustion_recycling_conforms() {
    let mut cmds = Vec::new();
    for round in 0..30u8 {
        let key = round % 15 + 1;
        let slot = round % SLOTS;
        cmds.push(Cmd::Store { slot, key: 0 });
        cmds.push(Cmd::Cvap { slot, key });
        // A consumer ordered behind the just-produced key.
        cmds.push(Cmd::Store {
            slot: (slot + 1) % SLOTS,
            key,
        });
        if round % 7 == 6 {
            cmds.push(Cmd::WaitAllKeys);
        }
    }
    cmds.push(Cmd::WaitAllKeys);

    let g = run(&ede_check::gen::concretize(&cmds), &GoldenConfig::default()).unwrap();
    assert_eq!(g.trace.stores.len(), 60);
    assert_conformant(&cmds);
}
