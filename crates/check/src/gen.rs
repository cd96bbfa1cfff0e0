//! The litmus fuzzer's program generator.
//!
//! Programs are generated as an abstract command list ([`Cmd`]) and only
//! then lowered ([`concretize`]) to a trace-resolved [`Program`] via
//! [`TraceBuilder`], with a running memory model supplying consistent
//! load values. Generating at the command level buys two things:
//!
//! * every generated program is **well-formed** by construction (register
//!   dataflow, `STP` alignment, trace-resolved load values), so shrinking
//!   never produces garbage; and
//! * the `Vec<Cmd>` strategy inherits `ede_util::check`'s rose-tree
//!   shrinking — chunk removal plus per-command simplification — so a
//!   failing 40-command program shrinks to a handful of commands.
//!
//! The distribution is deliberately adversarial (§VI's litmus intent):
//! keys concentrate on a small set to force reuse and exhaustion
//! pressure, addresses concentrate on a few NVM slots to force aliasing
//! stores and same-line flush/store interleavings, and fences, waits, and
//! mispredicted branches are all in the mix.

use ede_isa::{Edk, EdkPair, Program, TraceBuilder};
use ede_util::check::{self, BoxedStrategy, Strategy};
use ede_util::prop_oneof;
use std::collections::HashMap;

/// Number of distinct 8-byte slots the generator stores to. Twenty-four
/// slots span three 64-byte NVM lines — enough for the litmus idioms'
/// data/data/flag shape (each on its own line) while staying small enough
/// that aliasing and same-line interactions are constant, and that the
/// 16-entry line-coalescing persist buffer can never overflow into dirty
/// evictions (which would make the golden model's eviction-free persist
/// accounting unsound).
pub const SLOTS: u8 = 24;

/// Base address of the generator's slot array (start of NVM).
pub const SLOT_BASE: u64 = 0x1_0000_0000;

/// One abstract program step. `key`/`def`/`use*` fields are EDK numbers
/// where 0 means "no key" (a plain, non-EDE variant).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cmd {
    /// 8-byte store to a slot; `key != 0` makes it an EDE consumer.
    Store {
        /// Destination slot (0..[`SLOTS`]).
        slot: u8,
        /// Consumed key, 0 = plain store.
        key: u8,
    },
    /// 16-byte store pair at the slot's 16-aligned address.
    StorePair {
        /// Destination slot (aligned down to 16 bytes).
        slot: u8,
        /// Consumed key, 0 = plain.
        key: u8,
    },
    /// 8-byte load from a slot; `key != 0` makes it an EDE consumer.
    Load {
        /// Source slot.
        slot: u8,
        /// Consumed key, 0 = plain.
        key: u8,
    },
    /// `DC CVAP` of the slot's line; `key != 0` makes it a producer.
    Cvap {
        /// Slot whose line is cleaned.
        slot: u8,
        /// Produced key, 0 = plain.
        key: u8,
    },
    /// `JOIN (def, use1, use2)`; any key may be 0 (absent).
    Join {
        /// Produced key.
        def: u8,
        /// First consumed key.
        use1: u8,
        /// Second consumed key.
        use2: u8,
    },
    /// `WAIT_KEY (key)`; the key is never 0.
    WaitKey {
        /// The synchronized key (1..16).
        key: u8,
    },
    /// `WAIT_ALL_KEYS`.
    WaitAllKeys,
    /// `DSB SY`.
    DsbSy,
    /// `DMB ST`.
    DmbSt,
    /// `DMB SY`.
    DmbSy,
    /// A compare-and-branch pair, optionally mispredicted (squash).
    Branch {
        /// Whether the branch squashes at execute.
        mispredicted: bool,
    },
    /// A short ALU dependency chain.
    Compute {
        /// Chain length (1..4).
        n: u8,
    },
    /// `NOP`.
    Nop,
}

/// The slot's resolved virtual address.
pub fn slot_addr(slot: u8) -> u64 {
    SLOT_BASE + u64::from(slot % SLOTS) * 8
}

fn edk(n: u8) -> Option<Edk> {
    if n == 0 {
        None
    } else {
        Some(Edk::new(n & 15).expect("masked to range"))
    }
}

fn edk_or_zero(n: u8) -> Edk {
    edk(n).unwrap_or(Edk::ZERO)
}

/// Key distribution: three quarters of keyed instructions draw from
/// {1, 2, 3} (forcing reuse of live keys and exhaustion-style pressure on
/// a small set), the rest from the full space including 0 (= no key).
fn key_strategy() -> BoxedStrategy<u8> {
    prop_oneof![3 => 1u8..4, 1 => 0u8..16].boxed()
}

/// Strategy for one command, with the adversarial bias described in the
/// module docs.
pub fn cmd_strategy() -> BoxedStrategy<Cmd> {
    let slot = || 0u8..SLOTS;
    prop_oneof![
        5 => (slot(), key_strategy()).prop_map(|(slot, key)| Cmd::Store { slot, key }),
        1 => (slot(), key_strategy()).prop_map(|(slot, key)| Cmd::StorePair { slot, key }),
        2 => (slot(), key_strategy()).prop_map(|(slot, key)| Cmd::Load { slot, key }),
        4 => (slot(), key_strategy()).prop_map(|(slot, key)| Cmd::Cvap { slot, key }),
        1 => (key_strategy(), key_strategy(), key_strategy())
            .prop_map(|(def, use1, use2)| Cmd::Join { def, use1, use2 }),
        1 => (1u8..16).prop_map(|key| Cmd::WaitKey { key }),
        1 => check::Just(Cmd::WaitAllKeys),
        1 => check::Just(Cmd::DsbSy),
        1 => check::Just(Cmd::DmbSt),
        1 => check::Just(Cmd::DmbSy),
        1 => check::any::<bool>().prop_map(|mispredicted| Cmd::Branch { mispredicted }),
        1 => (1u8..4).prop_map(|n| Cmd::Compute { n }),
        1 => check::Just(Cmd::Nop),
    ]
    .boxed()
}

/// Strategy for a whole program of up to `max_cmds` commands.
pub fn cmds_strategy(max_cmds: usize) -> impl Strategy<Value = Vec<Cmd>> {
    check::vec(cmd_strategy(), 0..max_cmds.max(1))
}

/// Lowers a command list to a trace-resolved [`Program`].
///
/// Store values are distinct and monotonically increasing, so every store
/// is uniquely identified by its value — the conformance checker relies
/// on this to match pipeline store events (which carry no instruction id)
/// back to program-order stores. Load values come from a running
/// sequential memory model, so the golden interpreter accepts every
/// generated program.
pub fn concretize(cmds: &[Cmd]) -> Program {
    let mut b = TraceBuilder::new();
    let mut mem: HashMap<u64, u64> = HashMap::new();
    let mut next_val: u64 = 1;
    for cmd in cmds {
        match *cmd {
            Cmd::Store { slot, key } => {
                let addr = slot_addr(slot);
                let v = next_val;
                next_val += 1;
                match edk(key) {
                    Some(k) => b.store_consuming(addr, v, k),
                    None => b.store(addr, v),
                };
                mem.insert(addr, v);
            }
            Cmd::StorePair { slot, key } => {
                let addr = slot_addr(slot) & !15;
                let values = [next_val, next_val + 1];
                next_val += 2;
                let base = b.lea(addr);
                let edks = match edk(key) {
                    Some(k) => EdkPair::consumer(k),
                    None => EdkPair::NONE,
                };
                b.store_pair_to_edk(base, addr, values, edks);
                b.release(base);
                mem.insert(addr, values[0]);
                mem.insert(addr + 8, values[1]);
            }
            Cmd::Load { slot, key } => {
                let addr = slot_addr(slot);
                // Never-stored slots read as initial memory (zero).
                let v = *mem.entry(addr).or_insert(0);
                match edk(key) {
                    Some(k) => {
                        let base = b.lea(addr);
                        b.load_from_edk(base, addr, v, EdkPair::consumer(k));
                        b.release(base);
                    }
                    None => {
                        b.load(addr, v);
                    }
                }
            }
            Cmd::Cvap { slot, key } => {
                let addr = slot_addr(slot);
                match edk(key) {
                    Some(k) => b.cvap_producing(addr, k),
                    None => b.cvap(addr),
                };
            }
            Cmd::Join { def, use1, use2 } => {
                b.join(edk_or_zero(def), edk_or_zero(use1), edk_or_zero(use2));
            }
            Cmd::WaitKey { key } => {
                b.wait_key(edk_or_zero(if key == 0 { 1 } else { key }));
            }
            Cmd::WaitAllKeys => {
                b.wait_all_keys();
            }
            Cmd::DsbSy => {
                b.dsb_sy();
            }
            Cmd::DmbSt => {
                b.dmb_st();
            }
            Cmd::DmbSy => {
                b.dmb_sy();
            }
            Cmd::Branch { mispredicted } => {
                let lhs = b.mov_imm(1);
                let rhs = b.mov_imm(2);
                b.cmp_branch(lhs, rhs, mispredicted);
            }
            Cmd::Compute { n } => {
                b.compute_chain(usize::from(n % 4) + 1);
            }
            Cmd::Nop => {
                b.nop();
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{self, GoldenConfig};
    use ede_util::rng::SmallRng;

    #[test]
    fn generated_programs_validate_and_interpret() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let strat = cmds_strategy(40);
        for _ in 0..50 {
            let cmds = strat.generate(&mut rng).value;
            let program = concretize(&cmds); // finish() validates
            golden::run(&program, &GoldenConfig::default())
                .expect("generated traces are sequentially consistent");
        }
    }

    #[test]
    fn all_addresses_stay_in_the_three_line_window() {
        for slot in 0..=255u8 {
            let a = slot_addr(slot);
            assert!((SLOT_BASE..SLOT_BASE + 192).contains(&a));
        }
    }

    #[test]
    fn store_values_are_distinct() {
        let cmds = vec![
            Cmd::Store { slot: 0, key: 1 },
            Cmd::StorePair { slot: 0, key: 0 },
            Cmd::Store { slot: 3, key: 0 },
        ];
        let p = concretize(&cmds);
        let g = golden::run(&p, &GoldenConfig::default()).unwrap();
        let mut values: Vec<u64> = g
            .trace
            .stores
            .iter()
            .flat_map(|s| s.words().map(|(_, v)| v))
            .collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 4);
    }

    #[test]
    fn loads_read_last_store_or_zero() {
        let cmds = vec![
            Cmd::Load { slot: 2, key: 0 },  // initial memory: 0
            Cmd::Store { slot: 2, key: 0 }, // value 1
            Cmd::Load { slot: 2, key: 3 },  // sees 1
        ];
        let p = concretize(&cmds);
        assert!(golden::run(&p, &GoldenConfig::default()).is_ok());
    }
}
