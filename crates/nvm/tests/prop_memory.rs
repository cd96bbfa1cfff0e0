//! Property tests for the paged functional memory, against a plain
//! `HashMap` reference model.

use ede_nvm::SimMemory;
use ede_util::check::{self, any, Just, Strategy};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};
use std::collections::HashMap;

/// Aligned addresses that stress the paging: words straddling the first
/// few 512-byte page boundaries, a dense low region (overwrites), pages
/// far apart, and the last words of the address space.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4, 0u64..8).prop_map(|(page, w)| page * 512 + 480 + 8 * w),
        (0u64..64).prop_map(|w| 8 * w),
        any::<u64>().prop_map(|a| a & !7),
        (0u64..8).prop_map(|k| k << 40),
        (0u64..8).prop_map(|w| u64::MAX - 7 - 8 * w),
    ]
}

/// Values, explicit zeros often.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>()]
}

property! {
    /// Reads and `iter` agree with the reference after every write;
    /// unwritten words read as zero; `iter` yields every written word
    /// once, explicit zeros included, in ascending address order.
    fn matches_a_hash_map_reference(
        writes in check::vec((addr(), value()), 0..48),
        probes in check::vec(addr(), 0..16)
    ) {
        let mut mem = SimMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        prop_assert_eq!(mem.iter().next(), None);
        for &(a, v) in &writes {
            mem.write(a, v);
            model.insert(a, v);
            let listed: HashMap<u64, u64> = mem.iter().collect();
            prop_assert_eq!(&listed, &model, "after writing {:#x}", a);
        }
        for a in writes.iter().map(|&(a, _)| a).chain(probes) {
            let want = model.get(&a).copied().unwrap_or(0);
            prop_assert_eq!(mem.read(a), want, "read {:#x}", a);
        }
        let listed: Vec<(u64, u64)> = mem.iter().collect();
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "not ascending: {:x?}", listed);
        let listed: HashMap<u64, u64> = listed.into_iter().collect();
        prop_assert_eq!(listed, model);
    }
}
