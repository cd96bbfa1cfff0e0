//! The cache against a naive model: each set a most-recently-used-first
//! list of `(line address, dirty)`, with `reset`s to other geometries
//! interleaved. Every operation's answer — hit or miss, each eviction's
//! address and dirty bit, and the dirtiness `clean_line` reports — must
//! match the model's.

use ede_mem::cache::{Cache, Eviction};
use ede_mem::config::CacheConfig;
use ede_util::check::{self, any, Strategy};
use ede_util::{prop_assert_eq, prop_oneof, property};

const LINE: u64 = 64;

/// `(capacity, ways)`: small geometries that evict often, and the Table I
/// L1 and L2.
const GEOMETRIES: [(u64, u32); 6] = [
    (256, 1),
    (512, 2),
    (1024, 4),
    (2048, 2),
    (48 * 1024, 3),
    (256 * 1024, 16),
];

fn config(geometry: u8) -> CacheConfig {
    let (capacity, ways) = GEOMETRIES[usize::from(geometry) % GEOMETRIES.len()];
    CacheConfig {
        capacity,
        ways,
        latency: 1,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64),
    Fill(u64, bool),
    MarkDirty(u64),
    CleanLine(u64),
    Contains(u64),
    Reset(u8),
}

/// Line indices below 4096 (every geometry's set count), mostly in the
/// four lowest sets.
fn set() -> impl Strategy<Value = u64> {
    prop_oneof![3 => 0u64..4, 1 => 0u64..4096]
}

/// Addresses from six tags, at any byte of the line: every geometry sees
/// conflicts and repeats in its low sets, and lines in its high sets.
fn addr() -> impl Strategy<Value = u64> {
    (0u64..6, set(), 0u64..LINE).prop_map(|(tag, set, byte)| addr_of(tag, set) | byte)
}

fn addr_of(tag: u64, set: u64) -> u64 {
    (tag << 22) | (set * LINE)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => addr().prop_map(Op::Access),
        4 => (addr(), any::<bool>()).prop_map(|(a, d)| Op::Fill(a, d)),
        2 => addr().prop_map(Op::MarkDirty),
        2 => addr().prop_map(Op::CleanLine),
        1 => addr().prop_map(Op::Contains),
        1 => (0u8..6).prop_map(Op::Reset),
    ]
}

/// The reference: per set, `(line address, dirty)` most recent first.
struct Model {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
}

impl Model {
    fn new(cfg: &CacheConfig) -> Model {
        Model {
            sets: vec![Vec::new(); cfg.sets(LINE) as usize],
            ways: cfg.ways as usize,
        }
    }

    /// The set of `addr`, and the line's position in it if present.
    fn find(&mut self, addr: u64) -> (&mut Vec<(u64, bool)>, u64, Option<usize>) {
        let line = addr / LINE * LINE;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line / LINE % n) as usize];
        let pos = set.iter().position(|&(l, _)| l == line);
        (set, line, pos)
    }

    fn access(&mut self, addr: u64) -> bool {
        let (set, _, pos) = self.find(addr);
        pos.map(|p| {
            let entry = set.remove(p);
            set.insert(0, entry);
        })
        .is_some()
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        let ways = self.ways;
        let (set, line, pos) = self.find(addr);
        if let Some(p) = pos {
            let (l, d) = set.remove(p);
            set.insert(0, (l, d || dirty));
            return None;
        }
        let victim = (set.len() >= ways).then(|| {
            let (addr, dirty) = set.pop().unwrap();
            Eviction { addr, dirty }
        });
        set.insert(0, (line, dirty));
        victim
    }

    fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, _, pos) = self.find(addr);
        pos.map(|p| set[p].1 = true).is_some()
    }

    fn clean_line(&mut self, addr: u64) -> bool {
        let (set, _, pos) = self.find(addr);
        pos.is_some_and(|p| std::mem::replace(&mut set[p].1, false))
    }

    fn contains(&mut self, addr: u64) -> bool {
        self.find(addr).2.is_some()
    }
}

property! {
    /// Every answer the cache gives matches the model's, across resets
    /// that keep or change the geometry.
    fn cache_matches_the_mru_model(
        start in 0u8..6,
        ops in check::vec(op(), 1..300)
    ) {
        let cfg = config(start);
        let mut cache = Cache::new(&cfg, LINE);
        let mut model = Model::new(&cfg);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access(a) => {
                    prop_assert_eq!(cache.access(a), model.access(a), "op {i}: {op:?}")
                }
                Op::Fill(a, d) => {
                    prop_assert_eq!(cache.fill(a, d), model.fill(a, d), "op {i}: {op:?}")
                }
                Op::MarkDirty(a) => {
                    prop_assert_eq!(cache.mark_dirty(a), model.mark_dirty(a), "op {i}: {op:?}")
                }
                Op::CleanLine(a) => {
                    prop_assert_eq!(cache.clean_line(a), model.clean_line(a), "op {i}: {op:?}")
                }
                Op::Contains(a) => {
                    prop_assert_eq!(cache.contains(a), model.contains(a), "op {i}: {op:?}")
                }
                Op::Reset(g) => {
                    let cfg = config(g);
                    cache.reset(&cfg, LINE);
                    model = Model::new(&cfg);
                }
            }
        }
        // Nothing the model has forgotten survives in the cache, and
        // every line it holds is still present with its dirty bit.
        for tag in 0u64..6 {
            for set in [0, 1, 2, 3, 255, 1023, 4095] {
                let a = addr_of(tag, set);
                prop_assert_eq!(cache.contains(a), model.contains(a), "final {a:#x}");
                prop_assert_eq!(cache.clean_line(a), model.clean_line(a), "final dirty {a:#x}");
            }
        }
    }
}
