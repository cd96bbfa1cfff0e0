//! Deterministic pseudo-random number generation.
//!
//! [`SmallRng`] is a xoshiro256++ generator seeded through SplitMix64,
//! the combination recommended by the xoshiro authors (Blackman &
//! Vigna, "Scrambled linear pseudorandom number generators"). It is
//! fast, has a 2^256 − 1 period, and — unlike a registry dependency —
//! its stream is fixed forever, so every workload trace and property
//! test in this workspace is reproducible from a printed `u64` seed.
//!
//! # Example
//!
//! ```
//! use ede_util::rng::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let x: u64 = rng.gen();
//! let d = rng.gen_range(0u64..6);
//! assert!(d < 6);
//! assert_eq!(SmallRng::seed_from_u64(42).gen::<u64>(), x);
//! ```

/// SplitMix64: the seed-expansion generator (also usable standalone for
/// cheap hash mixing).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a raw state word.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Returns the next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the stream by `n` steps in O(1), as if
    /// [`next_u64`](Self::next_u64) had been called `n` times and the results
    /// discarded. SplitMix64's state is an arithmetic progression, so
    /// parallel workers can carve one master stream into disjoint
    /// per-worker substreams without replaying the prefix — the seed
    /// partitioning scheme of `ede_util::pool` users (see DESIGN.md
    /// "Parallel execution").
    pub fn jump(&mut self, n: u64) {
        self.0 = self
            .0
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n));
    }
}

/// One round of SplitMix64 finalization: a cheap, high-quality mix of a
/// single word (useful for deriving per-test or per-case seeds).
pub fn mix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// The workspace's standard small, fast, seedable PRNG (xoshiro256++).
///
/// The name mirrors the `rand::rngs::SmallRng` it replaces so call
/// sites migrate by swapping the import; unlike its namesake, the
/// stream is stable across releases by definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator whose stream is fully determined by `seed`,
    /// expanding it through SplitMix64 as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = SplitMix64::new(seed);
        SmallRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Samples a uniformly distributed value of type `T`.
    ///
    /// Integers cover their whole domain; `f64` is uniform in `[0, 1)`
    /// with 53 bits of precision.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open, like `rand`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T: UniformInt>(&mut self, range: core::ops::Range<T>) -> T {
        assert!(range.start < range.end, "gen_range called with empty range");
        T::from_offset(&range.start, self.below(T::span(&range.start, &range.end)))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // Compare against a 53-bit uniform draw; exact at the endpoints.
        self.gen::<f64>() < p
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Fills `out` with random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// Uniform draw in `0..n` without modulo bias (widening multiply
    /// with rejection, Lemire's method). `n` must be nonzero.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types [`SmallRng::gen`] can sample uniformly over their full domain.
pub trait Sample: Sized {
    /// Draws one value.
    fn sample(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),+) => {$(
        impl Sample for $t {
            fn sample(rng: &mut SmallRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}
impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for u128 {
    fn sample(rng: &mut SmallRng) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Sample for bool {
    fn sample(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f64 {
    fn sample(rng: &mut SmallRng) -> f64 {
        // 53 random bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: Sample, const N: usize> Sample for [T; N] {
    fn sample(rng: &mut SmallRng) -> [T; N] {
        core::array::from_fn(|_| T::sample(rng))
    }
}

/// Integer types [`SmallRng::gen_range`] accepts.
pub trait UniformInt: Copy + PartialOrd {
    /// `end - start` as a `u64` span.
    fn span(start: &Self, end: &Self) -> u64;
    /// `start + offset`.
    fn from_offset(start: &Self, offset: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),+) => {$(
        impl UniformInt for $t {
            fn span(start: &$t, end: &$t) -> u64 {
                (*end as u64).wrapping_sub(*start as u64)
            }
            fn from_offset(start: &$t, offset: u64) -> $t {
                (*start as u64).wrapping_add(offset) as $t
            }
        }
    )+};
}
impl_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_int_signed {
    ($($t:ty),+) => {$(
        impl UniformInt for $t {
            fn span(start: &$t, end: &$t) -> u64 {
                (*end as i64 as u64).wrapping_sub(*start as i64 as u64)
            }
            fn from_offset(start: &$t, offset: u64) -> $t {
                (*start as i64 as u64).wrapping_add(offset) as i64 as $t
            }
        }
    )+};
}
impl_uniform_int_signed!(i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference stream for seed 0 from the public-domain SplitMix64
        // implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn jump_matches_sequential_stream() {
        for &(seed, n) in &[(0u64, 0u64), (0, 1), (7, 5), (0xDEAD_BEEF, 1000)] {
            let mut seq = SplitMix64::new(seed);
            for _ in 0..n {
                seq.next_u64();
            }
            let mut jumped = SplitMix64::new(seed);
            jumped.jump(n);
            assert_eq!(jumped.next_u64(), seq.next_u64(), "seed {seed}, n {n}");
        }
    }

    #[test]
    fn jumps_compose() {
        let mut a = SplitMix64::new(3);
        a.jump(10);
        a.jump(7);
        let mut b = SplitMix64::new(3);
        b.jump(17);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(SmallRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_within_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.gen_range(0u64..6);
            assert!(v < 6);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all faces seen: {seen:?}");
        for _ in 0..1000 {
            let v = rng.gen_range(10usize..11);
            assert_eq!(v, 10);
        }
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(0).gen_range(3u32..3);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
    }

    #[test]
    fn fill_bytes_randomizes_the_buffer() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is 2^-104");
    }

    #[test]
    fn array_sampling() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pair: [u64; 2] = rng.gen();
        assert_ne!(pair[0], pair[1], "collision is 2^-64");
    }
}
