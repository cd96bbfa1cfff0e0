//! A minimal, zero-dependency property-testing harness.
//!
//! The workspace's randomized test suites were written against
//! `proptest`, which this hermetic environment cannot resolve. This
//! module provides the subset those suites actually use, built on the
//! in-repo [`SmallRng`]:
//!
//! * **Strategies** — composable value generators: integer ranges
//!   (`1u8..16` is a strategy directly), [`any`], [`Just`], tuples,
//!   [`vec()`], weighted unions ([`prop_oneof!`](crate::prop_oneof)),
//!   and [`Strategy::prop_map`];
//! * **Shrinking** — every generated value carries a lazy rose tree of
//!   simpler candidates ([`Shrinkable`]); on failure the runner
//!   greedily descends it (bounded by
//!   [`Config::max_shrink_iters`]) and reports the minimal
//!   counterexample;
//! * **Deterministic seeding** — each test derives its base seed from
//!   its own name, so a failure reproduces on every machine;
//!   `EDE_PROPTEST_SEED` overrides the base seed and
//!   `EDE_PROPTEST_CASES` the case count;
//! * **Macros** — [`property!`](crate::property) declares tests in a
//!   `proptest!`-like syntax; [`prop_assert!`](crate::prop_assert),
//!   [`prop_assert_eq!`](crate::prop_assert_eq),
//!   [`prop_assert_ne!`](crate::prop_assert_ne) and
//!   [`prop_assume!`](crate::prop_assume) work inside the bodies.
//!
//! Historical `proptest` regression entries are ported as explicit
//! named `#[test]` functions that feed the recorded counterexample
//! straight to the property body — see e.g.
//! `crates/core/tests/prop_edm.rs`.
//!
//! # Example
//!
//! ```
//! use ede_util::{prop_assert, check::{self, Config}};
//!
//! // `property!` wraps this pattern in a `#[test]`; the runner can
//! // also be driven directly:
//! let cfg = Config::for_test("doc::addition_commutes", 64);
//! check::run("addition_commutes", &cfg, &(0u64..1000, 0u64..1000), |(a, b)| {
//!     prop_assert!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! });
//! ```

use crate::rng::{mix64, SmallRng, SplitMix64, UniformInt};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

/// Why a single test case did not pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseError {
    /// The property is false for this input (assertion text inside).
    Fail(String),
    /// The input does not satisfy a [`prop_assume!`](crate::prop_assume)
    /// precondition; the case is discarded, not failed.
    Reject,
}

impl CaseError {
    /// Builds a failure from any displayable error (the ported suites'
    /// replacement for `proptest::test_runner::TestCaseError::fail`).
    pub fn fail(msg: impl fmt::Display) -> CaseError {
        CaseError::Fail(msg.to_string())
    }
}

/// What a property body returns: `Ok(())`, a failure, or a rejection.
pub type CaseResult = Result<(), CaseError>;

/// Number of cases run when neither the test nor `EDE_PROPTEST_CASES`
/// says otherwise.
pub const DEFAULT_CASES: u32 = 256;

// ---------------------------------------------------------------------
// Shrinkable values
// ---------------------------------------------------------------------

/// A generated value plus a lazily-computed tree of simpler candidates.
pub struct Shrinkable<T> {
    /// The concrete value handed to the property body.
    pub value: T,
    shrink: Rc<dyn Fn() -> Vec<Shrinkable<T>>>,
}

impl<T: Clone> Clone for Shrinkable<T> {
    fn clone(&self) -> Self {
        Shrinkable {
            value: self.value.clone(),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Shrinkable<T> {
    /// A value with no simpler candidates.
    pub fn leaf(value: T) -> Shrinkable<T> {
        Shrinkable {
            value,
            shrink: Rc::new(Vec::new),
        }
    }

    /// A value whose shrink candidates are produced on demand by `f`.
    pub fn new(value: T, f: impl Fn() -> Vec<Shrinkable<T>> + 'static) -> Shrinkable<T> {
        Shrinkable {
            value,
            shrink: Rc::new(f),
        }
    }

    /// The immediate simpler candidates (may be empty).
    pub fn shrinks(&self) -> Vec<Shrinkable<T>> {
        (self.shrink)()
    }

    /// Maps the whole tree through `f`, preserving shrink structure.
    pub fn map<U: 'static>(self, f: MapFn<T, U>) -> Shrinkable<U> {
        let value = f(&self.value);
        Shrinkable {
            value,
            shrink: Rc::new(move || {
                self.shrinks()
                    .into_iter()
                    .map(|s| s.map(Rc::clone(&f)))
                    .collect()
            }),
        }
    }
}

fn zip2<A, B>(a: Shrinkable<A>, b: Shrinkable<B>) -> Shrinkable<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let value = (a.value.clone(), b.value.clone());
    Shrinkable::new(value, move || {
        let mut out = Vec::new();
        for sa in a.shrinks() {
            out.push(zip2(sa, b.clone()));
        }
        for sb in b.shrinks() {
            out.push(zip2(a.clone(), sb));
        }
        out
    })
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A recipe for generating (shrinkable) values of one type.
///
/// Integer ranges are strategies out of the box (`1u8..16`), as are
/// tuples of strategies; combinators build everything else.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Clone + fmt::Debug + 'static;

    /// Draws one shrinkable value.
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<Self::Value>;

    /// Maps generated values through `f` (shrinking maps through too).
    fn prop_map<U, F>(self, f: F) -> Map<Self, U>
    where
        Self: Sized,
        U: Clone + fmt::Debug + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        let f = Rc::new(move |v: &Self::Value| f(v.clone()));
        Map { inner: self, f }
    }

    /// Erases the concrete strategy type (needed by
    /// [`prop_oneof!`](crate::prop_oneof)).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A shared by-reference mapping function, as stored by [`Map`] and
/// threaded through [`Shrinkable::map`].
type MapFn<T, U> = Rc<dyn Fn(&T) -> U>;

/// See [`Strategy::prop_map`].
pub struct Map<S: Strategy, U> {
    inner: S,
    f: MapFn<S::Value, U>,
}

impl<S: Strategy, U: Clone + fmt::Debug + 'static> Strategy for Map<S, U> {
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<U> {
        self.inner.generate(rng).map(Rc::clone(&self.f))
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Clone + fmt::Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<T> {
        self.0.generate(rng)
    }
}

/// Always produces (clones of) one value; never shrinks.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SmallRng) -> Shrinkable<T> {
        Shrinkable::leaf(self.0.clone())
    }
}

fn int_shrinkable<T>(v: T, lo: T) -> Shrinkable<T>
where
    T: UniformInt + Clone + fmt::Debug + 'static,
{
    Shrinkable::new(v, move || {
        let span = T::span(&lo, &v);
        let mut out = Vec::new();
        let mut push = |off: u64| {
            let c = T::from_offset(&lo, off);
            if out.is_empty() || T::span(&lo, &out[out.len() - 1]) != off {
                out.push(c);
            }
        };
        if span > 0 {
            push(0); // the minimum itself
            if span > 2 {
                push(span / 2); // halfway back
            }
            if span > 1 {
                push(span - 1); // one step down
            }
        }
        out.into_iter().map(|c| int_shrinkable(c, lo)).collect()
    })
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> Shrinkable<$t> {
                int_shrinkable(rng.gen_range(self.clone()), self.start)
            }
        }
    )+};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

/// Values with a canonical full-domain strategy (see [`any`]).
pub trait Arbitrary: Clone + fmt::Debug + 'static {
    /// Draws one shrinkable value covering the type's whole domain.
    fn arbitrary(rng: &mut SmallRng) -> Shrinkable<Self>;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SmallRng) -> Shrinkable<$t> {
                int_shrinkable(rng.gen::<$t>(), 0)
            }
        }
    )+};
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> Shrinkable<bool> {
        let v: bool = rng.gen();
        if v {
            Shrinkable::new(true, || vec![Shrinkable::leaf(false)])
        } else {
            Shrinkable::leaf(false)
        }
    }
}

impl<T: Arbitrary> Arbitrary for [T; 2] {
    fn arbitrary(rng: &mut SmallRng) -> Shrinkable<[T; 2]> {
        let pair = zip2(T::arbitrary(rng), T::arbitrary(rng));
        pair.map(Rc::new(|(a, b): &(T, T)| [a.clone(), b.clone()]))
    }
}

/// The full-domain strategy for `T` (`any::<u8>()`, `any::<bool>()`, …).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<T> {
        T::arbitrary(rng)
    }
}

/// Wraps an already-concrete vector in the standard vector shrink tree
/// (chunk removal largest-first, then single elements), treating each
/// element as a leaf. This is how a *literal* failing input — a
/// hand-written litmus command list, say — gets the same
/// [`minimize`]-driven reduction a strategy-generated one inherits from
/// [`vec()`]; at most `min` elements survive removal.
///
/// # Example
///
/// ```
/// use ede_util::check::{minimize, shrinkable_vec};
///
/// let sh = shrinkable_vec(vec![1u8, 9, 2, 9, 3], 0);
/// let (minimal, _steps) = minimize(sh, 1000, |v| v.contains(&2));
/// assert_eq!(minimal, vec![2]);
/// ```
pub fn shrinkable_vec<T>(elems: Vec<T>, min: usize) -> Shrinkable<Vec<T>>
where
    T: Clone + 'static,
{
    vec_shrinkable(elems.into_iter().map(Shrinkable::leaf).collect(), min)
}

fn vec_shrinkable<T>(elems: Vec<Shrinkable<T>>, min: usize) -> Shrinkable<Vec<T>>
where
    T: Clone + 'static,
{
    let value: Vec<T> = elems.iter().map(|e| e.value.clone()).collect();
    Shrinkable::new(value, move || {
        let mut out = Vec::new();
        let n = elems.len();
        // Chunk removal first (largest chunks first), then single
        // elements, then element-wise shrinks — the classic order that
        // minimizes both length and content.
        let mut k = n.saturating_sub(min);
        while k > 0 {
            let mut start = 0;
            while start + k <= n {
                let mut e2 = elems.clone();
                e2.drain(start..start + k);
                out.push(vec_shrinkable(e2, min));
                start += k;
            }
            k /= 2;
        }
        for (i, e) in elems.iter().enumerate() {
            for se in e.shrinks() {
                let mut e2 = elems.clone();
                e2[i] = se;
                out.push(vec_shrinkable(e2, min));
            }
        }
        out
    })
}

/// A vector whose length is drawn from `len` and whose elements come
/// from `element`. Shrinks by removing chunks/elements, then by
/// shrinking elements in place.
pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`vec()`].
pub struct VecStrategy<S: Strategy> {
    element: S,
    len: core::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<Vec<S::Value>> {
        let n = rng.gen_range(self.len.clone());
        let elems: Vec<Shrinkable<S::Value>> = (0..n).map(|_| self.element.generate(rng)).collect();
        vec_shrinkable(elems, self.len.start)
    }
}

/// A weighted choice among strategies of one value type — the engine
/// behind [`prop_oneof!`](crate::prop_oneof).
pub struct Union<T> {
    branches: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T: Clone + fmt::Debug + 'static> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(branches: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total: u64 = branches.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { branches, total }
    }
}

impl<T: Clone + fmt::Debug + 'static> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> Shrinkable<T> {
        let mut roll = rng.gen_range(0..self.total);
        for (w, s) in &self.branches {
            let w = u64::from(*w);
            if roll < w {
                return s.generate(rng);
            }
            roll -= w;
        }
        unreachable!("weights cover the roll")
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident/$v:ident),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut SmallRng) -> Shrinkable<Self::Value> {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng);)+
                tuple_zip!($($v),+)
            }
        }
    )+};
}

macro_rules! tuple_zip {
    ($a:ident) => {
        $a.map(Rc::new(|v: &_| (v.clone(),)))
    };
    ($a:ident, $b:ident) => {
        zip2($a, $b)
    };
    ($a:ident, $b:ident, $c:ident) => {
        zip2($a, zip2($b, $c)).map(Rc::new(|v: &(_, (_, _))| {
            (v.0.clone(), v.1 .0.clone(), v.1 .1.clone())
        }))
    };
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        zip2(zip2($a, $b), zip2($c, $d)).map(Rc::new(|v: &((_, _), (_, _))| {
            (
                v.0 .0.clone(),
                v.0 .1.clone(),
                v.1 .0.clone(),
                v.1 .1.clone(),
            )
        }))
    };
}

impl_tuple_strategy! {
    (A/a)
    (A/a, B/b)
    (A/a, B/b, C/c)
    (A/a, B/b, C/c, D/d)
}

/// String generators for fuzzing text interfaces (e.g. the assembler).
pub mod strings {
    use super::*;

    /// Strings of length in `len` over an explicit character set.
    pub fn from_charset(
        charset: &str,
        len: core::ops::Range<usize>,
    ) -> impl Strategy<Value = String> {
        let chars: Vec<char> = charset.chars().collect();
        assert!(!chars.is_empty(), "empty charset");
        let n = chars.len();
        vec(0usize..n, len).prop_map(move |idxs| idxs.into_iter().map(|i| chars[i]).collect())
    }

    /// Printable strings: ASCII printable plus a few multibyte
    /// characters so UTF-8 boundaries get exercised.
    pub fn printable(len: core::ops::Range<usize>) -> impl Strategy<Value = String> {
        let mut charset: String = (' '..='~').collect();
        charset.push_str("éλ≈字\u{202e}");
        from_charset(&charset, len)
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Per-test configuration, normally built by
/// [`property!`](crate::property) via [`Config::for_test`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; every case seed derives deterministically from it.
    pub seed: u64,
    /// Upper bound on shrink attempts after a failure.
    pub max_shrink_iters: u32,
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name}={raw:?} is not a u64"),
    }
}

/// FNV-1a over the test name: a stable, platform-independent default
/// base seed, so every run of a given test is reproducible everywhere.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Config {
    /// Resolves the configuration for one named test: `EDE_PROPTEST_CASES`
    /// overrides `default_cases`; `EDE_PROPTEST_SEED` (decimal or `0x…`)
    /// overrides the name-derived base seed.
    pub fn for_test(name: &str, default_cases: u32) -> Config {
        Config {
            cases: env_u64("EDE_PROPTEST_CASES")
                .map(|v| v.min(u64::from(u32::MAX)) as u32)
                .unwrap_or(default_cases),
            seed: env_u64("EDE_PROPTEST_SEED").unwrap_or_else(|| name_seed(name)),
            max_shrink_iters: 2048,
        }
    }
}

thread_local! {
    pub(crate) static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}
static HOOK: Once = Once::new();

pub(crate) fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn run_case<T, F>(body: &F, value: T) -> CaseResult
where
    F: Fn(T) -> CaseResult,
{
    let was_quiet = QUIET_PANICS.with(|q| q.replace(true));
    let result = catch_unwind(AssertUnwindSafe(|| body(value)));
    QUIET_PANICS.with(|q| q.set(was_quiet));
    match result {
        Ok(r) => r,
        Err(payload) => Err(CaseError::Fail(format!(
            "panic: {}",
            crate::pool::panic_message(payload.as_ref())
        ))),
    }
}

/// Runs `body` against `cfg.cases` generated inputs, shrinking and
/// panicking with a replayable report on the first failure.
///
/// This is the engine behind [`property!`](crate::property); call it
/// directly when a test needs a hand-built strategy or config.
///
/// # Panics
///
/// Panics (failing the test) on the first property violation, or if
/// nearly all cases are rejected by `prop_assume!`.
pub fn run<S, F>(name: &str, cfg: &Config, strat: &S, body: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    install_quiet_hook();
    let mut case_seeds = SplitMix64::new(mix64(cfg.seed));
    let mut rejected = 0u64;
    let max_rejects = u64::from(cfg.cases) * 8 + 256;
    let mut case = 0u32;
    while case < cfg.cases {
        let mut rng = SmallRng::seed_from_u64(case_seeds.next_u64());
        let sh = strat.generate(&mut rng);
        match run_case(&body, sh.value.clone()) {
            Ok(()) => case += 1,
            Err(CaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < max_rejects,
                    "property '{name}': {rejected} inputs rejected by prop_assume! — \
                     generator and precondition are incompatible"
                );
            }
            Err(CaseError::Fail(first_msg)) => {
                // The message of the last candidate that still failed.
                let msg = RefCell::new(first_msg);
                let (minimal, steps) = minimize(sh, cfg.max_shrink_iters, |v| {
                    match run_case(&body, v.clone()) {
                        Err(CaseError::Fail(m)) => {
                            *msg.borrow_mut() = m;
                            true
                        }
                        _ => false,
                    }
                });
                let msg = msg.into_inner();
                panic!(
                    "property '{name}' failed (case {case} of {cases}, base seed {seed:#x})\n\
                     minimal input (after {steps} shrink steps): {minimal:#?}\n\
                     error: {msg}\n\
                     replay: EDE_PROPTEST_SEED={seed:#x} cargo test {name}",
                    cases = cfg.cases,
                    seed = cfg.seed,
                );
            }
        }
    }
}

/// Greedily minimizes a failing [`Shrinkable`]: repeatedly descends to the
/// first shrink candidate for which `still_fails` returns `true`, bounded
/// by `max_iters` predicate evaluations. Returns the smallest value found
/// and the number of successful shrink steps taken.
///
/// This is the shrinking engine of [`run`] exposed for external drivers —
/// fuzzers that detect failure by comparing whole simulations rather than
/// by panicking inside a property body (e.g. `ede-check`'s differential
/// fuzzer, which replays the candidate program on two models).
///
/// # Example
///
/// ```
/// use ede_util::check::{self, Strategy};
/// use ede_util::rng::SmallRng;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let strat = check::vec(check::any::<u8>(), 0..20);
/// // Find an input that "fails" (has at least 3 elements)…
/// let sh = std::iter::repeat_with(|| strat.generate(&mut rng))
///     .find(|sh| sh.value.len() >= 3)
///     .unwrap();
/// // …and shrink it: the minimal failing input is any 3-element vector.
/// let (minimal, _steps) = check::minimize(sh, 10_000, |v| v.len() >= 3);
/// assert_eq!(minimal.len(), 3);
/// ```
pub fn minimize<T: Clone + 'static>(
    failing: Shrinkable<T>,
    max_iters: u32,
    still_fails: impl Fn(&T) -> bool,
) -> (T, u32) {
    let mut best = failing;
    let mut iters = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for cand in best.shrinks() {
            if iters >= max_iters {
                break 'outer;
            }
            iters += 1;
            if still_fails(&cand.value) {
                best = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (best.value, steps)
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests, `proptest!`-style.
///
/// ```ignore
/// ede_util::property! {
///     #![cases(64)] // optional block-wide override (default 256)
///
///     /// Doc comments and attributes pass through.
///     fn my_property(x in 0u64..100, ys in check::vec(any::<u8>(), 0..10)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! property {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__property_internal! { @cases ($cases) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__property_internal! { @cases ($crate::check::DEFAULT_CASES) $($rest)* }
    };
}

/// Implementation detail of [`property!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __property_internal {
    (@cases ($cases:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let strat = ($($strat,)+);
            let cfg = $crate::check::Config::for_test(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
            );
            $crate::check::run(stringify!($name), &cfg, &strat, |($($arg,)+)| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
    )+};
}

/// `assert!` for property bodies: fails the case (triggering shrinking)
/// instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::check::CaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), l, r
        );
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::check::CaseError::Reject);
        }
    };
}

/// Weighted (or unweighted) choice among strategies with one value type.
///
/// ```ignore
/// prop_oneof![
///     3 => (0u8..40).prop_map(Op::Produce),
///     Just(Op::Work),               // weight defaults to 1
/// ]
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::check::Union::new(vec![
            $(($weight, $crate::check::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::check::Union::new(vec![
            $((1u32, $crate::check::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Silences the panic hook for a closure expected to panic, so
    /// intentional failures don't spam the test log.
    fn expect_failure(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        install_quiet_hook();
        let was = QUIET_PANICS.with(|q| q.replace(true));
        let failure = catch_unwind(f);
        QUIET_PANICS.with(|q| q.set(was));
        let payload = failure.expect_err("closure must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("string panic payload")
    }

    #[test]
    fn config_seed_is_name_stable() {
        let a = Config::for_test("mod::t1", 10);
        let b = Config::for_test("mod::t1", 10);
        let c = Config::for_test("mod::t2", 10);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(0);
        let s = 5u32..17;
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((5..17).contains(&v.value));
            for sh in v.shrinks() {
                assert!((5..17).contains(&sh.value));
                assert!(sh.value < v.value, "shrinks move toward the minimum");
            }
        }
    }

    #[test]
    fn vec_shrinks_respect_min_len() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = vec(0u8..10, 2..8);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..8).contains(&v.value.len()));
            for sh in v.shrinks() {
                assert!(sh.value.len() >= 2);
            }
        }
    }

    #[test]
    fn minimize_reaches_smallest_failing_vec() {
        let mut rng = SmallRng::seed_from_u64(11);
        let strat = vec(0u8..10, 0..32);
        // Find a generated input that "fails" (here: length ≥ 4), then
        // check the external driver shrinks it to exactly the boundary.
        let sh = loop {
            let sh = strat.generate(&mut rng);
            if sh.value.len() >= 4 {
                break sh;
            }
        };
        let (minimal, steps) = minimize(sh, 4096, |v| v.len() >= 4);
        assert_eq!(minimal.len(), 4);
        assert!(minimal.iter().all(|&x| x == 0), "elements shrink to zero");
        assert!(steps > 0);
    }

    #[test]
    fn minimize_respects_iteration_budget() {
        let mut rng = SmallRng::seed_from_u64(12);
        let sh = vec(0u8..10, 8..32).generate(&mut rng);
        let original = sh.value.clone();
        let (minimal, steps) = minimize(sh, 0, |v| v.len() >= 4);
        assert_eq!(minimal, original, "zero budget leaves the input as-is");
        assert_eq!(steps, 0);
    }

    #[test]
    fn map_preserves_shrinking() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = (1u8..100).prop_map(|x| x as u64 * 10);
        let v = s.generate(&mut rng);
        for sh in v.shrinks() {
            assert_eq!(sh.value % 10, 0, "mapped shrinks stay in the image");
            assert!(sh.value < v.value);
        }
    }

    #[test]
    fn union_draws_every_branch() {
        let mut rng = SmallRng::seed_from_u64(3);
        let s = prop_oneof![1 => Just(0u8), 1 => Just(1u8), 5 => Just(2u8)];
        let mut seen = [0u32; 3];
        for _ in 0..700 {
            seen[s.generate(&mut rng).value as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
        assert!(seen[2] > seen[0], "weight 5 dominates: {seen:?}");
    }

    #[test]
    fn failing_property_shrinks_to_minimal_vec() {
        // The classic: "no vector of length >= 3" must shrink to
        // exactly length 3 of minimal elements.
        let cfg = Config {
            cases: 200,
            seed: 99,
            max_shrink_iters: 2048,
        };
        let strat = (vec(0u32..100, 0..20),);
        let msg = expect_failure(|| {
            run("shrink_demo", &cfg, &strat, |(xs,)| {
                prop_assert!(xs.len() < 3, "len {}", xs.len());
                Ok(())
            });
        });
        assert!(
            msg.contains("[\n        0,\n        0,\n        0,\n    ]")
                || msg.contains("[0, 0, 0]"),
            "expected minimal [0, 0, 0] in report:\n{msg}"
        );
        assert!(msg.contains("EDE_PROPTEST_SEED"), "report has replay line");
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 50,
            seed: 1,
            max_shrink_iters: 16,
        };
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        run("passes", &cfg, &(0u8..5,), |(v,)| {
            counter.set(counter.get() + 1);
            prop_assert!(v < 5);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 50);
    }

    #[test]
    fn assume_rejects_without_failing() {
        let cfg = Config {
            cases: 30,
            seed: 2,
            max_shrink_iters: 16,
        };
        run("assume", &cfg, &(0u8..10,), |(v,)| {
            prop_assume!(v % 2 == 0);
            prop_assert!(v % 2 == 0);
            Ok(())
        });
    }

    #[test]
    fn panics_in_bodies_are_failures_and_shrink() {
        let cfg = Config {
            cases: 100,
            seed: 7,
            max_shrink_iters: 512,
        };
        let msg = expect_failure(|| {
            run("panics", &cfg, &(0u64..1000,), |(v,)| {
                assert!(v < 50, "plain assert {v}");
                Ok(())
            });
        });
        assert!(
            msg.contains("panic: plain assert 50"),
            "shrunk to 50:\n{msg}"
        );
    }

    property! {
        #![cases(64)]

        /// The macro surface end-to-end.
        fn macro_roundtrip(a in 0u64..100, bs in vec(any::<bool>(), 0..5)) {
            prop_assert!(a < 100);
            prop_assert_eq!(bs.len(), bs.len());
            prop_assert_ne!(a, 100);
        }
    }

    property! {
        fn string_strategies_fuzz(s in strings::printable(0..40)) {
            prop_assert!(s.chars().count() < 40);
        }
    }
}
