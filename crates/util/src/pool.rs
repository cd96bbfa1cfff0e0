//! A zero-dependency scoped thread pool with a deterministic map-reduce
//! layer.
//!
//! Every sweep and fuzz campaign in this workspace is a list of fully
//! independent jobs (workload × configuration cells, seeded fuzz cases,
//! campaign units). [`Pool::run`] fans such a list out over
//! `std::thread::scope` workers and reassembles the results **in
//! submission order**, so the output of a parallel run is bit-identical
//! to a sequential one — the determinism contract every caller's tests
//! rely on (see DESIGN.md "Parallel execution").
//!
//! * **Job count** — explicit, or 0 for auto: the `EDE_JOBS` environment
//!   variable if set, else the host parallelism (`resolve_jobs`).
//! * **Work distribution** — an atomic cursor hands indices to workers
//!   dynamically; results travel back over an mpsc channel tagged with
//!   their index, so scheduling never affects output order.
//! * **Panic handling** — selected per call by `PoolPolicy`:
//!   `PoolPolicy::Propagate` ([`Pool::run`]) poisons the
//!   pool on the first panic (no new jobs start) and re-raises the panic
//!   with the **lowest job index** on the caller, annotated with the
//!   unit and worker indices. `PoolPolicy::Quarantine`
//!   ([`Pool::run_quarantined`]) `catch_unwind`s every work item
//!   instead: panics become [`UnitPanic`] values in the result vector,
//!   the pool is never poisoned, and every remaining unit still runs —
//!   the mode the resilient campaign runtime uses to survive harness
//!   faults. In both modes the panic payload and unit index are
//!   deterministic (indices are handed out in order and job bodies are
//!   deterministic); the worker index is scheduling-dependent
//!   diagnostics only, which is why campaign reports record the payload
//!   and unit but never the worker.
//!
//! # Example
//!
//! ```
//! use ede_util::pool;
//!
//! let squares = pool::par_map_indexed(4, &[1u64, 2, 3], |i, &x| x * x + i as u64);
//! assert_eq!(squares, vec![1, 5, 11]);
//! // Bit-identical to the sequential evaluation, whatever the job count.
//! assert_eq!(squares, pool::par_map_indexed(1, &[1u64, 2, 3], |i, &x| x * x + i as u64));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested job count: any positive request is taken as-is;
/// 0 means auto — `EDE_JOBS` if set to a positive count, else the host's
/// available parallelism (`EDE_JOBS=0` asks for it explicitly), else 1.
///
/// # Panics
///
/// Panics if `EDE_JOBS` is set but is not a non-negative integer, so a
/// typo in CI never silently serializes (or over-subscribes) a campaign.
fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    auto_jobs(std::env::var("EDE_JOBS").ok().as_deref())
}

/// The auto job count for an `EDE_JOBS` value, kept apart from
/// [`resolve_jobs`] so the parsing is testable without mutating the
/// process environment.
fn auto_jobs(env_jobs: Option<&str>) -> usize {
    let jobs = env_jobs.map_or(0, |raw| {
        raw.trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("EDE_JOBS={raw:?} is not a non-negative integer"))
    });
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// How a pool call treats a panicking work item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PoolPolicy {
    /// Poison the pool on the first panic and re-raise the panic with
    /// the lowest unit index on the caller (the classic fail-fast
    /// behavior of [`Pool::run`]).
    Propagate,
    /// `catch_unwind` every work item: a panic becomes an `Err(`
    /// [`UnitPanic`] `)` in the result vector, the pool is not poisoned,
    /// and every remaining unit still runs.
    Quarantine,
}

/// A work item's panic, converted into data: which unit panicked, which
/// worker thread it was running on, and the downcast payload.
///
/// The `unit` and `message` are deterministic for deterministic job
/// bodies; `worker` depends on scheduling and exists for diagnostics
/// only — keep it out of any output that must be byte-identical across
/// job counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnitPanic {
    /// The work-item index (the argument the job closure received).
    pub unit: usize,
    /// The pool worker the unit was running on (0 for inline runs).
    pub worker: usize,
    /// The panic payload, downcast to a string (see [`UnitPanic::message`]).
    pub message: String,
}

impl UnitPanic {
    /// The uniform caller-facing description: unit index, total, worker
    /// index, payload — the same shape for propagate and quarantine
    /// modes.
    pub fn describe(&self, total: usize) -> String {
        format!(
            "parallel job {} of {} panicked on worker {}: {}",
            self.unit, total, self.worker, self.message
        )
    }
}

/// A scoped worker pool of a fixed job count. The pool owns no threads
/// between calls — each [`run`](Pool::run) spawns scoped workers and
/// joins them before returning, so borrowed job closures need no
/// `'static` bound.
#[derive(Clone, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// Creates a pool with `jobs` workers (0 = auto: `EDE_JOBS`, else
    /// the host parallelism).
    pub fn new(jobs: usize) -> Pool {
        Pool {
            jobs: resolve_jobs(jobs),
        }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f(0)`, `f(1)`, …, `f(n - 1)` across the pool's workers
    /// and returns the results in index order. With one worker (or one
    /// job) everything runs inline on the caller's thread; the returned
    /// vector is identical either way.
    ///
    /// # Panics
    ///
    /// If any job panics, re-raises the panic with the lowest job index,
    /// prefixed with that index, the total, and the worker index for
    /// context ([`UnitPanic::describe`]). Jobs not yet started when the
    /// first panic lands are skipped.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_policy(n, PoolPolicy::Propagate, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(_) => unreachable!("Propagate re-raises before returning"),
            })
            .collect()
    }

    /// [`run`](Pool::run) with per-item panic isolation: every unit is
    /// wrapped in `catch_unwind`, a panicking unit yields
    /// `Err(UnitPanic)` in its slot, and the remaining units still run
    /// to completion. The pool is never poisoned.
    pub fn run_quarantined<T, F>(&self, n: usize, f: F) -> Vec<Result<T, UnitPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_policy(n, PoolPolicy::Quarantine, f)
    }

    /// The common fan-out core behind [`run`](Pool::run) and
    /// [`run_quarantined`](Pool::run_quarantined), parameterized by the
    /// panic policy. Under [`PoolPolicy::Propagate`] the returned vector
    /// contains only `Ok` entries (the lowest-index panic is re-raised
    /// instead of returned).
    fn run_policy<T, F>(&self, n: usize, policy: PoolPolicy, f: F) -> Vec<Result<T, UnitPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return (0..n)
                .map(|i| {
                    catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
                        let up = UnitPanic {
                            unit: i,
                            worker: 0,
                            message: panic_message(payload.as_ref()),
                        };
                        if policy == PoolPolicy::Propagate {
                            panic!("{}", up.describe(n));
                        }
                        up
                    })
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, UnitPanic>)>();
        let f = &f;
        let mut slots: Vec<Option<Result<T, UnitPanic>>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let poisoned = &poisoned;
                scope.spawn(move || loop {
                    if poisoned.load(Ordering::Acquire) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
                        if policy == PoolPolicy::Propagate {
                            poisoned.store(true, Ordering::Release);
                        }
                        UnitPanic {
                            unit: i,
                            worker: w,
                            message: panic_message(payload.as_ref()),
                        }
                    });
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                slots[i] = Some(result);
            }
        });
        let mut out = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(v)) => out.push(Ok(v)),
                // Indices are handed out in order, so the first Err in
                // index order is the lowest panicking job — and, under
                // Propagate, every skipped (None) slot sits above it.
                Some(Err(up)) => {
                    if policy == PoolPolicy::Propagate {
                        panic!("{}", up.describe(n));
                    }
                    out.push(Err(up));
                }
                None => unreachable!("job {i} skipped without an earlier panic"),
            }
        }
        out
    }
}

/// Maps `f` over `items` with their indices across `jobs` workers
/// (0 = auto), returning results in item order — the deterministic
/// map-reduce entry point. Equivalent to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()`, only
/// faster.
pub fn par_map_indexed<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    Pool::new(jobs).run(items.len(), |i| f(i, &items[i]))
}

/// Expands a work frontier breadth-first across `jobs` workers with a
/// deterministic merge and a hard entry budget.
///
/// Starting from `seeds`, each entry is passed to `step(index, entry)`,
/// which returns that entry's output plus any child entries to expand in
/// a later layer. Entries within a layer run in parallel, but outputs
/// are appended **in entry order** and each layer's children are
/// concatenated in the same order to form the next frontier — so the
/// output vector, the entry indices `step` observes, and the truncation
/// decision are all bit-identical for every job count. `index` is the
/// global (deterministic) entry number, starting at 0 for the first
/// seed.
///
/// At most `max_entries` entries are processed; when a layer would
/// exceed the budget it is cut at the limit (keeping the
/// deterministic prefix) and the second return value is `true`. The
/// caller decides what a truncated expansion means — for a model
/// checker, "not a proof".
///
/// # Panics
///
/// Propagates the lowest-index panicking entry, like [`Pool::run`].
pub fn par_frontier<T, U, F>(
    jobs: usize,
    seeds: Vec<T>,
    max_entries: usize,
    step: F,
) -> (Vec<U>, bool)
where
    T: Send + Sync,
    U: Send,
    F: Fn(usize, &T) -> (U, Vec<T>) + Sync,
{
    let mut outputs: Vec<U> = Vec::new();
    let mut frontier = seeds;
    let mut truncated = false;
    while !frontier.is_empty() {
        let budget = max_entries.saturating_sub(outputs.len());
        if frontier.len() > budget {
            frontier.truncate(budget);
            truncated = true;
        }
        if frontier.is_empty() {
            break;
        }
        let base = outputs.len();
        let layer = par_map_indexed(jobs, &frontier, |i, t| step(base + i, t));
        let mut next = Vec::new();
        for (u, kids) in layer {
            outputs.push(u);
            next.extend(kids);
        }
        frontier = next;
    }
    (outputs, truncated)
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    // `std::panic::panic_any` with a primitive payload: recover the
    // value (and its type, for disambiguation) instead of discarding it.
    macro_rules! try_primitive {
        ($($t:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$t>() {
                return format!("{v} ({})", stringify!($t));
            })*
        };
    }
    try_primitive!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, char);
    "panic with non-string payload".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::AtomicU32;

    fn sequential(n: usize) -> Vec<u64> {
        (0..n).map(|i| (i as u64) * 3 + 1).collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 3, 7, 16] {
            let pool = Pool::new(jobs);
            let got = pool.run(20, |i| (i as u64) * 3 + 1);
            assert_eq!(got, sequential(20), "jobs {jobs}");
        }
    }

    #[test]
    fn zero_jobs_resolves_to_auto() {
        let pool = Pool::new(0);
        assert!(pool.jobs() >= 1);
        assert_eq!(pool.run(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_job_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.jobs(), 1);
        // An inline run sees the caller's thread (no worker spawned).
        let caller = std::thread::current().id();
        let ids = pool.run(3, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn more_jobs_than_items() {
        let pool = Pool::new(64);
        assert_eq!(pool.run(3, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn zero_items_yields_empty() {
        assert!(Pool::new(4).run(0, |i| i).is_empty());
        assert!(par_map_indexed(4, &[] as &[u8], |_, &b| b).is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counts: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        Pool::new(8).run(100, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_indexed_matches_serial_map() {
        let items: Vec<u64> = (0..50).map(|i| i * 7).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x + i as u64)
            .collect();
        for jobs in [1, 3, 4, 13] {
            assert_eq!(
                par_map_indexed(jobs, &items, |i, &x| x + i as u64),
                serial,
                "jobs {jobs}"
            );
        }
    }

    /// Panics quietly: sets the crate's quiet flag for the current
    /// (worker) thread so intentional test panics don't spam the log.
    fn quiet_panic(msg: String) -> ! {
        crate::check::install_quiet_hook();
        crate::check::QUIET_PANICS.with(|q| q.set(true));
        panic!("{msg}");
    }

    #[test]
    fn panic_carries_job_context() {
        crate::check::install_quiet_hook();
        crate::check::QUIET_PANICS.with(|q| q.set(true));
        let result = catch_unwind(|| {
            Pool::new(4).run(10, |i| {
                if i == 6 {
                    quiet_panic(format!("boom at {i}"));
                }
                i
            })
        });
        let msg = panic_message(result.expect_err("job 6 must fail").as_ref());
        assert!(
            msg.contains("parallel job 6 of 10 panicked on worker "),
            "unexpected message: {msg}"
        );
        assert!(msg.contains(": boom at 6"), "unexpected message: {msg}");
    }

    #[test]
    fn inline_propagate_carries_the_same_context() {
        crate::check::install_quiet_hook();
        crate::check::QUIET_PANICS.with(|q| q.set(true));
        let result = catch_unwind(|| {
            Pool::new(1).run(4, |i| {
                if i == 2 {
                    quiet_panic(format!("boom at {i}"));
                }
                i
            })
        });
        let msg = panic_message(result.expect_err("job 2 must fail").as_ref());
        assert!(
            msg.contains("parallel job 2 of 4 panicked on worker 0: boom at 2"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn quarantine_converts_panics_to_data_in_order() {
        crate::check::install_quiet_hook();
        for jobs in [1, 2, 4] {
            let results = Pool::new(jobs).run_quarantined(10, |i| {
                if i % 3 == 0 {
                    quiet_panic(format!("boom {i}"));
                }
                i * 2
            });
            assert_eq!(results.len(), 10, "jobs {jobs}");
            for (i, r) in results.iter().enumerate() {
                if i % 3 == 0 {
                    let up = r.as_ref().expect_err("unit must be quarantined");
                    assert_eq!(up.unit, i, "jobs {jobs}");
                    assert_eq!(up.message, format!("boom {i}"), "jobs {jobs}");
                    assert!(up.worker < jobs.max(1), "jobs {jobs}: worker {}", up.worker);
                } else {
                    // The pool was not poisoned: units after a panic
                    // still ran.
                    assert_eq!(*r.as_ref().expect("clean unit"), i * 2, "jobs {jobs}");
                }
            }
        }
    }

    #[test]
    fn primitive_panic_payloads_are_downcast() {
        crate::check::install_quiet_hook();
        let results = Pool::new(2).run_quarantined(3, |i| {
            if i == 1 {
                crate::check::QUIET_PANICS.with(|q| q.set(true));
                std::panic::panic_any(42u32);
            }
            i
        });
        let up = results[1].as_ref().expect_err("unit 1 panicked");
        assert_eq!(up.message, "42 (u32)");
        assert_eq!(
            up.describe(3),
            format!(
                "parallel job 1 of 3 panicked on worker {}: 42 (u32)",
                up.worker
            )
        );
    }

    #[test]
    fn lowest_panicking_index_wins() {
        crate::check::install_quiet_hook();
        crate::check::QUIET_PANICS.with(|q| q.set(true));
        // Jobs 2 and 5 both panic; index order must pick 2 regardless of
        // which worker thread lands first.
        for _ in 0..10 {
            let result = catch_unwind(|| {
                Pool::new(4).run(8, |i| {
                    if i == 2 || i == 5 {
                        quiet_panic(format!("bad {i}"));
                    }
                    i
                })
            });
            let msg = panic_message(result.expect_err("must fail").as_ref());
            assert!(msg.contains("parallel job 2 of 8"), "got: {msg}");
        }
    }

    #[test]
    fn resolve_jobs_passthrough() {
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
    }

    #[test]
    fn auto_jobs_read_ede_jobs_and_zero_means_host_parallelism() {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(auto_jobs(None), host);
        assert_eq!(auto_jobs(Some("0")), host);
        assert_eq!(auto_jobs(Some(" 3 ")), 3);
    }

    #[test]
    #[should_panic(expected = "EDE_JOBS=\"abc\" is not a non-negative integer")]
    fn unparsable_ede_jobs_fails_loudly() {
        auto_jobs(Some("abc"));
    }

    /// A frontier step's (output, children) expansion.
    type TreeExpansion = ((usize, u64), Vec<(u64, u32)>);

    /// A frontier step expanding a binary counting tree: entry `v` at
    /// depth `d` emits children `2v+1` and `2v+2` while `d > 0`.
    fn tree_step(depth: u32) -> impl Fn(usize, &(u64, u32)) -> TreeExpansion {
        move |i, &(v, d)| {
            let kids = if d < depth {
                vec![(2 * v + 1, d + 1), (2 * v + 2, d + 1)]
            } else {
                Vec::new()
            };
            ((i, v), kids)
        }
    }

    #[test]
    fn par_frontier_visits_breadth_first_in_order() {
        let (out, truncated) = par_frontier(1, vec![(0u64, 0u32)], usize::MAX, tree_step(2));
        // Layers: [0], [1, 2], [3, 4, 5, 6] — outputs carry the global
        // entry index `step` observed.
        let expect: Vec<(usize, u64)> = [0u64, 1, 2, 3, 4, 5, 6]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, v))
            .collect();
        assert_eq!(out, expect);
        assert!(!truncated);
    }

    #[test]
    fn par_frontier_is_identical_for_every_job_count() {
        let base = par_frontier(1, vec![(0u64, 0u32)], usize::MAX, tree_step(5));
        for jobs in [2, 4, 9] {
            assert_eq!(
                par_frontier(jobs, vec![(0u64, 0u32)], usize::MAX, tree_step(5)),
                base,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn par_frontier_budget_cuts_the_deterministic_prefix() {
        // 1 + 2 + 4 = 7 entries; a budget of 5 keeps the first 5 in
        // breadth-first order and reports truncation — identically for
        // every job count.
        for jobs in [1, 3] {
            let (out, truncated) = par_frontier(jobs, vec![(0u64, 0u32)], 5, tree_step(2));
            let values: Vec<u64> = out.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, vec![0, 1, 2, 3, 4], "jobs {jobs}");
            assert!(truncated, "jobs {jobs}");
        }
    }

    #[test]
    fn par_frontier_empty_seeds_and_zero_budget() {
        let (out, truncated) = par_frontier(2, Vec::<(u64, u32)>::new(), usize::MAX, tree_step(3));
        assert!(out.is_empty());
        assert!(!truncated);
        let (out, truncated) = par_frontier(2, vec![(0u64, 0u32)], 0, tree_step(3));
        assert!(out.is_empty());
        assert!(truncated, "seeds beyond a zero budget are a truncation");
    }
}
