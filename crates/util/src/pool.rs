//! A zero-dependency scoped thread pool with a deterministic map-reduce
//! layer.
//!
//! Every sweep and fuzz campaign in this workspace is a list of fully
//! independent jobs (workload × configuration cells, seeded fuzz cases,
//! campaign units). [`Pool::stream`] runs such a list over
//! `std::thread::scope` workers and hands the results to a sink on the
//! caller's thread **in submission order**, so the output of a parallel
//! run is bit-identical to a sequential one — the determinism contract
//! every caller's tests rely on (see DESIGN.md "Parallel execution").
//!
//! * **Job count** — explicit, or 0 for auto: the `EDE_JOBS` environment
//!   variable if set, else the host parallelism (`resolve_jobs`).
//! * **Work distribution** — an atomic cursor hands indices to workers
//!   dynamically until the caller's stop condition holds; results travel
//!   back over an mpsc channel tagged with their index, and a reorder
//!   buffer holds only those that finished ahead of a lower index still
//!   running, so nothing is kept per planned job.
//! * **Panic handling** — [`Pool::stream`] `catch_unwind`s every work
//!   item: panics reach the sink as [`UnitPanic`] values and every
//!   remaining unit still runs — the mode the resilient campaign runtime
//!   uses to survive harness faults. [`Pool::run`] collects the stream
//!   into a vector, stops the cursor on the first panic, and re-raises
//!   the panic with the **lowest job index** on the caller. The panic
//!   payload and unit index are deterministic (indices are handed out in
//!   order and job bodies are deterministic); the worker index is
//!   scheduling-dependent diagnostics only, which is why campaign
//!   reports record the payload and unit but never the worker.
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

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
        // The poison: once a job panics, the cursor stops.
        let poisoned = AtomicBool::new(false);
        let mut out = Vec::with_capacity(n);
        self.stream(
            n,
            || poisoned.load(Ordering::Relaxed),
            |i| {
                catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|payload| {
                    poisoned.store(true, Ordering::Relaxed);
                    resume_unwind(payload)
                })
            },
            // Results arrive in index order, so the first `Err` is the
            // lowest panicking job.
            |_, r| match r {
                Ok(v) => out.push(v),
                Err(up) => panic!("{}", up.describe(n)),
            },
        );
        out
    }

    /// The pool's one fan-out core: evaluates `f(0)`, `f(1)`, … and
    /// hands each result to `sink` on the caller's thread **in index
    /// order**. Every job runs under `catch_unwind`: a panicking one
    /// arrives as `Err(UnitPanic)` and the rest still run.
    ///
    /// Once `stop()` holds, no further index is handed out; jobs already
    /// started finish and are delivered, so `sink` sees a prefix `0..k`
    /// of the indices, and at most one job per worker starts after the
    /// condition first holds. A result waits in a reorder buffer only
    /// while a lower index is still running.
    pub fn stream<T, F, P, S>(&self, n: usize, stop: P, f: F, mut sink: S)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        P: Fn() -> bool + Sync,
        S: FnMut(usize, Result<T, UnitPanic>),
    {
        let attempt = |i: usize, worker: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| UnitPanic {
                unit: i,
                worker,
                message: panic_message(payload.as_ref()),
            })
        };
        let workers = self.jobs.min(n);
        if workers <= 1 {
            for i in (0..n).take_while(|_| !stop()) {
                sink(i, attempt(i, 0));
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, UnitPanic>)>();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let (cursor, stop, attempt) = (&cursor, &stop, &attempt);
                scope.spawn(move || {
                    while !stop() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n || tx.send((i, attempt(i, w))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            // Every handed-out index finishes and is sent, so the
            // buffer always drains to a gapless prefix.
            let mut next = 0;
            let mut ahead = BTreeMap::new();
            for (i, out) in rx {
                ahead.insert(i, out);
                while let Some(out) = ahead.remove(&next) {
                    sink(next, out);
                    next += 1;
                }
            }
        });
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

    /// Everything [`Pool::stream`] hands its sink, in arrival order.
    fn streamed<T: Send>(
        jobs: usize,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<(usize, Result<T, UnitPanic>)> {
        let mut got = Vec::new();
        Pool::new(jobs).stream(n, || false, f, |i, r| got.push((i, r)));
        got
    }

    #[test]
    fn quarantine_converts_panics_to_data_in_order() {
        crate::check::install_quiet_hook();
        for jobs in [1, 2, 4] {
            let results = streamed(jobs, 10, |i| {
                if i % 3 == 0 {
                    quiet_panic(format!("boom {i}"));
                }
                i * 2
            });
            assert_eq!(results.len(), 10, "jobs {jobs}");
            for (i, (unit, r)) in results.iter().enumerate() {
                assert_eq!(*unit, i, "jobs {jobs}");
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
        let results = streamed(2, 3, |i| {
            if i == 1 {
                crate::check::QUIET_PANICS.with(|q| q.set(true));
                std::panic::panic_any(42u32);
            }
            i
        });
        let up = results[1].1.as_ref().expect_err("unit 1 panicked");
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
    fn stream_delivers_in_index_order_when_late_indices_finish_first() {
        let n = 40;
        for jobs in [1, 2, 3, 7] {
            let pool = Pool::new(jobs);
            let finished = AtomicUsize::new(0);
            let finish_order = std::sync::Mutex::new(Vec::new());
            let mut delivered = Vec::new();
            pool.stream(
                n,
                || false,
                |i| {
                    // Unit 0 holds its worker until every later unit has
                    // finished, so all of them wait in the reorder buffer.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while i == 0
                        && pool.jobs() > 1
                        && finished.load(Ordering::Acquire) < n - 1
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    // Earlier indices also run longer than later ones.
                    std::thread::sleep(std::time::Duration::from_micros(10 * (n - i) as u64));
                    finish_order.lock().unwrap().push(i);
                    finished.fetch_add(1, Ordering::Release);
                    i * 3
                },
                |i, r| delivered.push((i, r.expect("no unit panics"))),
            );
            let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3)).collect();
            assert_eq!(delivered, want, "jobs {jobs}");
            if jobs > 1 {
                let order = finish_order.into_inner().unwrap();
                assert_eq!(order.last(), Some(&0), "jobs {jobs}: unit 0 finished early");
            }
        }
    }

    #[test]
    fn stop_condition_closes_the_cursor_within_one_unit_per_worker() {
        let (n, trigger) = (1000, 10);
        for jobs in [1, 2, 3, 7] {
            let stop = AtomicBool::new(false);
            let (ran, late) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut delivered = Vec::new();
            Pool::new(jobs).stream(
                n,
                || stop.load(Ordering::Acquire),
                |i| {
                    if stop.load(Ordering::Acquire) {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    if i == trigger {
                        stop.store(true, Ordering::Release);
                    }
                },
                |i, r| {
                    r.expect("no unit panics");
                    delivered.push(i);
                },
            );
            let (ran, late) = (ran.into_inner(), late.into_inner());
            assert!(
                late <= jobs,
                "jobs {jobs}: {late} units started after the stop"
            );
            // Every unit that ran was delivered, as a gapless prefix.
            let want: Vec<usize> = (0..ran).collect();
            assert_eq!(delivered, want, "jobs {jobs}");
            assert!(ran > trigger && ran < n, "jobs {jobs}: {ran} units ran");
            if jobs == 1 {
                assert_eq!(ran, trigger + 1, "inline: nothing runs after the stop");
            }
        }
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
