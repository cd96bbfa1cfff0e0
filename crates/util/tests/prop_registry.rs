//! Property test: `obs::Registry` against a reference model, a
//! `BTreeMap<String, Metric>` that folds every recording in as a
//! one-metric merge.
//!
//! Random sequences of `inc`, `set_gauge_max`, `observe`,
//! `merge_histogram` and `merge_prefixed` run on both, with
//! names drawn from a small pool (so kinds collide) and passed either as
//! `&'static str` or as an owned `String`. Runs of `inc` over consecutive
//! pool names, in ascending order (the registry's append path) or
//! descending (each name lands before the one just inserted), ride along.
//! After every step the two must agree on `iter`, `len`, `to_json`, on
//! the lookups of every pool name and of absent names sorting before,
//! between and after them, and on whether the step panicked with a kind
//! collision.
//!
//! Two fixed cases pin the same paths without relying on the draw:
//! ascending, descending and mixed insertion orders build one registry,
//! and `merge_prefixed` lands its names between the ones already held.

use ede_util::check::{self, CaseResult, Strategy};
use ede_util::obs::{Log2Histogram, Metric, Registry};
use ede_util::{prop_assert, prop_assert_eq, prop_oneof, property};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The name pool, in ascending order (an [`Op::Run`] walks it by
/// index). `B.a`/`WB.a` also arise from prefixing `a`, so a prefixed
/// merge can land on a directly recorded name; the `cpu.stall.*` pair
/// shares a long prefix, as the simulator's names do.
const NAMES: [&str; 8] = [
    "B.a",
    "B.b",
    "WB.a",
    "a",
    "a.b",
    "b",
    "cpu.stall.dispatch.barrier",
    "cpu.stall.dispatch.busy",
];

/// Names looked up after every step besides the pool: absent ones that
/// sort before every pool name, between two of them, and after all, plus
/// names only a prefixed merge creates.
const PROBES: [&str; 10] = [
    "",
    "A",
    "B.B.a",
    "B.a.b",
    "WB.",
    "a.a",
    "ab",
    "cpu.stall.dispatch.bas",
    "cpu.stall.dispatch.busz",
    "missing",
];

const PREFIXES: [&str; 2] = ["B", "WB"];

/// A pool name, passed as `&'static str` or as an owned `String`.
#[derive(Clone, Copy, Debug)]
struct Name {
    idx: usize,
    owned: bool,
}

#[derive(Clone, Debug)]
enum Record {
    Inc(Name, u64),
    Gauge(Name, i64),
    Observe(Name, u64),
    MergeHistogram(Name, Vec<u64>),
}

#[derive(Clone, Debug)]
enum Op {
    Record(Record),
    /// `inc` by `by` on the pool names `from..from + len`, in ascending
    /// or descending order.
    Run {
        from: usize,
        len: usize,
        descending: bool,
        by: u64,
    },
    /// `merge_prefixed` of a registry built from these recordings.
    MergePrefixed(usize, Vec<Record>),
}

fn name_strategy() -> impl Strategy<Value = Name> {
    (0..NAMES.len(), check::any::<bool>()).prop_map(|(idx, owned)| Name { idx, owned })
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (name_strategy(), 0u64..1000).prop_map(|(n, by)| Record::Inc(n, by)),
        (name_strategy(), 0u64..2000).prop_map(|(n, v)| Record::Gauge(n, v as i64 - 1000)),
        (name_strategy(), 0u64..1 << 40).prop_map(|(n, v)| Record::Observe(n, v)),
        (name_strategy(), check::vec(0u64..5000, 0..4))
            .prop_map(|(n, vs)| Record::MergeHistogram(n, vs)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => record_strategy().prop_map(Op::Record),
        2 => (0..NAMES.len(), 1..NAMES.len() + 1, check::any::<bool>(), 0u64..1000)
            .prop_map(|(from, len, descending, by)| Op::Run {
                from,
                len: len.min(NAMES.len() - from),
                descending,
                by,
            }),
        2 => (0..PREFIXES.len(), check::vec(record_strategy(), 0..5))
            .prop_map(|(p, rs)| Op::MergePrefixed(p, rs)),
    ]
}

type Model = BTreeMap<String, Metric>;

fn histogram_of(samples: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Folds `metric` into the model entry `name`; `false` on a kind
/// collision, which leaves the model unchanged.
fn model_fold(m: &mut Model, name: &str, metric: Metric) -> bool {
    let Some(own) = m.get_mut(name) else {
        m.insert(name.to_string(), metric);
        return true;
    };
    match (own, metric) {
        (Metric::Counter(a), Metric::Counter(b)) => *a += b,
        (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(b),
        (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(&b),
        _ => return false,
    }
    true
}

/// One recording on the model: `Err(name)` when it collides.
fn model_record(m: &mut Model, r: &Record) -> Result<(), String> {
    let (name, metric) = match r {
        Record::Inc(n, by) => (n, Metric::Counter(*by)),
        Record::Gauge(n, v) => (n, Metric::Gauge(*v)),
        Record::Observe(n, v) => (n, Metric::Histogram(Box::new(histogram_of(&[*v])))),
        Record::MergeHistogram(n, vs) => (n, Metric::Histogram(Box::new(histogram_of(vs)))),
    };
    let name = NAMES[name.idx];
    if model_fold(m, name, metric) {
        Ok(())
    } else {
        Err(name.to_string())
    }
}

/// `merge_prefixed` on the model: entries in name order, up to the
/// first collision.
fn model_merge(m: &mut Model, other: &Model, prefix: &str) -> Result<(), String> {
    for (name, metric) in other {
        let name = format!("{prefix}.{name}");
        if !model_fold(m, &name, metric.clone()) {
            return Err(name);
        }
    }
    Ok(())
}

/// Calls `$call` with `$name` bound to the pool name as a `&'static
/// str` or as an owned `String`.
macro_rules! with_name {
    ($n:expr, |$name:ident| $call:expr) => {
        if $n.owned {
            let $name = NAMES[$n.idx].to_string();
            $call
        } else {
            let $name = NAMES[$n.idx];
            $call
        }
    };
}

fn real_record(reg: &mut Registry, r: &Record) {
    match r {
        Record::Inc(n, by) => with_name!(n, |name| reg.inc(name, *by)),
        Record::Gauge(n, v) => with_name!(n, |name| reg.set_gauge_max(name, *v)),
        Record::Observe(n, v) => with_name!(n, |name| reg.observe(name, *v)),
        Record::MergeHistogram(n, vs) => {
            let h = histogram_of(vs);
            with_name!(n, |name| reg.merge_histogram(name, &h))
        }
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, returning its panic message if it panicked. The expected
/// collision panics are kept out of the test log.
fn panic_of(f: impl FnOnce()) -> Option<String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    result.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// The JSON document `Registry::to_json` must produce for `m`.
fn model_json(m: &Model) -> String {
    let entries: Vec<String> = m
        .iter()
        .map(|(name, metric)| {
            let body = match metric {
                Metric::Counter(c) => format!("{{\"type\": \"counter\", \"value\": {c}}}"),
                Metric::Gauge(g) => format!("{{\"type\": \"gauge\", \"value\": {g}}}"),
                Metric::Histogram(h) => {
                    let buckets: Vec<String> = (0..65)
                        .filter(|&i| h.bucket(i) > 0)
                        .map(|i| {
                            let floor = if i == 0 { 0 } else { 1u64 << (i - 1) };
                            format!("[{floor}, {}]", h.bucket(i))
                        })
                        .collect();
                    format!(
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                        h.count(),
                        h.sum(),
                        buckets.join(", ")
                    )
                }
            };
            format!("\"{name}\": {body}")
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn agree(reg: &Registry, m: &Model) -> CaseResult {
    let real: Vec<(String, Metric)> = reg
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let model: Vec<(String, Metric)> = m.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(real, model);
    prop_assert_eq!(reg.len(), m.len());
    prop_assert_eq!(reg.is_empty(), m.is_empty());
    for name in NAMES.iter().chain(&PROBES) {
        let want = m.get(*name);
        prop_assert_eq!(reg.get(name), want, "get {}", name);
        let counter = match want {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        };
        prop_assert_eq!(reg.counter(name), counter, "counter {}", name);
        let histogram = match want {
            Some(Metric::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        };
        prop_assert_eq!(reg.histogram(name), histogram, "histogram {}", name);
    }
    prop_assert_eq!(reg.to_json(), model_json(m));
    prop_assert!(reg.clone() == *reg);
    Ok(())
}

/// Applies `step` to the registry (catching a panic) and `model` to the
/// model; the two must agree on whether, and on which name, it
/// collided.
fn step(
    reg: &mut Registry,
    m: &mut Model,
    real: impl FnOnce(&mut Registry),
    model: impl FnOnce(&mut Model) -> Result<(), String>,
) -> CaseResult {
    let panicked = panic_of(|| real(reg));
    match (panicked, model(m)) {
        (None, Ok(())) => Ok(()),
        (Some(msg), Err(name)) => {
            prop_assert!(
                msg.starts_with(&format!("metric {name}")),
                "panic `{msg}` does not name `{name}`"
            );
            Ok(())
        }
        (p, m) => Err(check::CaseError::fail(format!(
            "registry panicked: {p:?}, model collided: {m:?}"
        ))),
    }
}

/// Builds the operand of a merge on both sides.
fn build(records: &[Record]) -> Result<(Registry, Model), check::CaseError> {
    let (mut reg, mut m) = (Registry::new(), Model::new());
    for r in records {
        step(
            &mut reg,
            &mut m,
            |reg| real_record(reg, r),
            |m| model_record(m, r),
        )?;
    }
    Ok((reg, m))
}

fn registry_matches_model_impl(ops: &[Op]) -> CaseResult {
    let (mut reg, mut m) = (Registry::new(), Model::new());
    for op in ops {
        match op {
            Op::Record(r) => step(
                &mut reg,
                &mut m,
                |reg| real_record(reg, r),
                |m| model_record(m, r),
            )?,
            &Op::Run {
                from,
                len,
                descending,
                by,
            } => {
                let mut idxs: Vec<usize> = (from..from + len).collect();
                if descending {
                    idxs.reverse();
                }
                for idx in idxs {
                    let r = Record::Inc(Name { idx, owned: false }, by);
                    step(
                        &mut reg,
                        &mut m,
                        |reg| real_record(reg, &r),
                        |m| model_record(m, &r),
                    )?;
                }
            }
            Op::MergePrefixed(p, records) => {
                let (other, other_m) = build(records)?;
                let prefix = PREFIXES[*p];
                step(
                    &mut reg,
                    &mut m,
                    |reg| reg.merge_prefixed(&other, prefix),
                    |m| model_merge(m, &other_m, prefix),
                )?;
            }
        }
        agree(&reg, &m)?;
    }
    Ok(())
}

property! {
    fn registry_matches_model(ops in check::vec(op_strategy(), 0..24)) {
        registry_matches_model_impl(&ops)?;
    }
}

#[test]
fn name_pool_is_ascending() {
    assert!(NAMES.windows(2).all(|w| w[0] < w[1]));
}

/// `n` names sharing a long prefix, ascending, each a distinct counter.
fn stall_like(n: u64) -> Vec<(String, u64)> {
    (0..n)
        .map(|i| (format!("cpu.stall.dispatch.c{i:03}"), i + 1))
        .collect()
}

#[test]
fn insertion_order_never_shows() {
    let names = stall_like(40);
    let build = |order: &[usize]| {
        let mut reg = Registry::new();
        for &i in order {
            let (name, v) = &names[i];
            reg.inc(name.clone(), *v);
        }
        reg
    };
    // Appends only; then each name inserted before the last; then evens
    // appended and odds dropped between them.
    let ascending: Vec<usize> = (0..names.len()).collect();
    let descending: Vec<usize> = ascending.iter().rev().copied().collect();
    let mixed: Vec<usize> = (0..names.len())
        .step_by(2)
        .chain((1..names.len()).step_by(2).rev())
        .collect();
    let reg = build(&ascending);
    assert_eq!(build(&descending), reg);
    assert_eq!(build(&mixed), reg);
    assert_eq!(build(&mixed).to_json(), reg.to_json());
    let held: Vec<(String, Metric)> = reg
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let want: Vec<(String, Metric)> = names
        .iter()
        .map(|(k, v)| (k.clone(), Metric::Counter(*v)))
        .collect();
    assert_eq!(held, want);
    // Absent names before the first, between two, and after the last.
    for absent in [
        "cpu.stall.dispatch.b",
        "cpu.stall.dispatch.c000a",
        "cpu.stall.dispatch.c0205",
        "cpu.stall.dispatch.c040",
        "cpu.stall.z",
    ] {
        assert_eq!(reg.get(absent), None, "{absent}");
        assert_eq!(reg.counter(absent), 0, "{absent}");
        assert_eq!(reg.histogram(absent), None, "{absent}");
    }
    for (name, v) in &names {
        assert_eq!(reg.counter(name), *v, "{name}");
    }
}

#[test]
fn merge_prefixed_lands_between_held_names() {
    // Held `x.<n>` for even n, merged `<n>` for every n under prefix
    // `x`: every odd name lands between two held ones, every even one
    // adds onto a held counter, and `w.*` / `y.*` bracket them.
    let mut reg = Registry::new();
    reg.inc("w.first", 1);
    for i in (0..20).step_by(2) {
        reg.inc(format!("x.{i:02}"), 100);
    }
    reg.inc("y.last", 1);
    let mut other = Registry::new();
    for i in (0..20).rev() {
        other.inc(format!("{i:02}"), i);
    }
    reg.merge_prefixed(&other, "x");
    let mut want = vec![("w.first".to_string(), 1)];
    want.extend((0..20).map(|i| (format!("x.{i:02}"), i + if i % 2 == 0 { 100 } else { 0 })));
    want.push(("y.last".to_string(), 1));
    let held: Vec<(String, u64)> = reg
        .iter()
        .map(|(k, v)| match v {
            Metric::Counter(c) => (k.to_string(), *c),
            other => panic!("{k} is not a counter: {other:?}"),
        })
        .collect();
    assert_eq!(held, want);
    assert_eq!(reg.counter("x.1"), 0);
    assert_eq!(reg.counter("x.20"), 0);
}
