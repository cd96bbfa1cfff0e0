//! A zero-dependency metrics registry: the observability substrate every
//! layer of the simulator reports into.
//!
//! Three metric kinds cover everything the workspace measures:
//!
//! * **counters** — monotonic `u64` totals (cycles, retires, cache hits,
//!   fault-injection trigger sites);
//! * **gauges** — point-in-time or high-water `i64` readings (queue
//!   depths, longest watchdog-quiet streak);
//! * **histograms** — [`Log2Histogram`]s with 65 fixed power-of-two
//!   buckets (cycle latencies, occupancy samples). Fixed buckets keep
//!   merging exact and serialization stable.
//!
//! A [`Registry`] is an ordered name → metric map, held as one vector
//! sorted by name: appending a name above the last costs one comparison,
//! so the per-run reports emit their names in ascending order.
//! Serialization ([`Registry::to_json`]) walks the entries in name order
//! and formats every number with `format!` — the output is
//! **byte-stable**: the same metrics always serialize to the same string,
//! which is what lets CI diff metrics documents across `--jobs` values.
//!
//! [`Registry::merge_prefixed`] folds one registry into another under a
//! name prefix (counters add, gauges high-water, histograms add
//! bucket-wise); the operation is commutative and associative over
//! disjoint recordings.
//!
//! The [`json`] submodule is a strict parser for the JSON subset this
//! workspace emits — the in-repo shape checker used by
//! `ede-sim validate-metrics` and the CI trace smoke.
//!
//! # Example
//!
//! ```
//! use ede_util::obs::Registry;
//!
//! let mut reg = Registry::new();
//! reg.inc("cpu.cycles", 100);
//! reg.set_gauge_max("cpu.rob.high_water", 12);
//! reg.observe("mem.load.latency", 37);
//! let doc = reg.to_json();
//! assert!(doc.contains("\"cpu.cycles\""));
//! assert_eq!(reg.counter("cpu.cycles"), 100);
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds the value 0,
/// bucket `k` (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k)`.
const LOG2_BUCKETS: usize = 65;

/// A histogram over `u64` samples with fixed log2 bucket boundaries.
///
/// The bucket layout never depends on the data, so two histograms can be
/// merged exactly and serialization is stable across runs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// The bucket index a value falls into.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive lower bound of bucket `i`.
    fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Records the run of consecutive values `start, start+1, …,
    /// start+n-1` in one call — exactly equivalent to `n` calls of
    /// [`record`](Self::record), but in O(buckets touched) rather than
    /// O(n): each bucket the run crosses receives the size of its
    /// intersection with the run in one addition.
    ///
    /// This is the bulk-update primitive behind the simulator's
    /// fast-forward kernel, where a skipped quiet span contributes one
    /// growing streak sample per skipped cycle and the span can be
    /// hundreds of thousands of cycles wide.
    pub fn record_run(&mut self, start: u64, n: u64) {
        if n == 0 {
            return;
        }
        let end = start.saturating_add(n - 1); // inclusive
        let last = Self::bucket_of(end);
        let mut lo = start;
        for b in Self::bucket_of(start)..=last {
            // Bucket b covers values up to 2^b - 1 (bucket 0: just 0).
            let hi = if b == last { end } else { (1u64 << b) - 1 };
            self.buckets[b] += hi - lo + 1;
            lo = hi.saturating_add(1);
        }
        self.count += n;
        // Arithmetic series; computed in u128 so the intermediate
        // product cannot wrap, then saturated like `record` does.
        let total = (u128::from(start) + u128::from(end)) * u128::from(n) / 2;
        self.sum = self
            .sum
            .saturating_add(u64::try_from(total).unwrap_or(u64::MAX));
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs, ascending.
    fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// One named metric.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Metric {
    /// A monotonic total.
    Counter(u64),
    /// A point-in-time reading (merged by maximum — high-water).
    Gauge(i64),
    /// A log2-bucketed distribution. Boxed so the abundant counter/gauge
    /// entries in a registry don't each pay for the 65-bucket table.
    Histogram(Box<Log2Histogram>),
}

/// An ordered name → metric map with stable JSON serialization.
///
/// Names are dotted paths by convention (`cpu.stall.retire.wb_full`).
/// The metrics live in one vector sorted by name, so serialization order
/// is independent of insertion order. A name above every name already
/// held is appended after one comparison; any other name is found by
/// binary search. A report that emits its names in ascending order
/// therefore builds its registry almost entirely by appends. Keys are
/// `Cow<'static, str>`: a `&'static str` name (a literal, or an entry of
/// a name table built once per process) is stored without allocating and
/// an owned `String` is moved in, so a registry built once per simulated
/// run need not format its names.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Registry {
    /// `(name, metric)` pairs, strictly ascending by name.
    metrics: Vec<(Cow<'static, str>, Metric)>,
}

/// Entries reserved by a registry's first insert: one simulated run
/// reports about 90 metrics, so building its registry never regrows the
/// vector.
const FIRST_RESERVE: usize = 128;

impl std::fmt::Debug for Registry {
    /// `Registry { metrics: {name: metric, ...} }`, names in order.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Entries<'a>(&'a [(Cow<'static, str>, Metric)]);
        impl std::fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(k, v)| (k, v)))
                    .finish()
            }
        }
        f.debug_struct("Registry")
            .field("metrics", &Entries(&self.metrics))
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Where `name` is (`Ok`) or would be inserted (`Err`). A name above
    /// the last one — the common case for a report emitting in name
    /// order — costs one comparison.
    fn find(&self, name: &str) -> Result<usize, usize> {
        match self.metrics.last() {
            None => Err(0),
            Some((last, _)) if last.as_ref() < name => Err(self.metrics.len()),
            Some(_) => self.metrics.binary_search_by(|(k, _)| k.as_ref().cmp(name)),
        }
    }

    /// Inserts `(name, metric)` at `at`, the position [`find`](Self::find)
    /// returned for `name`.
    fn insert(&mut self, at: usize, name: Cow<'static, str>, metric: Metric) -> &mut Metric {
        if self.metrics.capacity() == 0 {
            self.metrics.reserve(FIRST_RESERVE);
        }
        self.metrics.insert(at, (name, metric));
        &mut self.metrics[at].1
    }

    /// The metric `name`, created by `init` when absent.
    ///
    /// # Panics
    ///
    /// If `name` already holds a metric of another kind than `kind`.
    fn slot(&mut self, name: Cow<'static, str>, kind: &str, init: fn() -> Metric) -> &mut Metric {
        match self.find(&name) {
            Err(at) => self.insert(at, name, init()),
            Ok(at) => {
                let (key, metric) = &mut self.metrics[at];
                let found = kind_name(metric);
                if found != kind {
                    panic!("metric {key} is a {found}, not a {kind}");
                }
                metric
            }
        }
    }

    /// Adds `by` to the counter `name` (created at zero).
    ///
    /// # Panics
    ///
    /// If `name` already holds a non-counter metric — a name collision is
    /// a programming error, not a runtime condition.
    pub fn inc(&mut self, name: impl Into<Cow<'static, str>>, by: u64) {
        match self.slot(name.into(), "counter", || Metric::Counter(0)) {
            Metric::Counter(c) => *c += by,
            _ => unreachable!("slot checked the kind"),
        }
    }

    /// Raises the gauge `name` to `value` if it is below (high-water).
    ///
    /// # Panics
    ///
    /// If `name` already holds a non-gauge metric.
    pub fn set_gauge_max(&mut self, name: impl Into<Cow<'static, str>>, value: i64) {
        // Created at the minimum, so the first reading sets it.
        match self.slot(name.into(), "gauge", || Metric::Gauge(i64::MIN)) {
            Metric::Gauge(g) => *g = (*g).max(value),
            _ => unreachable!("slot checked the kind"),
        }
    }

    /// Records one sample into the histogram `name` (created empty).
    ///
    /// # Panics
    ///
    /// If `name` already holds a non-histogram metric.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        match self.slot(name.into(), "histogram", empty_histogram) {
            Metric::Histogram(h) => h.record(value),
            _ => unreachable!("slot checked the kind"),
        }
    }

    /// Adds every bucket of `h` into the histogram `name` (created
    /// empty) — the bulk counterpart of [`observe`](Self::observe), used
    /// by layers that accumulate a local [`Log2Histogram`] and report it
    /// wholesale.
    ///
    /// # Panics
    ///
    /// If `name` already holds a non-histogram metric.
    pub fn merge_histogram(&mut self, name: impl Into<Cow<'static, str>>, h: &Log2Histogram) {
        match self.slot(name.into(), "histogram", empty_histogram) {
            Metric::Histogram(own) => own.merge(h),
            _ => unreachable!("slot checked the kind"),
        }
    }

    /// The counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// The raw metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.find(name).ok().map(|at| &self.metrics[at].1)
    }

    /// Iterates `(name, metric)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds `other` into `self` with every incoming name prefixed by
    /// `prefix` and a dot — for aggregating per-configuration registries
    /// side by side (`B.cpu.cycles`, `WB.cpu.cycles`). Counters add,
    /// gauges take the maximum (high-water), histograms add bucket-wise.
    /// Commutative, so parallel per-case registries merged in any order
    /// agree with a sequential aggregation.
    ///
    /// # Panics
    ///
    /// If the same name holds different metric kinds in the two
    /// registries.
    pub fn merge_prefixed(&mut self, other: &Registry, prefix: &str) {
        for (name, metric) in other.iter() {
            self.merge_one(Cow::Owned(format!("{prefix}.{name}")), metric);
        }
    }

    /// Folds one metric into the entry `name` (see
    /// [`merge_prefixed`](Self::merge_prefixed)).
    fn merge_one(&mut self, name: Cow<'static, str>, metric: &Metric) {
        let at = match self.find(&name) {
            Err(at) => {
                self.insert(at, name, metric.clone());
                return;
            }
            Ok(at) => at,
        };
        let (key, own) = &mut self.metrics[at];
        match (own, metric) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(*b),
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
            (a, b) => {
                let (into, from) = (kind_name(a), kind_name(b));
                panic!("metric {key}: cannot merge a {from} into a {into}")
            }
        }
    }

    /// Serializes the registry as one stable JSON object: keys in name
    /// order, counters/gauges as bare integers under `"value"`,
    /// histograms as `{count, sum, buckets: [[floor, count], ...]}` with
    /// only non-empty buckets listed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: ", json_escape(name));
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {c}}}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {g}}}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                        h.count(),
                        h.sum()
                    );
                    for (j, (bucket, count)) in h.nonzero_buckets().into_iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{}, {count}]", Log2Histogram::bucket_floor(bucket));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// A family of metric names `<prefix><n>` (`cpu.issue.width_3`,
/// `mem.pb.occupancy_hist.12`) for a per-run report to hand a
/// [`Registry`] without formatting them per run: the names for `n <
/// len` are formatted once per process, on first use; a name past the
/// table is formatted on each call.
///
/// ```
/// use ede_util::obs::IndexedNames;
///
/// static WIDTHS: IndexedNames = IndexedNames::new("cpu.issue.width_", 9);
/// assert_eq!(WIDTHS.get(3), "cpu.issue.width_3");
/// assert_eq!(WIDTHS.get(12), "cpu.issue.width_12");
/// ```
pub struct IndexedNames {
    prefix: &'static str,
    len: usize,
    names: OnceLock<Vec<String>>,
}

impl IndexedNames {
    /// A table of the names `<prefix>0` to `<prefix>{len - 1}`.
    pub const fn new(prefix: &'static str, len: usize) -> IndexedNames {
        IndexedNames {
            prefix,
            len,
            names: OnceLock::new(),
        }
    }

    /// The name `<prefix><n>`.
    pub fn get(&'static self, n: usize) -> Cow<'static, str> {
        let names = self.names.get_or_init(|| {
            (0..self.len)
                .map(|i| format!("{}{i}", self.prefix))
                .collect()
        });
        match names.get(n) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(format!("{}{n}", self.prefix)),
        }
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

fn empty_histogram() -> Metric {
    Metric::Histogram(Box::new(Log2Histogram::new()))
}

/// Escapes a string for JSON output (quotes included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub mod json {
    //! A strict recursive-descent parser (and printer) for the JSON the
    //! workspace emits — the in-repo shape checker behind `ede-sim
    //! validate-metrics` and the metrics assertions in tests.
    //!
    //! Full JSON (objects, arrays, strings with escapes, numbers, bools,
    //! null); numbers are held as `f64`, which is exact for every integer
    //! the simulator serializes below 2^53. The parser is hardened for
    //! adversarial input: nesting beyond [`MAX_DEPTH`] is a typed
    //! [`ParseError::TooDeep`] instead of a stack overflow, and
    //! non-finite number literals (`1e999`) are rejected rather than
    //! silently becoming `inf`. [`print`] renders a value back to a
    //! document [`parse`] reproduces exactly (`parse ∘ print` is the
    //! identity on finite values).
    //!
    //! # Example
    //!
    //! ```
    //! use ede_util::obs::json::parse;
    //!
    //! let v = parse(r#"{"cycles": 42, "stages": ["D", "I"]}"#).unwrap();
    //! assert_eq!(v.get("cycles").and_then(|c| c.as_u64()), Some(42));
    //! assert_eq!(v.get("stages").and_then(|s| s.as_array()).map(|a| a.len()), Some(2));
    //! ```

    /// A parsed JSON value.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string (escapes resolved).
        Str(String),
        /// An array.
        Array(Vec<Json>),
        /// An object; insertion order preserved.
        Object(Vec<(String, Json)>),
    }

    impl Json {
        /// Member `key` of an object, if this is an object containing it.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one exactly.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The value as a float.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string slice.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array.
        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The value as an object's member list.
        pub fn as_object(&self) -> Option<&[(String, Json)]> {
            match self {
                Json::Object(o) => Some(o),
                _ => None,
            }
        }
    }

    /// The deepest value nesting [`parse`] accepts. Every document the
    /// workspace emits is a handful of levels deep; the limit exists so
    /// adversarial input (`[[[[…`) produces a typed error instead of
    /// exhausting the call stack.
    pub(super) const MAX_DEPTH: usize = 128;

    /// Why a document failed to parse.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum ParseError {
        /// Value nesting exceeded [`MAX_DEPTH`].
        TooDeep {
            /// The enforced limit.
            limit: usize,
        },
        /// Malformed JSON, with a byte-offset diagnosis.
        Invalid {
            /// What went wrong and where.
            detail: String,
        },
    }

    impl core::fmt::Display for ParseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                ParseError::TooDeep { limit } => {
                    write!(f, "value nesting deeper than {limit} levels")
                }
                ParseError::Invalid { detail } => write!(f, "{detail}"),
            }
        }
    }

    impl std::error::Error for ParseError {}

    fn invalid(detail: String) -> ParseError {
        ParseError::Invalid { detail }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description with the byte offset of the problem
    /// (the stringified [`ParseError`]).
    pub fn parse(input: &str) -> Result<Json, String> {
        try_parse(input).map_err(|e| e.to_string())
    }

    /// [`parse`] with the error kept as a typed [`ParseError`].
    ///
    /// # Errors
    ///
    /// [`ParseError::TooDeep`] when nesting exceeds [`MAX_DEPTH`];
    /// [`ParseError::Invalid`] for every other malformation.
    pub(super) fn try_parse(input: &str) -> Result<Json, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(invalid(format!("trailing garbage at byte {pos}")));
        }
        Ok(value)
    }

    /// Renders a value as a compact single-line document that [`parse`]
    /// maps back to an equal value. Non-finite numbers (which [`parse`]
    /// can never produce) render as `null`.
    pub fn print(v: &Json) -> String {
        let mut out = String::new();
        print_into(v, &mut out);
        out
    }

    fn print_into(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // `{}` on f64 is the shortest decimal that round-trips, and
            // never exponent notation — always a valid JSON number.
            Json::Num(n) => {
                let _ = core::fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Str(s) => out.push_str(&super::json_escape(s)),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    print_into(item, out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, val)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&super::json_escape(k));
                    out.push(':');
                    print_into(val, out);
                }
                out.push('}');
            }
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(invalid(format!("expected `{}` at byte {}", c as char, pos)))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
        if depth >= MAX_DEPTH {
            return Err(ParseError::TooDeep { limit: MAX_DEPTH });
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(invalid("unexpected end of input".to_string())),
            Some(b'{') => parse_object(b, pos, depth),
            Some(b'[') => parse_array(b, pos, depth),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, ParseError> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(invalid(format!("invalid literal at byte {pos}")))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
        expect(b, pos, b'{')?;
        let mut members = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos, depth + 1)?;
            members.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(invalid(format!("expected `,` or `}}` at byte {pos}"))),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(parse_value(b, pos, depth + 1)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(invalid(format!("expected `,` or `]` at byte {pos}"))),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err(invalid("unterminated string".to_string())),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| invalid(format!("bad \\u escape at byte {pos}")))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| invalid(format!("bad \\u escape at byte {pos}")))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    invalid(format!("bad code point at byte {pos}"))
                                })?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(invalid(format!("bad escape at byte {pos}"))),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 character.
                    let s = std::str::from_utf8(&b[*pos..])
                        .map_err(|_| invalid(format!("invalid UTF-8 at byte {pos}")))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
        match text.parse::<f64>() {
            // `1e999` parses to `inf` in Rust — a silent lie about the
            // document's content. Only finite literals are JSON numbers.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(invalid(format!(
                "number `{text}` at byte {start} overflows to a non-finite value"
            ))),
            Err(_) => Err(invalid(format!("invalid number `{text}` at byte {start}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Json};
    use super::*;

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_floor(0), 0);
        assert_eq!(Log2Histogram::bucket_floor(1), 1);
        assert_eq!(Log2Histogram::bucket_floor(3), 4);
        // Every value lands in the bucket whose floor is ≤ it.
        for v in [0u64, 1, 5, 100, 1 << 20, u64::MAX] {
            let b = Log2Histogram::bucket_of(v);
            assert!(Log2Histogram::bucket_floor(b) <= v);
        }
    }

    #[test]
    fn record_run_matches_per_sample_recording() {
        // The bulk bucket arithmetic must be indistinguishable from
        // recording every value of the run one by one — including runs
        // that start at 0, straddle several bucket boundaries, or sit
        // entirely inside one bucket.
        let cases: [(u64, u64); 8] = [
            (0, 1),             // just the zero bucket
            (0, 10),            // crosses buckets 0..4
            (1, 1),             // single sample
            (5, 3),             // inside bucket 3
            (6, 5),             // crosses the 8 boundary
            (1, 100),           // many boundaries
            (250, 20),          // crosses the 256 boundary
            ((1 << 20) - 3, 7), // crosses a high boundary
        ];
        for (start, n) in cases {
            let mut bulk = Log2Histogram::new();
            bulk.record_run(start, n);
            let mut slow = Log2Histogram::new();
            for v in start..start + n {
                slow.record(v);
            }
            assert_eq!(bulk, slow, "run start={start} n={n}");
        }
    }

    #[test]
    fn record_run_of_zero_is_a_no_op() {
        let mut h = Log2Histogram::new();
        h.record_run(42, 0);
        assert_eq!(h, Log2Histogram::new());
    }

    #[test]
    fn record_run_wide_span_is_o_buckets() {
        // A watchdog-sized span (500k cycles) in one call: the counts
        // must balance exactly without a 500k-iteration loop.
        let mut h = Log2Histogram::new();
        h.record_run(1, 500_000);
        assert_eq!(h.count(), 500_000);
        assert_eq!(h.sum(), 500_000 * 500_001 / 2);
        let total: u64 = h.nonzero_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 500_000);
        // Bucket k holds [2^(k-1), 2^k): a full interior bucket's count
        // is exactly its width.
        assert_eq!(h.bucket(10), 512);
    }

    #[test]
    fn registry_merge_histogram_equals_observe_loop() {
        let mut local = Log2Histogram::new();
        local.record_run(3, 50);
        let mut bulk = Registry::new();
        bulk.merge_histogram("h", &local);
        let mut slow = Registry::new();
        for v in 3..53 {
            slow.observe("h", v);
        }
        assert_eq!(bulk.to_json(), slow.to_json());
    }

    #[test]
    fn histogram_counts_and_merges() {
        let mut a = Log2Histogram::new();
        a.record(3);
        a.record(4);
        let mut b = Log2Histogram::new();
        b.record(0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 7);
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn registry_basics() {
        let mut reg = Registry::new();
        reg.inc("a", 2);
        reg.inc("a", 3);
        reg.set_gauge_max("g", -4);
        reg.set_gauge_max("g", 7);
        reg.set_gauge_max("g", 5);
        reg.observe("h", 9);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.get("g"), Some(&Metric::Gauge(7)));
        assert_eq!(reg.histogram("h").unwrap().count(), 1);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn debug_prints_a_map_in_name_order() {
        let mut reg = Registry::new();
        reg.inc("b", 2);
        reg.set_gauge_max("a", -1);
        assert_eq!(
            format!("{reg:?}"),
            r#"Registry { metrics: {"a": Gauge(-1), "b": Counter(2)} }"#
        );
        assert_eq!(format!("{:?}", Registry::new()), "Registry { metrics: {} }");
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Registry::new();
        a.inc("c", 1);
        a.set_gauge_max("g", 10);
        a.observe("h", 2);
        let mut b = Registry::new();
        b.inc("c", 4);
        b.set_gauge_max("g", 3);
        b.observe("h", 100);
        b.inc("only_b", 1);

        let (mut ab, mut ba) = (Registry::new(), Registry::new());
        ab.merge_prefixed(&a, "x");
        ab.merge_prefixed(&b, "x");
        ba.merge_prefixed(&b, "x");
        ba.merge_prefixed(&a, "x");
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x.c"), 5);
        assert_eq!(ab.get("x.g"), Some(&Metric::Gauge(10)));
        assert_eq!(ab.histogram("x.h").unwrap().count(), 2);
        assert_eq!(ab.counter("x.only_b"), 1);
    }

    #[test]
    fn merge_prefixed_namespaces() {
        let mut per_arch = Registry::new();
        per_arch.inc("cpu.cycles", 7);
        let mut all = Registry::new();
        all.merge_prefixed(&per_arch, "WB");
        assert_eq!(all.counter("WB.cpu.cycles"), 7);
        assert_eq!(all.counter("cpu.cycles"), 0);
    }

    #[test]
    fn json_output_is_stable_and_parses() {
        let mut reg = Registry::new();
        reg.observe("z.hist", 5);
        reg.inc("a.counter", 1);
        reg.set_gauge_max("m.gauge", -2);
        let doc = reg.to_json();
        // Name order, not insertion order.
        let a = doc.find("a.counter").unwrap();
        let m = doc.find("m.gauge").unwrap();
        let z = doc.find("z.hist").unwrap();
        assert!(a < m && m < z);
        assert_eq!(doc, reg.clone().to_json());

        let v = parse(&doc).expect("registry JSON parses");
        assert_eq!(
            v.get("a.counter")
                .and_then(|c| c.get("value"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("m.gauge")
                .and_then(|c| c.get("value"))
                .and_then(Json::as_f64),
            Some(-2.0)
        );
        let buckets = v
            .get("z.hist")
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].as_array().unwrap()[0].as_u64(), Some(4));
    }

    #[test]
    fn parser_accepts_and_rejects() {
        assert!(parse("null").is_ok());
        assert!(parse("[1, 2.5, -3, \"x\\n\", true, {}]").is_ok());
        assert!(parse("{\"a\": [1]} garbage").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
        let v = parse("{\"s\": \"a\\u0041b\"}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aAb"));
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let escaped = json_escape(nasty);
        let v = parse(&escaped).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        use super::json::{try_parse, ParseError, MAX_DEPTH};
        // Far past any plausible stack budget if recursion were
        // unbounded.
        let bombs = ["[".repeat(100_000), "{\"k\":".repeat(100_000)];
        for bomb in &bombs {
            match try_parse(bomb) {
                Err(ParseError::TooDeep { limit }) => assert_eq!(limit, MAX_DEPTH),
                other => panic!("expected TooDeep, got {other:?}"),
            }
        }
        // Documents at the limit still parse.
        let depth = MAX_DEPTH - 1;
        let ok = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        assert!(try_parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_number_literals_are_rejected() {
        for bad in ["1e999", "-1e999", "1e308e5"] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        // Large-but-finite still fine.
        assert_eq!(parse("1e308").unwrap(), Json::Num(1e308));
    }

    #[test]
    fn parse_never_panics_on_random_input() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x0B5_F022);
        for case in 0..2000u64 {
            let len = rng.gen_range(0usize..64);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            // Bias half the cases toward structural bytes so the fuzz
            // actually reaches the parser's interior, not just the
            // first-byte dispatch.
            if case % 2 == 0 {
                const STRUCT: &[u8] = b"{}[]\",:.-+eE0123456789truefalsnu\\ ";
                for b in &mut bytes {
                    *b = STRUCT[*b as usize % STRUCT.len()];
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse(&text); // must return, never panic
        }
    }

    fn random_doc(rng: &mut crate::rng::SmallRng, depth: usize) -> Json {
        match rng.gen_range(0u64..if depth >= 4 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => {
                // Mix of integers and dyadic fractions — all exact in
                // f64, so equality after a round trip is meaningful.
                let n = rng.gen_range(0u64..1 << 40) as f64;
                let d = [1.0, 2.0, 4.0, 8.0][rng.gen_range(0usize..4)];
                Json::Num(if rng.gen_bool(0.5) { n / d } else { -(n / d) })
            }
            3 => {
                let nasty = ["", "plain", "q\"q", "b\\b", "nl\n", "tab\t", "u\u{1}"];
                Json::Str(nasty[rng.gen_range(0usize..nasty.len())].to_string())
            }
            4 => {
                let n = rng.gen_range(0usize..4);
                Json::Array((0..n).map(|_| random_doc(rng, depth + 1)).collect())
            }
            _ => {
                let n = rng.gen_range(0usize..4);
                Json::Object(
                    (0..n)
                        .map(|i| (format!("k{i}"), random_doc(rng, depth + 1)))
                        .collect(),
                )
            }
        }
    }

    #[test]
    fn print_parse_is_the_identity() {
        use super::json::print;
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x1DE17171);
        for _ in 0..500 {
            let doc = random_doc(&mut rng, 0);
            let text = print(&doc);
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, doc, "round trip through `{text}`");
        }
    }

    #[test]
    fn print_renders_non_finite_as_null() {
        use super::json::print;
        assert_eq!(print(&Json::Num(f64::NAN)), "null");
        assert_eq!(print(&Json::Num(f64::INFINITY)), "null");
        assert_eq!(
            print(&Json::Array(vec![
                Json::Num(1.5),
                Json::Num(f64::NEG_INFINITY)
            ])),
            "[1.5,null]"
        );
    }
}
