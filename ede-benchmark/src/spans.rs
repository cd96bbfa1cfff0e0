//! In-memory host-time spans, recorded around the public calls into each
//! layer during the traced pass.
//!
//! A span has a name, a unit id (the cell, case or image it belongs to),
//! start and end offsets from the recorder's origin, and the span that
//! was open when it started. A span's *self time* is its duration minus
//! the durations of its children, so the self times of all spans add up
//! to the duration of the outermost spans exactly.

use ede_util::obs::json::{self, Json};
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    unit: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time of every span, in recording order.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Total self time, in seconds, of the spans whose name satisfies
    /// `select`.
    pub fn self_s(&self, select: impl Fn(&str) -> bool) -> f64 {
        let own = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| select(s.name))
            .map(|(_, &n)| n)
            .sum();
        ns as f64 / 1e9
    }

    /// How many spans carry `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Durations in seconds of the spans named `name`, sorted ascending.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect();
        d.sort_by(f64::total_cmp);
        d
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, timestamps in microseconds.
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let cat = s.name.split('.').next().unwrap_or(s.name);
                Json::Object(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(cat.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Object(vec![("unit".into(), Json::Num(s.unit as f64))]),
                    ),
                ])
            })
            .collect();
        json::print(&Json::Object(vec![
            ("traceEvents".into(), Json::Array(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_outer_span() {
        let mut s = Spans::new();
        s.span("outer", 0, |s| {
            busy(2);
            for i in 0..3 {
                s.span("inner", i, |_| busy(1));
            }
        });
        let outer = s.durations_s("outer")[0];
        let total = s.self_s(|_| true);
        assert!((outer - total).abs() < 1e-9, "{outer} vs {total}");
        assert_eq!(s.calls("inner"), 3);
        assert!(s.self_s(|n| n == "inner") >= 0.003);
        assert!(s.self_s(|n| n == "outer") < outer);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut s = Spans::new();
        s.span("sim.run_program", 7, |_| busy(1));
        let doc = json::parse(&s.chrome_trace()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("sim"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 1000.0);
        let unit = e
            .get("args")
            .and_then(|a| a.get("unit"))
            .and_then(Json::as_u64);
        assert_eq!(unit, Some(7));
    }
}
