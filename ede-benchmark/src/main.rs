//! `ede-benchmark` — host-time benchmark of the EDE simulator and its
//! checking campaigns.
//!
//! ```text
//! ede-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Sets the workload up five times (each set-up ends with a warm-up
//! sample), then times untraced samples for `--seconds` and reports the
//! end-to-end metrics. Every set-up and sample is followed by a run of
//! the host-speed probe, and the end-to-end times are in the probe's
//! reference seconds (see `probe`). With `--trace 1` it also runs one
//! traced pass and reports the per-layer metrics instead. Every sample's
//! output digest must match the first set-up's, and every unit must pass
//! its check; otherwise the result reads `"correct": false` and the exit
//! code is 1.
//! The last line of standard output is the result as one JSON object.
//! With `--out DIR` it also writes an `ede.bench.v1` record there, and
//! with `--trace 1` the traced pass's spans as a Chrome trace.
//! See BENCHMARK.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod probe;
mod spans;
mod workloads;

use ede_util::obs::json::{self, Json};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Sizes, Traced, Workload, CORRUPT_LAYERS, FULL, LAYERS};

const USAGE: &str = "usage: ede-benchmark --workload fig9|crash-sweep|fuzz|corrupt \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";

/// Set-ups per run; `setup_s` is their median. The first is cold (heap
/// growth, page faults), so five keep the median among the warm ones.
const SETUPS: usize = 5;

/// The most of the traced wall time the benchmark's own loop may take.
const MAX_HARNESS_FRAC: f64 = 0.05;

/// The end-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("units_per_s", "units/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The raw wall-clock numbers behind the end-to-end metrics, reported
/// last among the per-layer metrics with `--trace 1`.
const WALL: [(&str, &str); 3] = [
    ("bench.probe_s", "s"),
    ("bench.wall_units_per_s", "units/s"),
    ("bench.wall_setup_s", "s"),
];

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 20;
    let mut trace = false;
    let mut out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is neither 0 nor 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

type Metric = (String, &'static str, f64);

/// Everything one run measured.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    setup_walls: Vec<f64>,
    sample_walls: Vec<f64>,
    probe_walls: Vec<f64>,
    /// The set-up and sample walls in reference seconds.
    setup_ref: Vec<f64>,
    sample_ref: Vec<f64>,
    metrics: Vec<Metric>,
    spans: Option<Spans>,
}

fn run(args: &Args, sizes: &Sizes) -> Result<Report, String> {
    let w = args.workload;
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference = None;
    let mut same_digest = |digest: u64, what: &str, problems: &mut Vec<String>| {
        let want = *reference.get_or_insert(digest);
        if digest != want {
            problems.push(format!(
                "{what}: digest {digest:016x}, first set-up {want:016x}"
            ));
        }
    };

    let mut setup_walls = Vec::new();
    let mut probe_walls = Vec::new();
    let mut setup_ref = Vec::new();
    let mut peak_mb = 0.0;
    let mut prepared = None;
    for i in 0..SETUPS {
        drop(prepared.take());
        let t = Instant::now();
        let p = w.setup(args.seed, sizes)?;
        let warm = p.sample();
        let wall = t.elapsed().as_secs_f64();
        if i == 0 {
            // The workload's own peak, read before the probe first runs.
            peak_mb = peak_rss_mb()?;
        }
        let probe_s = probe::wall_s();
        setup_walls.push(wall);
        probe_walls.push(probe_s);
        setup_ref.push(probe::reference_s(wall, probe_s));
        attempted += p.units();
        failed += warm.failed;
        same_digest(warm.digest, &format!("set-up {i}"), &mut problems);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let units = prepared.units();

    let mut sample_walls = Vec::new();
    let mut sample_ref = Vec::new();
    let start = Instant::now();
    while sample_walls.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        let t = Instant::now();
        let o = prepared.sample();
        let wall = t.elapsed().as_secs_f64();
        let probe_s = probe::wall_s();
        sample_walls.push(wall);
        probe_walls.push(probe_s);
        sample_ref.push(probe::reference_s(wall, probe_s));
        attempted += units;
        failed += o.failed;
        same_digest(
            o.digest,
            &format!("sample {}", sample_walls.len()),
            &mut problems,
        );
    }
    let sample_s = median(&sample_walls);

    let mut spans = None;
    let metrics = if args.trace {
        drop(prepared);
        let mut s = Spans::new();
        let traced = w.traced(args.seed, sizes, &mut s);
        attempted += units;
        failed += traced.failed;
        same_digest(traced.digest, "traced pass", &mut problems);
        let mut metrics = per_layer(&traced, &s, sample_s);
        metrics.extend(named(
            &WALL,
            &[
                median(&probe_walls),
                units as f64 / sample_s,
                median(&setup_walls),
            ],
        ));
        problems.extend(traced.problems);
        let wall = s.self_s(|_| true);
        let harness = s.self_s(|n| !LAYERS.contains(&n));
        if harness > MAX_HARNESS_FRAC * wall {
            problems.push(format!(
                "harness took {harness:.4} s of the {wall:.4} s traced wall, over {:.0} %",
                MAX_HARNESS_FRAC * 100.0
            ));
        }
        spans = Some(s);
        metrics
    } else {
        named(
            &END_TO_END,
            &[
                units as f64 / median(&sample_ref),
                median(&setup_ref),
                peak_mb,
            ],
        )
    };
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        problems,
        digest: reference.expect("at least one digest"),
        setup_walls,
        sample_walls,
        probe_walls,
        setup_ref,
        sample_ref,
        metrics,
        spans,
    })
}

/// Pairs `(name, unit)` rows with their values.
fn named(names: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| (name.to_string(), unit, v))
        .collect()
}

/// Appends `(name, unit, value)` rows to `m`.
fn push(m: &mut Vec<Metric>, rows: impl IntoIterator<Item = (&'static str, &'static str, f64)>) {
    m.extend(
        rows.into_iter()
            .map(|(name, unit, v)| (name.to_string(), unit, v)),
    );
}

/// The per-layer metrics of a traced pass. Every workload reports every
/// metric; a layer the workload bypasses reads 0.
fn per_layer(t: &Traced, spans: &Spans, sample_s: f64) -> Vec<Metric> {
    // `scale` × seconds per unit of `base`; 0 when nothing was measured.
    let per = |s: f64, base: u64, scale: f64| {
        if base == 0 {
            0.0
        } else {
            s * scale / base as f64
        }
    };
    let self_s = |layer: &str| spans.self_s(|n| n == layer);
    let us = |name: &str, p: f64| percentile(&spans.durations_s(name), p) * 1e6;
    let mut m: Vec<Metric> = Vec::new();
    let layer = |m: &mut Vec<Metric>, name: &str| {
        let (s, calls) = (self_s(name), spans.calls(name));
        m.push((format!("{name}.self_s"), "s", s));
        m.push((format!("{name}.calls"), "count", calls as f64));
        (s, calls)
    };

    let (s, calls) = layer(&mut m, "sim.run_program");
    let (cycles, retired) = if calls > 0 {
        (t.cycles, t.retired)
    } else {
        (0, 0)
    };
    push(
        &mut m,
        [
            (
                "sim.run_program.ns_per_cycle",
                "ns/cycle",
                per(s, cycles, 1e9),
            ),
            (
                "sim.run_program.ns_per_inst",
                "ns/inst",
                per(s, retired, 1e9),
            ),
        ],
    );
    let (s, _) = layer(&mut m, "workloads.generate");
    push(
        &mut m,
        [
            (
                "workloads.generate.insts",
                "count",
                t.generated_insts as f64,
            ),
            (
                "workloads.generate.ns_per_inst",
                "ns/inst",
                per(s, t.generated_insts, 1e9),
            ),
        ],
    );
    let (s, _) = layer(&mut m, "mem.nvm_image_at");
    push(
        &mut m,
        [
            ("mem.nvm_image_at.events", "count", t.image_events as f64),
            (
                "mem.nvm_image_at.ns_per_event",
                "ns/event",
                per(s, t.image_events, 1e9),
            ),
        ],
    );
    layer(&mut m, "nvm.check_image");
    push(
        &mut m,
        [
            ("nvm.check_image.p50_us", "us", us("nvm.check_image", 0.50)),
            ("nvm.check_image.p99_us", "us", us("nvm.check_image", 0.99)),
        ],
    );
    let (s, calls) = layer(&mut m, "sim.run_program_traced");
    push(
        &mut m,
        [(
            "sim.run_program_traced.us_per_run",
            "us/run",
            per(s, calls, 1e6),
        )],
    );
    for name in [
        "check.gen",
        "check.concretize",
        "check.golden",
        "check.conform",
    ] {
        layer(&mut m, name);
    }
    push(
        &mut m,
        [
            ("fuzz.case.p50_us", "us", us("fuzz.case", 0.50)),
            ("fuzz.case.p99_us", "us", us("fuzz.case", 0.99)),
        ],
    );

    let mut cells = Vec::new();
    for name in CORRUPT_LAYERS {
        m.push((format!("{name}.self_s"), "s", self_s(name)));
        cells.extend(spans.durations_s(name));
    }
    cells.sort_by(f64::total_cmp);
    let traced_sample: f64 = spans.durations_s("bench.sample").iter().sum();
    // Simulation rates need the simulation inside the timed sample.
    let (cycles, retired) = if t.sim_in_sample {
        (t.cycles, t.retired)
    } else {
        (0, 0)
    };
    push(
        &mut m,
        [
            ("check.corrupt.cell.p50_s", "s", percentile(&cells, 0.50)),
            ("check.corrupt.cell.max_s", "s", percentile(&cells, 1.0)),
            ("bench.traced_wall_s", "s", spans.self_s(|_| true)),
            (
                "bench.harness.self_s",
                "s",
                spans.self_s(|n| !LAYERS.contains(&n)),
            ),
            (
                "bench.trace_overhead.frac",
                "frac",
                traced_sample / sample_s - 1.0,
            ),
            ("cpu.cycles", "count", t.cycles as f64),
            ("cpu.retired", "count", t.retired as f64),
            ("mem.persist_events", "count", t.persist_events as f64),
            ("crash.images", "count", t.images as f64),
            ("fuzz.runs", "count", t.runs as f64),
            ("sim.cycles_per_s", "cycles/s", cycles as f64 / sample_s),
            ("sim.insts_per_s", "insts/s", retired as f64 / sample_s),
            ("fig9.paper_mae", "ratio", t.paper_mae),
        ],
    );
    m
}

/// Median of unsorted values.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles of unsorted values, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of sorted values; 0 when there are none.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set, in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn nums(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Num(v)).collect())
}

/// The commit the benchmark was built from, when run inside a git
/// checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The `ede.bench.v1` record of one run.
fn record(args: &Args, r: &Report) -> Json {
    let (q1, q3) = quartiles(&r.sample_ref);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::Object(vec![
        ("schema".into(), Json::Str("ede.bench.v1".into())),
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("commit".into(), Json::Str(commit())),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("jobs".into(), Json::Num(1.0)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("traced".into(), Json::Bool(args.trace)),
        ("digest".into(), Json::Str(format!("{:016x}", r.digest))),
        ("setup_walls_s".into(), nums(&r.setup_walls)),
        ("samples".into(), Json::Num(r.sample_walls.len() as f64)),
        ("sample_walls_s".into(), nums(&r.sample_walls)),
        ("probe_walls_s".into(), nums(&r.probe_walls)),
        ("probe_reference_s".into(), Json::Num(probe::REFERENCE_S)),
        ("setup_ref_s".into(), nums(&r.setup_ref)),
        ("sample_ref_s".into(), nums(&r.sample_ref)),
        (
            "sample_median_ref_s".into(),
            Json::Num(median(&r.sample_ref)),
        ),
        ("sample_q1_ref_s".into(), Json::Num(q1)),
        ("sample_q3_ref_s".into(), Json::Num(q3)),
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        (
            "problems".into(),
            Json::Array(r.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
        ("metrics".into(), metrics_json(&r.metrics)),
    ])
}

fn write_outputs(dir: &Path, args: &Args, r: &Report) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let write = |name: String, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), json::print(&record(args, r)))?;
    if let Some(spans) = &r.spans {
        write(format!("{stem}.chrome.json"), spans.chrome_trace())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ede-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args, &FULL) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ede-benchmark: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &report.problems {
        eprintln!("ede-benchmark: {}: {p}", args.workload.name());
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_outputs(dir, &args, &report) {
            eprintln!("ede-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (q1, q3) = quartiles(&report.sample_ref);
    println!(
        "{}: seed {}, {} samples, sample median {:.4} reference s (q1 {:.4}, q3 {:.4}), \
         wall median {:.4} s, probe median {:.4} s, digest {:016x}",
        args.workload.name(),
        args.seed,
        report.sample_walls.len(),
        median(&report.sample_ref),
        q1,
        q3,
        median(&report.sample_walls),
        median(&report.probe_walls),
        report.digest
    );
    for (name, unit, value) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{}",
        json::print(&Json::Object(vec![
            ("correct".into(), Json::Bool(report.correct)),
            ("attempted".into(), Json::Num(report.attempted as f64)),
            ("failed".into(), Json::Num(report.failed as f64)),
            ("metrics".into(), metrics_json(&report.metrics)),
        ]))
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::tests::TINY;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&["--workload", "fuzz"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 20, false));
        let a = args(&[
            "--workload",
            "corrupt",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Corrupt, 7, 3, true)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "explore"],
            &["--workload", "fig9", "--seed", "abc"],
            &["--workload", "fig9", "--seconds", "-1"],
            &["--workload", "fig9", "--trace", "2"],
            &["--workload", "fig9", "--seed"],
            &["--workload", "fig9", "--jobs", "2"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
    }

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_emits() {
        let doc = declared();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        let e2e = names_units(&doc, "end_to_end");
        let emitted: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, emitted);

        let layer = names_units(&doc, "per_layer");
        let emitted: Vec<(String, String)> = per_layer(&Traced::default(), &Spans::new(), 1.0)
            .into_iter()
            .chain(named(&WALL, &[0.0; 3]))
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(layer, emitted);
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));

        let mut all: Vec<&String> = workloads
            .iter()
            .chain(e2e.iter().map(|(n, _)| n))
            .chain(layer.iter().map(|(n, _)| n))
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "invalid name in {all:?}");
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "names are unique");

        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string();
                (name, m.get("bound").and_then(Json::as_f64).expect("bound"))
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
            assert!(*bound <= setup, "setup_s has the largest bound");
        }
    }

    #[test]
    fn every_workload_reports_every_metric_correctly() {
        let declared = declared();
        for w in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload: w,
                    seed: 3,
                    seconds: 0,
                    trace,
                    out: None,
                };
                let r = run(&a, &TINY).expect("run succeeds");
                assert!(r.correct, "{} trace={trace}: {:?}", w.name(), r.problems);
                assert_eq!(r.failed, 0);
                assert!(r.attempted > 0);
                let key = if trace { "per_layer" } else { "end_to_end" };
                let want: Vec<(String, String)> = names_units(&declared, key);
                let got: Vec<(String, String)> = r
                    .metrics
                    .iter()
                    .map(|(n, u, _)| (n.clone(), u.to_string()))
                    .collect();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                for (name, _, value) in &r.metrics {
                    assert!(value.is_finite(), "{name} = {value}");
                }
                if !trace {
                    assert!(
                        r.metrics.iter().all(|(_, _, v)| *v > 0.0),
                        "{:?}",
                        r.metrics
                    );
                }
            }
        }
    }
}
