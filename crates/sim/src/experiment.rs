//! The paper's evaluation experiments (Figures 9, 10, 11).

use crate::config::SimConfig;
use crate::error::SimError;
use crate::geomean;
use crate::runner::{run_workload, RunResult};
use ede_isa::ArchConfig;
use ede_workloads::{standard_suite, Workload, WorkloadParams};

/// Shared experiment setup. The derived default is the A72-like machine
/// (`SimConfig::default()` is `SimConfig::a72()`).
#[derive(Clone, Debug, Default)]
pub struct ExperimentConfig {
    /// Workload parameters (operation count, transaction size, seed…).
    pub params: WorkloadParams,
    /// Machine configuration.
    pub sim: SimConfig,
    /// Worker threads for the workload × configuration sweep cells:
    /// 0 = auto (`EDE_JOBS` or the host parallelism), 1 = sequential.
    /// Every figure is bit-identical for every value — cells are
    /// independent simulations merged in canonical order (see DESIGN.md
    /// "Parallel execution").
    pub jobs: usize,
}

/// One application's row in Figure 9.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Application name.
    pub app: String,
    /// Transaction-phase cycles per configuration, Table III order.
    pub cycles: [u64; 5],
    /// Execution time normalized to the baseline, Table III order.
    pub normalized: [f64; 5],
}

/// Figure 9: execution time per application and configuration.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// Per-application rows.
    pub rows: Vec<Fig9Row>,
    /// Geometric-mean normalized execution time per configuration.
    pub geomean: [f64; 5],
}

impl Fig9 {
    /// Mean execution-time *reduction* (%) per configuration relative to
    /// the baseline — the numbers the paper quotes as 5/15/20/38%.
    pub fn reduction_pct(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, g) in self.geomean.iter().enumerate() {
            out[i] = (1.0 - g) * 100.0;
        }
        out
    }

    /// Mean speedup (%) per configuration — the paper's 18% (IQ) and
    /// 26% (WB).
    pub fn speedup_pct(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, g) in self.geomean.iter().enumerate() {
            out[i] = (1.0 / g - 1.0) * 100.0;
        }
        out
    }
}

/// Runs a list of independent workload × configuration cells across
/// `cfg.jobs` pool workers with **no early abort**: every cell runs, and
/// each cell's outcome — what `keep` takes from its result, or a typed
/// [`SimError`] — is recorded in cell order. A deadlocked or over-budget
/// cell costs one `Err` entry, not the sweep.
///
/// `keep` runs inside the worker, so a cell's [`RunResult`] (program,
/// timings, trace, pool contents) is dropped there and only the numbers
/// its figure reads outlive the cell.
fn sweep_recorded<T: Send>(
    cfg: &ExperimentConfig,
    suite: &[Box<dyn Workload>],
    cells: &[(usize, ArchConfig)],
    keep: impl Fn(RunResult) -> T + Sync,
) -> Vec<Result<T, SimError>> {
    ede_util::pool::par_map_indexed(cfg.jobs, cells, |_, &(wi, arch)| {
        run_workload(suite[wi].as_ref(), &cfg.params, arch, &cfg.sim).map(&keep)
    })
}

/// [`sweep_recorded`], returning the kept values in cell order. The first
/// error **in cell order** is propagated (not the first to complete), so
/// error behavior is as deterministic as the success path.
fn sweep<T: Send>(
    cfg: &ExperimentConfig,
    suite: &[Box<dyn Workload>],
    cells: &[(usize, ArchConfig)],
    keep: impl Fn(RunResult) -> T + Sync,
) -> Result<Vec<T>, SimError> {
    sweep_recorded(cfg, suite, cells, keep)
        .into_iter()
        .collect()
}

/// Workload-major cell order: all five configurations of workload 0,
/// then workload 1, … — the canonical order `fig9`/`fig10` merge in.
fn cells_workload_major(n: usize) -> Vec<(usize, ArchConfig)> {
    (0..n)
        .flat_map(|wi| ArchConfig::ALL.iter().map(move |&arch| (wi, arch)))
        .collect()
}

/// Runs Figure 9 over the full Table II suite.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig9(cfg: &ExperimentConfig) -> Result<Fig9, SimError> {
    fig9_with(cfg, &standard_suite())
}

/// Runs Figure 9 over a chosen set of workloads.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig9_with(cfg: &ExperimentConfig, suite: &[Box<dyn Workload>]) -> Result<Fig9, SimError> {
    let tx_cycles = sweep(cfg, suite, &cells_workload_major(suite.len()), |r| {
        r.tx_cycles
    })?;
    let mut rows = Vec::new();
    for (wi, w) in suite.iter().enumerate() {
        let runs = &tx_cycles[wi * 5..wi * 5 + 5];
        let base = runs[0].max(1);
        let mut cycles = [0u64; 5];
        let mut normalized = [0f64; 5];
        for (i, &c) in runs.iter().enumerate() {
            cycles[i] = c;
            normalized[i] = c as f64 / base as f64;
        }
        rows.push(Fig9Row {
            app: w.name().to_string(),
            cycles,
            normalized,
        });
    }
    let mut geo = [0f64; 5];
    for (i, g) in geo.iter_mut().enumerate() {
        let xs: Vec<f64> = rows.iter().map(|r| r.normalized[i]).collect();
        *g = geomean(&xs);
    }
    Ok(Fig9 { rows, geomean: geo })
}

/// Multi-seed aggregate of Figure 9: mean and sample standard deviation
/// of the normalized execution time per configuration.
#[derive(Clone, Debug)]
pub struct Fig9Seeds {
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Per-seed geomean rows (Table III order).
    pub per_seed: Vec<[f64; 5]>,
    /// Mean of the geomeans.
    pub mean: [f64; 5],
    /// Sample standard deviation of the geomeans (0 for a single seed).
    pub stdev: [f64; 5],
}

/// Runs Figure 9 once per seed and aggregates the geomeans — the
/// statistical-rigor variant (the paper reports single-seed numbers;
/// the spread here bounds how much the workload RNG matters).
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig9_seeds(
    cfg: &ExperimentConfig,
    suite: &[Box<dyn Workload>],
    seeds: &[u64],
) -> Result<Fig9Seeds, SimError> {
    assert!(!seeds.is_empty(), "at least one seed");
    let mut per_seed = Vec::new();
    for &seed in seeds {
        let mut c = cfg.clone();
        c.params.seed = seed;
        per_seed.push(fig9_with(&c, suite)?.geomean);
    }
    let n = per_seed.len() as f64;
    let mut mean = [0.0; 5];
    let mut stdev = [0.0; 5];
    for i in 0..5 {
        let m = per_seed.iter().map(|r| r[i]).sum::<f64>() / n;
        mean[i] = m;
        if per_seed.len() > 1 {
            let var = per_seed.iter().map(|r| (r[i] - m).powi(2)).sum::<f64>() / (n - 1.0);
            stdev[i] = var.sqrt();
        }
    }
    Ok(Fig9Seeds {
        seeds: seeds.to_vec(),
        per_seed,
        mean,
        stdev,
    })
}

/// One application × configuration cell of Figure 10.
#[derive(Clone, Debug)]
pub struct Fig10Cell {
    /// Application name.
    pub app: String,
    /// Configuration.
    pub arch: ArchConfig,
    /// Occupancy histogram: index = pending NVM writes in the 128-slot
    /// buffer, value = samples (taken at each media write).
    pub histogram: Vec<u64>,
}

impl Fig10Cell {
    /// Mean pending writes over all samples.
    pub fn mean_occupancy(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Figure 10: distribution of pending NVM writes in the on-DIMM buffer.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// One cell per application × configuration.
    pub cells: Vec<Fig10Cell>,
}

impl Fig10 {
    /// The cell for a given application/configuration.
    pub fn cell(&self, app: &str, arch: ArchConfig) -> Option<&Fig10Cell> {
        self.cells.iter().find(|c| c.app == app && c.arch == arch)
    }

    /// Mean occupancy per configuration across all applications.
    pub fn mean_by_arch(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, arch) in ArchConfig::ALL.iter().enumerate() {
            let xs: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| c.arch == *arch)
                .map(Fig10Cell::mean_occupancy)
                .collect();
            out[i] = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        }
        out
    }
}

/// Runs Figure 10 over the full suite.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig10(cfg: &ExperimentConfig) -> Result<Fig10, SimError> {
    fig10_with(cfg, &standard_suite())
}

/// Runs Figure 10 over a chosen set of workloads.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig10_with(cfg: &ExperimentConfig, suite: &[Box<dyn Workload>]) -> Result<Fig10, SimError> {
    let grid = cells_workload_major(suite.len());
    let histograms = sweep(cfg, suite, &grid, |r| r.nvm_occupancy)?;
    let cells = grid
        .iter()
        .zip(histograms)
        .map(|(&(wi, arch), histogram)| Fig10Cell {
            app: suite[wi].name().to_string(),
            arch,
            histogram,
        })
        .collect();
    Ok(Fig10 { cells })
}

/// One configuration's aggregate in Figure 11.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Configuration.
    pub arch: ArchConfig,
    /// Fraction of cycles issuing exactly `n` instructions, `n = 0..=8`,
    /// aggregated over all applications.
    pub issue_fractions: Vec<f64>,
    /// Mean IPC across applications.
    pub ipc: f64,
}

/// Figure 11: issue-width distribution and IPC per configuration.
#[derive(Clone, Debug)]
pub struct Fig11 {
    /// One row per configuration, Table III order.
    pub rows: Vec<Fig11Row>,
}

impl Fig11 {
    /// The row for one configuration.
    pub fn row(&self, arch: ArchConfig) -> &Fig11Row {
        self.rows
            .iter()
            .find(|r| r.arch == arch)
            .expect("all configurations present")
    }
}

/// Runs Figure 11 over the full suite.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig11(cfg: &ExperimentConfig) -> Result<Fig11, SimError> {
    fig11_with(cfg, &standard_suite())
}

/// Runs Figure 11 over a chosen set of workloads.
///
/// # Errors
///
/// Propagates the first [`SimError`] in cell order if any run fails.
pub fn fig11_with(cfg: &ExperimentConfig, suite: &[Box<dyn Workload>]) -> Result<Fig11, SimError> {
    let width = cfg.sim.cpu.issue_width;
    // Arch-major cell order: this figure aggregates per configuration.
    let grid: Vec<(usize, ArchConfig)> = ArchConfig::ALL
        .iter()
        .flat_map(|&arch| (0..suite.len()).map(move |wi| (wi, arch)))
        .collect();
    let results = sweep(cfg, suite, &grid, |r| {
        let ipc = r.ipc();
        (r.issue_hist, ipc)
    })?;
    let mut rows = Vec::new();
    for (ai, arch) in ArchConfig::ALL.into_iter().enumerate() {
        let runs = &results[ai * suite.len()..(ai + 1) * suite.len()];
        let mut counts = vec![0u64; width + 1];
        let mut ipcs = Vec::new();
        for (hist, ipc) in runs {
            for (n, c) in hist.counts().iter().enumerate() {
                counts[n] += c;
            }
            ipcs.push(*ipc);
        }
        let total: u64 = counts.iter().sum();
        let issue_fractions = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect();
        rows.push(Fig11Row {
            arch,
            issue_fractions,
            ipc: ipcs.iter().sum::<f64>() / ipcs.len().max(1) as f64,
        });
    }
    Ok(Fig11 { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_workloads::update::Update;

    /// The recorded sweep with each cell's whole result kept.
    fn run_cells_recorded(
        cfg: &ExperimentConfig,
        suite: &[Box<dyn Workload>],
        cells: &[(usize, ArchConfig)],
    ) -> Vec<Result<RunResult, SimError>> {
        sweep_recorded(cfg, suite, cells, |r| r)
    }

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            params: WorkloadParams {
                ops: 20,
                ops_per_tx: 10,
                array_elems: 128,
                ..WorkloadParams::default()
            },
            sim: SimConfig::a72(),
            jobs: 1,
        }
    }

    #[test]
    fn figures_are_identical_for_every_job_count() {
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let base = fig9_with(&tiny(), &suite).unwrap();
        for jobs in [2, 7] {
            let cfg = ExperimentConfig { jobs, ..tiny() };
            let f = fig9_with(&cfg, &suite).unwrap();
            assert_eq!(f.rows[0].cycles, base.rows[0].cycles, "jobs {jobs}");
            assert_eq!(f.geomean, base.geomean, "jobs {jobs}");
        }
    }

    #[test]
    fn recorded_sweep_survives_failing_cells() {
        // A cycle budget no cell can meet: every cell fails, but the
        // recorded sweep still visits all of them, in order.
        let mut cfg = tiny();
        cfg.sim.max_cycles = 200;
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let grid = cells_workload_major(suite.len());
        let outcomes = run_cells_recorded(&cfg, &suite, &grid);
        assert_eq!(outcomes.len(), grid.len());
        for o in &outcomes {
            let err = o.as_ref().unwrap_err();
            assert!(err.is_cycle_limit(), "{err}");
        }
        // The aborting wrapper turns the same sweep into its first error.
        assert!(fig9_with(&cfg, &suite).is_err());
    }

    #[test]
    fn fig9_on_one_workload() {
        let cfg = tiny();
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let f = fig9_with(&cfg, &suite).unwrap();
        assert_eq!(f.rows.len(), 1);
        // Baseline normalizes to 1.
        assert!((f.rows[0].normalized[0] - 1.0).abs() < 1e-12);
        // All other configurations should not be slower than baseline.
        for i in 1..5 {
            assert!(f.rows[0].normalized[i] <= 1.05, "config {i} slower than B");
        }
        // Unsafe is the fastest.
        let u = f.rows[0].normalized[4];
        for i in 0..4 {
            assert!(u <= f.rows[0].normalized[i] + 1e-12);
        }
    }

    #[test]
    fn fig9_seeds_aggregates() {
        let cfg = tiny();
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let s = fig9_seeds(&cfg, &suite, &[1, 2, 3]).unwrap();
        assert_eq!(s.per_seed.len(), 3);
        assert!((s.mean[0] - 1.0).abs() < 1e-9, "baseline stays 1.0");
        assert!(s.stdev[0] < 1e-9);
        // The ordering holds on average.
        assert!(s.mean[4] <= s.mean[0]);
        // Single seed → zero spread.
        let one = fig9_seeds(&cfg, &suite, &[7]).unwrap();
        assert_eq!(one.stdev, [0.0; 5]);
    }

    #[test]
    fn fig11_fractions_sum_to_one() {
        let cfg = tiny();
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let f = fig11_with(&cfg, &suite).unwrap();
        for row in &f.rows {
            let s: f64 = row.issue_fractions.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: sums to {s}", row.arch);
            assert!(row.ipc > 0.0);
        }
    }

    #[test]
    fn fig10_histograms_present() {
        let cfg = tiny();
        let suite: Vec<Box<dyn Workload>> = vec![Box::new(Update)];
        let f = fig10_with(&cfg, &suite).unwrap();
        assert_eq!(f.cells.len(), 5);
        // Writes happened, so samples exist for every configuration.
        for c in &f.cells {
            assert!(c.histogram.iter().sum::<u64>() > 0, "{}", c.arch);
        }
        assert!(f.cell("update", ArchConfig::Unsafe).is_some());
    }
}
