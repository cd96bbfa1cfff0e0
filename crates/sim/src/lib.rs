//! Top-level EDE simulation harness.
//!
//! Ties the workspace together: picks a Table II workload, lowers it for a
//! Table III architecture configuration, runs it on the Table I machine,
//! and collects every statistic the paper's evaluation reports —
//! execution time (Figure 9), pending NVM writes (Figure 10), and
//! issue-width distribution plus IPC (Figure 11).
//!
//! # Example
//!
//! ```
//! use ede_isa::ArchConfig;
//! use ede_sim::{run_workload, SimConfig};
//! use ede_workloads::{update::Update, WorkloadParams};
//!
//! let params = WorkloadParams { ops: 40, ops_per_tx: 20, array_elems: 256,
//!                               ..WorkloadParams::default() };
//! let r = run_workload(&Update, &params, ArchConfig::Baseline, &SimConfig::a72())
//!     .expect("run completes");
//! assert!(r.cycles > 0);
//! assert!(r.crash_consistent().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod experiment;
pub mod metrics;
pub mod report;
pub mod runner;

pub use config::SimConfig;
pub use error::SimError;
pub use experiment::{
    fig10, fig11, fig9, fig9_seeds, ExperimentConfig, Fig10, Fig11, Fig9, Fig9Seeds,
};
pub use metrics::{chrome_trace_json, metrics_json, validate_metrics_json, METRICS_SCHEMA};
pub use runner::{
    raw_output, run_program, run_program_observed, run_program_traced, run_workload, RunResult,
};

/// Geometric mean of strictly positive values; 0 for an empty slice.
///
/// # Example
///
/// ```
/// assert!((ede_sim::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    #[test]
    fn geomean_basics() {
        assert_eq!(super::geomean(&[]), 0.0);
        assert!((super::geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((super::geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
