//! Shared plumbing for the benchmark harness.
//!
//! The binaries (`fig9`, `fig10`, `fig11`, `tables`) regenerate each
//! artifact of the paper's evaluation section; the Criterion benches under
//! `benches/` do the same per-configuration measurements through the
//! Criterion harness (reporting *simulated cycles* as the measured
//! quantity) plus ablations and component microbenchmarks.
//!
//! Run sizes are controlled by environment variables so the same binaries
//! serve quick smoke runs and full-figure regeneration:
//!
//! | variable      | default | meaning                                 |
//! |---------------|---------|-----------------------------------------|
//! | `EDE_OPS`     | 1000    | operations per application              |
//! | `EDE_OPS_TX`  | 100     | operations per transaction (paper: 100) |
//! | `EDE_PREPOP`  | 20000   | tree pre-population inserts             |
//! | `EDE_ELEMS`   | 131072  | kernel array elements                   |
//! | `EDE_SEED`    | 42      | workload RNG seed                       |
//! | `EDE_SEEDS`   | 1       | `fig9`: seeds for the mean ± stdev line |
//! | `EDE_JSON`    | unset   | `fig9/10/11`: emit JSON instead of text |
//! | `EDE_JOBS`    | 0       | sweep worker threads (0 = host count);  |
//! |               |         | output is identical for every value     |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ede_sim::experiment::ExperimentConfig;
use ede_sim::SimConfig;
use ede_workloads::WorkloadParams;

/// Reads `name` as a `u64`, `default` when unset.
///
/// # Panics
///
/// When the variable is set but not a number: a typo must fail the run
/// loudly, not silently fall back to a full-length default.
fn env_u64(name: &str, default: u64) -> u64 {
    parse_u64_var(name, std::env::var(name).ok().as_deref(), default)
}

fn parse_u64_var(name: &str, value: Option<&str>, default: u64) -> u64 {
    value.map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}={v} is not a non-negative integer"))
    })
}

/// Builds the experiment configuration from the environment (see the
/// crate docs for the variables).
///
/// # Example
///
/// ```
/// let cfg = ede_bench::experiment_from_env();
/// assert!(cfg.params.ops > 0);
/// ```
pub fn experiment_from_env() -> ExperimentConfig {
    ExperimentConfig {
        params: WorkloadParams {
            ops: env_u64("EDE_OPS", 1000) as usize,
            ops_per_tx: env_u64("EDE_OPS_TX", 100) as usize,
            seed: env_u64("EDE_SEED", 42),
            array_elems: env_u64("EDE_ELEMS", 128 * 1024),
            prepopulate: env_u64("EDE_PREPOP", 20_000) as usize,
            ..WorkloadParams::default()
        },
        sim: SimConfig::a72(),
        jobs: env_u64("EDE_JOBS", 0) as usize,
    }
}

/// A reduced configuration for Criterion benches (kept small so the
/// default `cargo bench` finishes quickly).
pub fn bench_experiment() -> ExperimentConfig {
    ExperimentConfig {
        params: WorkloadParams {
            ops: env_u64("EDE_OPS", 200) as usize,
            ops_per_tx: env_u64("EDE_OPS_TX", 100) as usize,
            seed: env_u64("EDE_SEED", 42),
            array_elems: env_u64("EDE_ELEMS", 64 * 1024),
            prepopulate: env_u64("EDE_PREPOP", 5_000) as usize,
            ..WorkloadParams::default()
        },
        sim: SimConfig::a72(),
        // Criterion timings must measure the simulator, not the pool, so
        // the benches default to sequential unless EDE_JOBS says otherwise.
        jobs: env_u64("EDE_JOBS", 1) as usize,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_defaults() {
        let cfg = super::experiment_from_env();
        assert_eq!(cfg.params.ops_per_tx, 100);
        let b = super::bench_experiment();
        assert!(b.params.ops <= cfg.params.ops);
    }

    #[test]
    fn unset_variables_take_the_default_and_numbers_parse() {
        assert_eq!(super::parse_u64_var("EDE_OPS", None, 1000), 1000);
        assert_eq!(super::parse_u64_var("EDE_OPS", Some("250"), 1000), 250);
    }

    #[test]
    #[should_panic(expected = "EDE_OPS=abc is not a non-negative integer")]
    fn unparsable_variables_fail_loudly_with_their_name() {
        super::parse_u64_var("EDE_OPS", Some("abc"), 1000);
    }
}
