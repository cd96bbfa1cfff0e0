//! A fixed host-speed probe, and the reference seconds the end-to-end
//! metrics are reported in.
//!
//! The measurement host is a VM that shares its machine with other
//! tenants. Code runs up to 80 % slower on it for minutes at a time, and
//! a whole run lands inside one such stretch, so the raw wall-clock
//! throughput of the same code spread by 10–31 % (interquartile range
//! over median) across runs. The probe is a small fixed kernel that
//! calls no code of this repository: sorting, then building an ordered
//! map, over freshly allocated memory. Of the kernels tried (see
//! BENCHMARK.md), its time tracked the workloads' times best. Every timed
//! interval is followed by one probe, and the interval is reported as
//! `wall × REFERENCE_S / probe wall`: a change to the library moves that
//! value, while a change of host speed moves the interval and the probe
//! together and largely cancels out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median wall time on the reference host (2 vCPUs of an
/// Intel Xeon, Sapphire Rapids, under KVM), over 2 379 probes in 72 runs
/// of the four workloads. It only sets the scale: a reference second is a
/// wall second when the host runs at that speed.
pub const REFERENCE_S: f64 = 0.078;

const KEYS: u64 = 1_000_000;

/// SplitMix64's output function, kept here so that no change to the
/// repository's own generators can change the probe.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The kernel: always the same work, about 15 MB at its peak.
fn kernel() -> u64 {
    let mut keys: Vec<u64> = (0..KEYS).map(mix).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().enumerate().take(keys.len() / 4) {
        map.insert(k >> 40, i);
    }
    keys[keys.len() / 2] ^ map.len() as u64
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn wall_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// `wall_s` measured next to a probe of `probe_s`, in reference seconds.
pub fn reference_s(wall_s: f64, probe_s: f64) -> f64 {
    wall_s * REFERENCE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed() {
        assert_eq!(kernel(), kernel());
        assert!(wall_s() > 0.0);
        assert_eq!(reference_s(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
