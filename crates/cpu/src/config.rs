//! Core configuration (the processor half of Table I).

use ede_core::EnforcementPoint;

// The taxonomy is shared with the memory system: one enum, defined in
// `ede-mem` (the lowest crate both injection sites see), covers
// pipeline and memory-system faults. The pipeline reacts only to its
// own variants and ignores the rest.
pub use ede_mem::fault::{FaultInjection, FaultLayer};

/// Out-of-order core parameters.
///
/// [`CpuConfig::a72`] reproduces Table I's A72-like core: 3-wide decode at
/// 3 GHz, an 8-wide issue queue, 16-entry load and store queues, and a
/// 16-entry write buffer.
///
/// # Example
///
/// ```
/// use ede_cpu::CpuConfig;
/// use ede_core::EnforcementPoint;
///
/// let cfg = CpuConfig::a72().with_enforcement(EnforcementPoint::WriteBuffer);
/// assert_eq!(cfg.decode_width, 3);
/// assert_eq!(cfg.issue_width, 8);
/// assert_eq!(cfg.enforcement, Some(EnforcementPoint::WriteBuffer));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions decoded/dispatched per cycle (Table I: 3).
    pub decode_width: usize,
    /// Issue-queue width (the paper's Figure 11 histogram runs 0..=8).
    pub issue_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Issue-queue capacity.
    pub iq_entries: usize,
    /// Load-queue entries (Table I: 16).
    pub lq_entries: usize,
    /// Store-queue entries (Table I: 16).
    pub sq_entries: usize,
    /// Write-buffer entries (Table I: 16).
    pub wb_entries: usize,
    /// Write-buffer drains attempted per cycle.
    pub wb_drain_per_cycle: usize,
    /// Front-end refill penalty after a branch misprediction, in cycles.
    pub mispredict_penalty: u64,
    /// Where EDE dependences are enforced; `None` for non-EDE
    /// configurations (their traces contain no EDE instructions).
    pub enforcement: Option<EnforcementPoint>,
    /// Deliberate pipeline bug for conformance-checker self-tests; `None`
    /// (always, outside `ede-check`) models the hardware faithfully.
    pub fault: Option<FaultInjection>,
    /// Pipeline watchdog: if no instruction retires for this many
    /// consecutive cycles, [`Core::run`](crate::Core::run) aborts with a
    /// structured [`CoreError::Deadlock`](crate::CoreError::Deadlock)
    /// diagnosis instead of spinning until the cycle limit. `0` disables
    /// the watchdog. The default (500k cycles) is more than an order of
    /// magnitude above the longest legitimate retirement gap a full
    /// 128-slot persist buffer can cause (~32k cycles), and orders of
    /// magnitude below the experiment cycle limits it protects.
    pub watchdog_cycles: u64,
    /// Quiescence-aware fast-forwarding: when a tick changes no
    /// core-visible state and every stage is blocked on events whose
    /// completion cycles are known, jump the clock straight to the next
    /// event, bulk-accounting the skipped span. Every observable output
    /// (stats, attribution, traces, errors) is identical either way —
    /// the differential test suite enforces it byte for byte — so this
    /// defaults to on; disable it to run the reference per-cycle path.
    pub fast_forward: bool,
}

impl CpuConfig {
    /// The Table I A72-like configuration (no EDE enforcement selected).
    pub fn a72() -> CpuConfig {
        CpuConfig {
            fetch_width: 3,
            decode_width: 3,
            issue_width: 8,
            retire_width: 3,
            rob_entries: 128,
            iq_entries: 60,
            lq_entries: 16,
            sq_entries: 16,
            wb_entries: 16,
            wb_drain_per_cycle: 2,
            mispredict_penalty: 15,
            enforcement: None,
            fault: None,
            watchdog_cycles: 500_000,
            fast_forward: true,
        }
    }

    /// Returns the configuration with the given EDE enforcement point.
    pub fn with_enforcement(mut self, point: EnforcementPoint) -> CpuConfig {
        self.enforcement = Some(point);
        self
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::a72()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = CpuConfig::a72();
        assert_eq!(c.decode_width, 3);
        assert_eq!(c.lq_entries, 16);
        assert_eq!(c.sq_entries, 16);
        assert_eq!(c.wb_entries, 16);
        assert_eq!(c.enforcement, None);
        assert!(c.fast_forward);
    }

    #[test]
    fn builder_sets_enforcement() {
        let c = CpuConfig::a72().with_enforcement(EnforcementPoint::IssueQueue);
        assert_eq!(c.enforcement, Some(EnforcementPoint::IssueQueue));
    }
}
