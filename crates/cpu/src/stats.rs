//! Pipeline statistics.

use ede_util::obs::IndexedNames;

/// Histogram of instructions issued per cycle — the measurement behind
/// Figure 11.
///
/// # Example
///
/// ```
/// use ede_cpu::IssueHistogram;
///
/// let mut h = IssueHistogram::new(8);
/// h.record(0);
/// h.record(3);
/// h.record(3);
/// assert_eq!(h.cycles(), 3);
/// assert_eq!(h.count(3), 2);
/// assert!((h.fraction(0) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IssueHistogram {
    counts: Vec<u64>,
}

impl IssueHistogram {
    /// A histogram covering issue widths `0..=max_width`.
    pub fn new(max_width: usize) -> IssueHistogram {
        IssueHistogram {
            counts: vec![0; max_width + 1],
        }
    }

    /// Records one cycle that issued `n` instructions.
    pub fn record(&mut self, n: usize) {
        let idx = n.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Records `cycles` cycles that each issued `n` instructions in one
    /// O(1) update — equivalent to `cycles` calls of
    /// [`record`](Self::record). The fast-forward kernel credits a
    /// skipped quiet span (every cycle of which issued zero) this way.
    pub fn record_n(&mut self, n: usize, cycles: u64) {
        let idx = n.min(self.counts.len() - 1);
        self.counts[idx] += cycles;
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cycles that issued exactly `n` instructions.
    pub fn count(&self, n: usize) -> u64 {
        self.counts.get(n).copied().unwrap_or(0)
    }

    /// Fraction of cycles that issued exactly `n` instructions.
    pub fn fraction(&self, n: usize) -> f64 {
        let total = self.cycles();
        if total == 0 {
            0.0
        } else {
            self.count(n) as f64 / total as f64
        }
    }

    /// Mean instructions issued per *active* cycle.
    pub fn mean_issued_when_active(&self) -> f64 {
        let active: u64 = self.counts.iter().skip(1).sum();
        if active == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(n, &c)| n as u64 * c)
            .sum();
        weighted as f64 / active as f64
    }

    /// The raw counts, index = instructions issued.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reports the histogram into a metrics registry as
    /// `cpu.issue.width_<n>` counters.
    pub fn report(&self, reg: &mut ede_util::obs::Registry) {
        for (n, &c) in self.counts.iter().enumerate() {
            reg.inc(WIDTH_NAMES.get(n), c);
        }
    }
}

/// `cpu.issue.width_<n>`, tabled up to the A72's issue width of 8.
static WIDTH_NAMES: IndexedNames = IndexedNames::new("cpu.issue.width_", 9);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_clamps_to_top_bucket() {
        let mut h = IssueHistogram::new(4);
        h.record(9);
        assert_eq!(h.count(4), 1);
    }

    #[test]
    fn active_metrics() {
        let mut h = IssueHistogram::new(8);
        for _ in 0..6 {
            h.record(0);
        }
        h.record(2);
        h.record(4);
        assert!((h.fraction(0) - 0.75).abs() < 1e-12);
        assert!((h.mean_issued_when_active() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn width_names_are_their_format_spelling() {
        for n in 0..32 {
            assert_eq!(WIDTH_NAMES.get(n), format!("cpu.issue.width_{n}"));
        }
    }

    #[test]
    fn empty_histogram() {
        let h = IssueHistogram::new(8);
        assert_eq!(h.cycles(), 0);
        assert_eq!(h.fraction(3), 0.0);
        assert_eq!(h.mean_issued_when_active(), 0.0);
    }
}
