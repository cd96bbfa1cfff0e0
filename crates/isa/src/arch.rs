//! Architecture configurations (the paper's Table III).

use std::fmt;

/// One of the five architecture configurations compared in the evaluation
/// (Table III).
///
/// The configuration determines both how the NVM framework lowers
/// persistence operations (which fences or EDE keys are emitted) and, for
/// the two EDE configurations, where the hardware enforces execution
/// dependences.
///
/// # Example
///
/// ```
/// use ede_isa::ArchConfig;
///
/// assert!(ArchConfig::Baseline.is_crash_safe());
/// assert!(!ArchConfig::Unsafe.is_crash_safe());
/// assert!(ArchConfig::WriteBuffer.uses_ede());
/// assert_eq!(ArchConfig::StoreBarrierUnsafe.label(), "SU");
/// assert_eq!(ArchConfig::parse("WB"), Some(ArchConfig::WriteBuffer));
/// assert_eq!(ArchConfig::ALL.len(), 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ArchConfig {
    /// *B*: `DSB SY` after every ordered persist — the AArch64 status quo.
    Baseline,
    /// *SU*: `DMB ST` store barriers only, approximating x86-64 `SFENCE`.
    /// Allows reorderings that violate AArch64 crash-consistency
    /// requirements (`DMB ST` does not order `DC CVAP`).
    StoreBarrierUnsafe,
    /// *IQ*: EDE, enforced at the issue queue (§V-B1).
    IssueQueue,
    /// *WB*: EDE, enforced at the write buffer (§V-B3, §V-D).
    WriteBuffer,
    /// *U*: all fences removed. Fast and crash-unsafe.
    Unsafe,
}

impl ArchConfig {
    /// All five configurations, in the paper's presentation order.
    pub const ALL: [ArchConfig; 5] = [
        ArchConfig::Baseline,
        ArchConfig::StoreBarrierUnsafe,
        ArchConfig::IssueQueue,
        ArchConfig::WriteBuffer,
        ArchConfig::Unsafe,
    ];

    /// The paper's short label: `B`, `SU`, `IQ`, `WB`, or `U`.
    pub fn label(self) -> &'static str {
        match self {
            ArchConfig::Baseline => "B",
            ArchConfig::StoreBarrierUnsafe => "SU",
            ArchConfig::IssueQueue => "IQ",
            ArchConfig::WriteBuffer => "WB",
            ArchConfig::Unsafe => "U",
        }
    }

    /// Parses a [`label`](ArchConfig::label); `None` for anything else.
    pub fn parse(label: &str) -> Option<ArchConfig> {
        ArchConfig::ALL.into_iter().find(|a| a.label() == label)
    }

    /// The configuration's descriptive name from Table III.
    pub fn description(self) -> &'static str {
        match self {
            ArchConfig::Baseline => "Use DSBs to enforce ordering.",
            ArchConfig::StoreBarrierUnsafe => {
                "Use DMB st to only enforce store ordering. Similar to x86-64 SFENCE. \
                 Allows unsafe reordering."
            }
            ArchConfig::IssueQueue => "Use EDE and target IQ hardware.",
            ArchConfig::WriteBuffer => "Use EDE and target WB hardware.",
            ArchConfig::Unsafe => "No fences. Allows unsafe reordering.",
        }
    }

    /// Whether code generated for this configuration uses EDE instructions.
    pub fn uses_ede(self) -> bool {
        matches!(self, ArchConfig::IssueQueue | ArchConfig::WriteBuffer)
    }

    /// Whether the configuration preserves AArch64 crash-consistency
    /// ordering requirements.
    ///
    /// `SU` and `U` permit the hardware to reorder persists in ways that
    /// can make data unrecoverable after a crash (§VI-C); the
    /// crash-consistency test suite demonstrates this.
    pub fn is_crash_safe(self) -> bool {
        matches!(
            self,
            ArchConfig::Baseline | ArchConfig::IssueQueue | ArchConfig::WriteBuffer
        )
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = ArchConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["B", "SU", "IQ", "WB", "U"]);
        for c in ArchConfig::ALL {
            assert_eq!(ArchConfig::parse(c.label()), Some(c));
        }
        assert_eq!(ArchConfig::parse("wb"), None);
        assert_eq!(ArchConfig::parse(""), None);
    }

    #[test]
    fn ede_flags() {
        assert!(!ArchConfig::Baseline.uses_ede());
        assert!(!ArchConfig::StoreBarrierUnsafe.uses_ede());
        assert!(ArchConfig::IssueQueue.uses_ede());
        assert!(ArchConfig::WriteBuffer.uses_ede());
        assert!(!ArchConfig::Unsafe.uses_ede());
    }

    #[test]
    fn safety_flags() {
        let safe: Vec<bool> = ArchConfig::ALL.iter().map(|c| c.is_crash_safe()).collect();
        assert_eq!(safe, vec![true, false, true, true, false]);
    }

    #[test]
    fn display_is_label() {
        assert_eq!(ArchConfig::WriteBuffer.to_string(), "WB");
    }

    #[test]
    fn descriptions_nonempty() {
        for c in ArchConfig::ALL {
            assert!(!c.description().is_empty());
        }
    }
}
