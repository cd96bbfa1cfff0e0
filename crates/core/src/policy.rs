//! Hardware enforcement points for execution dependences.

use ede_isa::ArchConfig;
use std::fmt;

/// Where the pipeline enforces EDE execution dependences (§V-B).
///
/// * [`IssueQueue`](EnforcementPoint::IssueQueue): a consumer's issue is
///   delayed until its producer completes — the `eDepReady` wakeup bit of
///   §V-B1. Simple, but stalls stores and writebacks early even though
///   they make no observable change until after retirement (§V-B2).
/// * [`WriteBuffer`](EnforcementPoint::WriteBuffer): consumers execute and
///   retire normally; ordering is enforced when write-buffer entries are
///   pushed to memory, via `srcID` tags and a CAM check (§V-B3, §V-D).
///
/// # Example
///
/// ```
/// use ede_core::EnforcementPoint;
/// use ede_isa::ArchConfig;
///
/// assert_eq!(
///     EnforcementPoint::for_arch(ArchConfig::IssueQueue),
///     Some(EnforcementPoint::IssueQueue)
/// );
/// assert_eq!(EnforcementPoint::for_arch(ArchConfig::Baseline), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EnforcementPoint {
    /// Enforce at the issue queue (*IQ*).
    IssueQueue,
    /// Enforce at the write buffer (*WB*).
    WriteBuffer,
}

impl EnforcementPoint {
    /// The enforcement point used by an architecture configuration, or
    /// `None` for the non-EDE configurations (B, SU, U), whose code
    /// contains no EDE instructions to enforce.
    pub fn for_arch(arch: ArchConfig) -> Option<EnforcementPoint> {
        match arch {
            ArchConfig::IssueQueue => Some(EnforcementPoint::IssueQueue),
            ArchConfig::WriteBuffer => Some(EnforcementPoint::WriteBuffer),
            _ => None,
        }
    }
}

impl fmt::Display for EnforcementPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnforcementPoint::IssueQueue => f.write_str("IQ"),
            EnforcementPoint::WriteBuffer => f.write_str("WB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_mapping() {
        assert_eq!(EnforcementPoint::for_arch(ArchConfig::Baseline), None);
        assert_eq!(
            EnforcementPoint::for_arch(ArchConfig::StoreBarrierUnsafe),
            None
        );
        assert_eq!(EnforcementPoint::for_arch(ArchConfig::Unsafe), None);
        assert_eq!(
            EnforcementPoint::for_arch(ArchConfig::WriteBuffer),
            Some(EnforcementPoint::WriteBuffer)
        );
    }

    #[test]
    fn display_labels() {
        assert_eq!(EnforcementPoint::IssueQueue.to_string(), "IQ");
        assert_eq!(EnforcementPoint::WriteBuffer.to_string(), "WB");
    }
}
