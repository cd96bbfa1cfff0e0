//! The fault-injection taxonomy.
//!
//! Every deliberately broken behavior the checker self-tests against
//! lives in one enum, [`FaultInjection`], shared by the pipeline model
//! (`ede-cpu`), the memory system ([`MemSystem`](crate::MemSystem)), and
//! the campaign driver (`ede-check`). Faults split into two layers:
//!
//! * **pipeline** faults break ordering enforcement inside the core
//!   (dropped execution dependences, weakened fences, write-buffer
//!   reordering);
//! * **memory-system** faults break the persistence path between the
//!   core and the media (lost, duplicated, early-acknowledged or torn
//!   persists, a clean request that never completes).
//!
//! Damage to the crash image at rest (bit flips, torn words, lost
//! lines) is not a fault here: `ede-check`'s `corrupt` campaign applies
//! it to reconstructed images and holds recovery triage to its
//! contract.
//!
//! Each variant is deterministic: the same configuration and seed always
//! injects the same fault at the same point. Parameterized variants
//! (`nth`) count occurrences from zero, so `DropPersist { nth: 0 }`
//! suppresses the first persist event of the run.

/// Which layer of the stack a fault corrupts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultLayer {
    /// Broken ordering enforcement inside the core pipeline.
    Pipeline,
    /// Broken persistence path in the memory system.
    MemorySystem,
}

/// A deliberate bug injected into the simulation, for checker
/// self-tests and detection-coverage campaigns.
///
/// The conformance axioms, the crash checker, or the pipeline watchdog
/// must catch every variant (or the run must be provably identical to a
/// fault-free one); `ede-sim inject` sweeps the whole taxonomy and
/// asserts exactly that.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultInjection {
    /// Pipeline: ignore EDE execution dependences entirely — consumers
    /// no longer wait for their producing persists.
    DropEdeps,
    /// Pipeline: `DSB SY` retires without waiting for outstanding
    /// persists (the fence the paper's baseline relies on).
    WeakDsb,
    /// Pipeline: silently drop the `nth` EDE source edge decoded at
    /// dispatch (0-based), modeling a single lost wakeup rather than a
    /// wholesale broken tracker.
    DropOneEdep {
        /// Which decoded source edge to drop (0-based).
        nth: u32,
    },
    /// Pipeline: the write buffer drains same-line entries out of
    /// program order, breaking single-copy atomicity of line updates.
    ReorderWriteBuffer,
    /// Memory: a `DC CVAP` acknowledges at the controller before the
    /// line actually reaches the persistent domain — the classic
    /// "posted flush" bug ADR semantics forbid.
    EarlyCleanAck,
    /// Memory: the `nth` persist event (0-based) never reaches the
    /// media, though the requester is still acknowledged.
    DropPersist {
        /// Which persist event to drop (0-based).
        nth: u32,
    },
    /// Memory: every persist is recorded twice (a retry bug in the
    /// controller), breaking persist-count accounting.
    DuplicatePersist,
    /// Memory: a 16-byte `STP` drain tears — only its first 8-byte half
    /// becomes visible and persistable.
    TornStp,
    /// Memory: the `nth` `DC CVAP` request (0-based) is swallowed — it
    /// never acknowledges and never persists, hanging any instruction
    /// (or fence) that waits on it. The watchdog must catch this.
    StuckCvap {
        /// Which cvap request to swallow (0-based).
        nth: u32,
    },
}

impl FaultInjection {
    /// Every variant, with parameterized variants at their first
    /// occurrence (`nth: 0`) — the canonical sweep set.
    pub const ALL: [FaultInjection; 9] = [
        FaultInjection::DropEdeps,
        FaultInjection::WeakDsb,
        FaultInjection::DropOneEdep { nth: 0 },
        FaultInjection::ReorderWriteBuffer,
        FaultInjection::EarlyCleanAck,
        FaultInjection::DropPersist { nth: 0 },
        FaultInjection::DuplicatePersist,
        FaultInjection::TornStp,
        FaultInjection::StuckCvap { nth: 0 },
    ];

    /// The stable kebab-case name (CLI flag value, JSON key).
    pub fn label(self) -> &'static str {
        match self {
            FaultInjection::DropEdeps => "drop-edeps",
            FaultInjection::WeakDsb => "weak-dsb",
            FaultInjection::DropOneEdep { .. } => "drop-one-edep",
            FaultInjection::ReorderWriteBuffer => "reorder-write-buffer",
            FaultInjection::EarlyCleanAck => "early-clean-ack",
            FaultInjection::DropPersist { .. } => "drop-persist",
            FaultInjection::DuplicatePersist => "duplicate-persist",
            FaultInjection::TornStp => "torn-stp",
            FaultInjection::StuckCvap { .. } => "stuck-cvap",
        }
    }

    /// Parses a label back into a fault. Parameterized variants accept
    /// an optional `:N` suffix selecting the occurrence (default 0):
    /// `drop-persist:3` drops the fourth persist.
    pub fn parse(spec: &str) -> Option<FaultInjection> {
        let (name, nth) = match spec.split_once(':') {
            Some((name, n)) => (name, n.parse().ok()?),
            None => (spec, 0),
        };
        let fault = match name {
            "drop-edeps" => FaultInjection::DropEdeps,
            "weak-dsb" => FaultInjection::WeakDsb,
            "drop-one-edep" => FaultInjection::DropOneEdep { nth },
            "reorder-write-buffer" => FaultInjection::ReorderWriteBuffer,
            "early-clean-ack" => FaultInjection::EarlyCleanAck,
            "drop-persist" => FaultInjection::DropPersist { nth },
            "duplicate-persist" => FaultInjection::DuplicatePersist,
            "torn-stp" => FaultInjection::TornStp,
            "stuck-cvap" => FaultInjection::StuckCvap { nth },
            _ => return None,
        };
        // Reject a `:N` suffix on variants that take no parameter.
        if spec.contains(':') && !fault.takes_nth() {
            return None;
        }
        Some(fault)
    }

    /// Whether the variant carries an `nth` occurrence parameter.
    fn takes_nth(self) -> bool {
        matches!(
            self,
            FaultInjection::DropOneEdep { .. }
                | FaultInjection::DropPersist { .. }
                | FaultInjection::StuckCvap { .. }
        )
    }

    /// Which layer the fault corrupts.
    pub fn layer(self) -> FaultLayer {
        match self {
            FaultInjection::DropEdeps
            | FaultInjection::WeakDsb
            | FaultInjection::DropOneEdep { .. }
            | FaultInjection::ReorderWriteBuffer => FaultLayer::Pipeline,
            FaultInjection::EarlyCleanAck
            | FaultInjection::DropPersist { .. }
            | FaultInjection::DuplicatePersist
            | FaultInjection::TornStp
            | FaultInjection::StuckCvap { .. } => FaultLayer::MemorySystem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for f in FaultInjection::ALL {
            assert_eq!(FaultInjection::parse(f.label()), Some(f), "{f:?}");
        }
    }

    #[test]
    fn parameterized_parse() {
        assert_eq!(
            FaultInjection::parse("drop-persist:3"),
            Some(FaultInjection::DropPersist { nth: 3 })
        );
        assert_eq!(
            FaultInjection::parse("stuck-cvap:1"),
            Some(FaultInjection::StuckCvap { nth: 1 })
        );
        assert_eq!(FaultInjection::parse("weak-dsb:1"), None);
        assert_eq!(FaultInjection::parse("no-such-fault"), None);
        assert_eq!(FaultInjection::parse("drop-persist:x"), None);
    }

    #[test]
    fn every_layer_populated() {
        for layer in [FaultLayer::Pipeline, FaultLayer::MemorySystem] {
            assert!(
                FaultInjection::ALL.iter().any(|f| f.layer() == layer),
                "{layer:?} has no faults"
            );
        }
    }

    #[test]
    fn all_labels_distinct() {
        let labels: std::collections::HashSet<_> =
            FaultInjection::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), FaultInjection::ALL.len());
    }
}
