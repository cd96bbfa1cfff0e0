//! Typed simulation errors.
//!
//! Every input-dependent failure in the runner and experiment layers
//! surfaces as a [`SimError`] instead of a panic: a hostile or
//! fault-injected program can deadlock the pipeline, exceed its cycle
//! budget, or trip a detector, and the sweep that launched it must be
//! able to record the outcome and keep going. Panics remain reserved
//! for internal invariants of the simulator itself.

use ede_cpu::core::WaitCause;
use ede_cpu::CoreError;
use ede_isa::InstId;
use ede_mem::DrainError;
use std::fmt;

/// Why a simulation run (or an experiment built from runs) failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The pipeline did not finish: the cycle limit elapsed or the
    /// watchdog diagnosed a deadlock. Carries the core's own diagnosis
    /// verbatim — for [`CoreError::Deadlock`] that names the oldest
    /// blocked instruction, its stage, and the resource it waits on.
    Core(CoreError),
    /// The run request itself is malformed (empty program, zero cycle
    /// budget, out-of-range phase marker, …).
    Config {
        /// What was wrong with the request.
        message: String,
    },
    /// The memory system could not go idle after the pipeline finished:
    /// requests are counted outstanding with no event left to answer
    /// them (a memory-system accounting fault).
    Drain(DrainError),
    /// A correctness detector fired on the run's outputs — used by the
    /// fault-injection campaign, where a detected fault is the *expected*
    /// outcome and silence is the failure.
    FaultDetected {
        /// Which detector fired and what it saw.
        detail: String,
    },
}

impl SimError {
    /// Whether this is a watchdog deadlock diagnosis.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, SimError::Core(CoreError::Deadlock { .. }))
    }

    /// Whether this is a cycle-limit timeout.
    pub fn is_cycle_limit(&self) -> bool {
        matches!(self, SimError::Core(CoreError::CycleLimit { .. }))
    }

    /// For a deadlock diagnosis, the blocked instruction (if identified)
    /// and the cause it waits on; `None` otherwise.
    pub fn deadlock_cause(&self) -> Option<(Option<InstId>, WaitCause)> {
        match self {
            SimError::Core(CoreError::Deadlock { inst, cause, .. }) => Some((*inst, *cause)),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Core(e) => write!(f, "{e}"),
            SimError::Config { message } => write!(f, "invalid run request: {message}"),
            SimError::Drain(e) => write!(f, "{e}"),
            SimError::FaultDetected { detail } => write!(f, "fault detected: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Core(e) => Some(e),
            SimError::Drain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> SimError {
        SimError::Core(e)
    }
}

impl From<DrainError> for SimError {
    fn from(e: DrainError) -> SimError {
        SimError::Drain(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        let limit = SimError::from(CoreError::CycleLimit { at: 10, retired: 3 });
        assert!(limit.is_cycle_limit());
        assert!(!limit.is_deadlock());
        assert!(limit.deadlock_cause().is_none());
        assert!(limit.to_string().contains("cycle limit"));

        let cfg = SimError::Config {
            message: "empty program".into(),
        };
        assert!(cfg.to_string().contains("empty program"));
        assert!(!cfg.is_deadlock());

        let det = SimError::FaultDetected {
            detail: "persist counts diverged".into(),
        };
        assert!(det.to_string().starts_with("fault detected"));
    }

    #[test]
    fn deadlock_cause_is_extracted() {
        let e = SimError::from(CoreError::Deadlock {
            at: 1000,
            retired: 4,
            last_retire: 500,
            inst: Some(InstId(7)),
            op: "WAIT_KEY",
            stage: "retire",
            cause: WaitCause::AllKeys,
        });
        assert!(e.is_deadlock());
        let (inst, cause) = e.deadlock_cause().unwrap();
        assert_eq!(inst, Some(InstId(7)));
        assert_eq!(cause, WaitCause::AllKeys);
        let msg = e.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("WAIT_KEY"), "{msg}");
    }
}
