//! Typed simulation errors.
//!
//! The simulator never panics on user input or injected faults: malformed
//! configurations and scenarios, and faults that exceed every degradation
//! policy, surface as a [`SimError`] the caller can print or match on.

use std::fmt;

use transpim_fault::FaultError;
use transpim_hbm::config::ConfigError;
use transpim_hbm::stats::OutOfRange;

/// Error surfaced by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An injected fault that no degradation policy or ECC scheme can
    /// absorb — e.g. an unprotected transient flip, every bank failed, or
    /// a whole bank's subarrays stuck.
    Uncorrectable {
        /// What went wrong.
        fault: String,
        /// Simulated time at which the fault surfaced, when known.
        at_ns: Option<f64>,
    },
    /// The fault scenario itself is malformed or references hardware the
    /// target geometry does not have.
    Scenario(String),
    /// The architecture or memory configuration failed validation.
    Config(ConfigError),
    /// The run's simulated totals exceed what the statistics can hold:
    /// 2^64 ns (about 584 simulated years), pJ, bytes or fault events.
    OutOfRange,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Uncorrectable { fault, at_ns: Some(t) } => {
                write!(f, "uncorrectable fault at t={t:.1}ns: {fault}")
            }
            SimError::Uncorrectable { fault, at_ns: None } => {
                write!(f, "uncorrectable fault: {fault}")
            }
            SimError::Scenario(msg) => write!(f, "invalid fault scenario: {msg}"),
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::OutOfRange => write!(f, "run too large to simulate: {OutOfRange}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<OutOfRange> for SimError {
    fn from(_: OutOfRange) -> Self {
        SimError::OutOfRange
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::Invalid(msg) => SimError::Scenario(msg),
            FaultError::Uncorrectable(msg) => SimError::Uncorrectable { fault: msg, at_ns: None },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_and_typed() {
        let e = SimError::from(FaultError::Uncorrectable("all banks failed".into()));
        assert!(matches!(e, SimError::Uncorrectable { .. }));
        assert_eq!(e.to_string(), "uncorrectable fault: all banks failed");
        let e = SimError::from(FaultError::Invalid("bank 9000 out of range".into()));
        assert!(e.to_string().contains("invalid fault scenario"));
        let e = SimError::from(ConfigError::NonPositive("geometry.stacks"));
        assert!(e.to_string().contains("geometry.stacks"));
        assert!(!e.to_string().contains('\n'));
        let e = SimError::from(OutOfRange);
        assert!(e.to_string().contains("2^64 ns"), "{e}");
    }
}
