//! Top-level HBM system configuration (geometry + timing + energy + buses).

use crate::energy::EnergyParams;
use crate::geometry::HbmGeometry;
use crate::resource::BusParams;
use crate::timing::TimingParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed validation error for user-supplied configurations.
///
/// Public constructors return this instead of panicking, so front ends
/// (CLI flags, scenario files) can print a one-line diagnostic; internal
/// invariants on already-validated values stay as debug asserts.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural parameter that must be positive is zero or negative.
    NonPositive(&'static str),
    /// An index or coordinate is out of range for the geometry.
    OutOfRange(String),
    /// A field combination is unsupported.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive(field) => {
                write!(f, "configuration field {field} must be positive")
            }
            ConfigError::OutOfRange(msg) | ConfigError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete description of the memory system. [`Default`] is the Table I
/// 8-stack configuration evaluated in the paper.
///
/// # Example
///
/// ```
/// use transpim_hbm::config::HbmConfig;
/// use transpim_hbm::geometry::HbmGeometry;
///
/// let geometry = HbmGeometry { stacks: 2, ..HbmGeometry::default() };
/// let cfg = HbmConfig { geometry, ..HbmConfig::default() };
/// assert_eq!(cfg.geometry.capacity_bytes(), 16 << 30);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HbmConfig {
    /// Physical organization.
    pub geometry: HbmGeometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// DRAM + peripheral energy parameters.
    pub energy: EnergyParams,
    /// Bus and link bandwidths.
    pub bus: BusParams,
}

impl HbmConfig {
    /// Aggregated external bandwidth of the system in GB/s
    /// (`8 stacks × 256 GB/s = 2 TB/s` in Section V-C).
    pub fn aggregated_bandwidth_gbs(&self) -> f64 {
        f64::from(self.geometry.stacks)
            * f64::from(self.geometry.channels_per_stack)
            * self.bus.channel_gbs
    }

    /// Validate the configuration for simulation.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the geometry has a zero structural dimension or
    /// a bus/timing rate is not positive and finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry.validate()?;
        let rates = [
            ("bus.channel_gbs", self.bus.channel_gbs),
            ("bus.group_gbs", self.bus.group_gbs),
            ("bus.ring_link_gbs", self.bus.ring_link_gbs),
            ("bus.stack_gbs", self.bus.stack_gbs),
            ("bus.host_gbs", self.bus.host_gbs),
            ("timing.t_rc", self.timing.t_rc),
            ("timing.t_ccd_l", self.timing.t_ccd_l),
        ];
        for (name, value) in rates {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::NonPositive(name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_system() {
        let cfg = HbmConfig::default();
        assert_eq!(cfg.geometry.total_banks(), 2048);
        assert_eq!(cfg.aggregated_bandwidth_gbs(), 2048.0); // 2 TB/s
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(HbmConfig::default().validate().is_ok());
        let mut cfg = HbmConfig::default();
        cfg.geometry.stacks = 0;
        let err = cfg.validate().expect_err("zero stacks");
        assert!(matches!(err, ConfigError::NonPositive("geometry.stacks")));
        let bus = BusParams { ring_link_gbs: 0.0, ..BusParams::default() };
        let err = HbmConfig { bus, ..HbmConfig::default() }.validate().expect_err("zero rate");
        assert!(err.to_string().contains("ring_link_gbs"));
    }
}
