//! HBM2 energy parameters (Table I of the paper) and derived per-operation
//! energies.
//!
//! The Table I constants follow the fine-grained-DRAM breakdown of
//! O'Connor et al. (MICRO'17): one fixed energy per row activation, plus
//! per-bit energies for moving data across the pre-global-sense-amp segment,
//! the post-GSA segment (bank I/O to channel), and the off-chip I/O.

use serde::{Deserialize, Serialize};

/// Energy parameters. Activation energy is per row activation (pJ); the
/// remaining three are per bit moved (pJ/bit). Defaults are Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy of one row activation (pJ): `e_ACT = 909`.
    pub e_act: f64,
    /// Per-bit energy of moving data from the cell array to the global sense
    /// amps (pJ/bit): `e_Pre-GSA = 1.51`.
    pub e_pre_gsa: f64,
    /// Per-bit energy from the GSA across the bank periphery to the channel
    /// (pJ/bit): `e_Post-GSA = 1.17`.
    pub e_post_gsa: f64,
    /// Per-bit off-chip / TSV I/O energy (pJ/bit): `e_I/O = 0.80`.
    pub e_io: f64,
    /// Energy of one ACU access — one 256-bit row-buffer chunk entering
    /// the adder trees (Table II: 0.384 pJ/op).
    pub e_acu: f64,
    /// Energy of one data-buffer / ring-broadcast buffer access — one
    /// 256-bit beat (Table II: 0.869 pJ/op).
    pub e_buffer: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            e_act: 909.0,
            e_pre_gsa: 1.51,
            e_post_gsa: 1.17,
            e_io: 0.80,
            e_acu: 0.384,
            e_buffer: 0.869,
        }
    }
}

impl EnergyParams {
    /// Energy of reading `bits` from an open row into an in-bank consumer
    /// (ACU or data buffer): only the pre-GSA segment is traversed.
    pub fn local_column_access(&self, bits: u64) -> f64 {
        bits as f64 * self.e_pre_gsa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_energies() {
        let e = EnergyParams::default();
        assert!((e.local_column_access(256) - 256.0 * 1.51).abs() < 1e-9);
    }
}
