//! Error-correcting-code model for PIM-resident data.
//!
//! TransPIM keeps operands *inside* commodity-adjacent HBM2, so deployed
//! systems inherit DRAM's soft-error surface. This module prices two
//! protection schemes over 64-bit words:
//!
//! * **Parity** — one check bit per word. In the bit-serial layout this is
//!   one extra bit-plane per 64 data planes: cheap (1/64 storage and
//!   bandwidth overhead), detects any single flip, corrects nothing. A
//!   detected flip forces a bounded re-read of the transfer.
//! * **SECDED** — Hamming(71,64) plus an overall parity bit, the standard
//!   (72,64) DRAM code: 8/64 overhead, corrects any single flip in place
//!   and detects (but cannot correct) double flips.
//!
//! The simulator needs no codec: it draws how many bits flip in a word and
//! classifies the draw with [`EccScheme::can_correct`] and
//! [`EccScheme::can_detect`]. A corrected word is restored exactly, which
//! is why ECC composes with the quantizer error budget in
//! `transpim::banksim` without widening it — a corrected run is
//! bit-identical to a fault-free run, and only the latency/energy
//! accounting changes.

use serde::{Deserialize, Serialize};

/// Protection scheme applied to data-buffer traffic and bank rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccScheme {
    /// No protection: any flip silently corrupts data. The simulator is
    /// omniscient about injected faults, so an unprotected flip surfaces
    /// as an uncorrectable fault rather than silent corruption.
    #[default]
    None,
    /// One parity bit-plane per 64 data planes: detect-only.
    Parity,
    /// Hamming(72,64) single-error-correct / double-error-detect.
    Secded,
}

impl EccScheme {
    /// Data bits covered by one code word.
    pub fn data_bits(self) -> u32 {
        64
    }

    /// Check bits stored alongside each code word.
    pub fn check_bits(self) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::Parity => 1,
            EccScheme::Secded => 8,
        }
    }

    /// Storage/bandwidth overhead as a fraction of the protected payload
    /// (check bits ride on every row activation and every transfer).
    pub fn overhead_fraction(self) -> f64 {
        f64::from(self.check_bits()) / f64::from(self.data_bits())
    }

    /// Can the scheme *notice* `flips` bit errors within one word?
    pub fn can_detect(self, flips: u32) -> bool {
        match self {
            EccScheme::None => false,
            EccScheme::Parity => flips == 1,
            EccScheme::Secded => flips <= 2,
        }
    }

    /// Can the scheme *repair* `flips` bit errors within one word?
    pub fn can_correct(self, flips: u32) -> bool {
        match self {
            EccScheme::None | EccScheme::Parity => flips == 0,
            EccScheme::Secded => flips <= 1,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            EccScheme::None => "none",
            EccScheme::Parity => "parity",
            EccScheme::Secded => "secded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_cost_table() {
        assert_eq!(EccScheme::None.check_bits(), 0);
        assert_eq!(EccScheme::Parity.check_bits(), 1);
        assert_eq!(EccScheme::Secded.check_bits(), 8);
        assert!(EccScheme::Secded.can_correct(1));
        assert!(!EccScheme::Secded.can_correct(2));
        assert!(EccScheme::Secded.can_detect(2));
        assert!(EccScheme::Parity.can_detect(1));
        assert!(!EccScheme::Parity.can_correct(1));
        assert!(!EccScheme::None.can_detect(1));
        assert!((EccScheme::Secded.overhead_fraction() - 0.125).abs() < 1e-12);
    }
}
