//! Row-buffer-mediated intra-bank copies: the copies the data buffer
//! replaces.
//!
//! RowClone fast-parallel mode (FPM) copies an entire row between two rows
//! of the *same* subarray in roughly two back-to-back activations — fast,
//! but coarse (whole rows only) and constrained to one subarray. Section IV-B1 of the
//! paper motivates the data buffer with exactly these two defects; without
//! it, cross-subarray copies go through the row buffer and bank port.

use serde::{Deserialize, Serialize};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::HbmGeometry;
use transpim_hbm::timing::TimingParams;

/// Cost model for intra-bank copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowCloneModel {
    geometry: HbmGeometry,
    timing: TimingParams,
    energy: EnergyParams,
}

impl RowCloneModel {
    /// Build the model from the memory configuration.
    pub fn new(geometry: HbmGeometry, timing: TimingParams, energy: EnergyParams) -> Self {
        Self { geometry, timing, energy }
    }

    /// Latency of copying `bytes` through the row buffer and shared bank
    /// port (the pre-TransPIM fallback for cross-subarray copies): read each
    /// DQ-wide beat out of the open row and write it back elsewhere, with a
    /// row cycle per source/destination row pair.
    pub fn buffered_copy_latency_ns(&self, bytes: u64) -> f64 {
        let t = &self.timing;
        let row_bytes = u64::from(self.geometry.row_bytes);
        let rows = bytes.div_ceil(row_bytes.max(1));
        let beats = (bytes * 8).div_ceil(u64::from(self.geometry.dq_bits)) as f64;
        // Each beat is read then written (2 column accesses); each row pair
        // costs an activate/precharge on both ends.
        rows as f64 * 2.0 * t.t_rc + 2.0 * beats * t.t_ccd_l
    }

    /// Energy of the buffered copy: activations plus two column-access
    /// traversals per bit.
    pub fn buffered_copy_energy_pj(&self, bytes: u64) -> f64 {
        let row_bytes = u64::from(self.geometry.row_bytes);
        let rows = bytes.div_ceil(row_bytes.max(1)) as f64;
        rows * 2.0 * self.energy.e_act + 2.0 * self.energy.local_column_access(bytes * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RowCloneModel {
        RowCloneModel::new(HbmGeometry::default(), TimingParams::default(), EnergyParams::default())
    }

    #[test]
    fn buffered_copy_scales_with_bytes() {
        let m = model();
        let one_row = m.buffered_copy_latency_ns(1024);
        let four_rows = m.buffered_copy_latency_ns(4096);
        assert!((four_rows - 4.0 * one_row).abs() < 1e-6);
    }
}
