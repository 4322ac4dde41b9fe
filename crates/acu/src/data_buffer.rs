//! The re-configurable per-bank data buffer (Section IV-B1).
//!
//! The buffer is 8 × 256-bit shift registers (2 Kb). It overcomes the two
//! defects of RowClone FPM: it supports *fine-grained partial* copies, and
//! it can move data *between different subarrays* of a bank without the
//! shared bus. It accepts 8-bit input from the ACU or 256-bit input from
//! the sense amplifiers, and can replicate a value across a row (used to
//! spread the Softmax reciprocal over 256 columns, Figure 8(b) steps 3–4).

use serde::{Deserialize, Serialize};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::timing::TimingParams;

/// Timing and energy model of the data buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataBufferModel {
    timing: TimingParams,
    energy: EnergyParams,
    /// Buffer rows (Table I: 8).
    pub rows: u32,
    /// Bits per buffer row (Table I: 256).
    pub width_bits: u32,
}

impl DataBufferModel {
    /// Build the model with the Table I buffer organization.
    pub fn new(timing: TimingParams, energy: EnergyParams) -> Self {
        Self { timing, energy, rows: 8, width_bits: 256 }
    }

    /// Buffer capacity in bits (2 Kb per Table I).
    pub fn capacity_bits(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.width_bits)
    }

    /// Latency of moving `bytes` between two subarrays of the same bank
    /// through the buffer: stream 256-bit beats from the source sense amps
    /// into the buffer, then back out into the destination sense amps.
    /// Each direction needs a row activation per touched row.
    pub fn inter_subarray_copy_ns(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let t = &self.timing;
        let beats = (bytes * 8).div_ceil(u64::from(self.width_bits)) as f64;
        let chunks = (bytes * 8).div_ceil(self.capacity_bits()) as f64;
        // Per chunk: open source row, fill buffer, open destination row,
        // drain buffer, restore.
        chunks * 2.0 * t.t_rc + 2.0 * beats * t.t_ccd_l
    }

    /// Energy of the inter-subarray copy in pJ: activations, sense-amp
    /// traversals, and two buffer accesses per 256-bit beat.
    pub fn inter_subarray_copy_pj(&self, bytes: u64) -> f64 {
        let chunks = (bytes * 8).div_ceil(self.capacity_bits()) as f64;
        let bits = (bytes * 8) as f64;
        let beats = (bytes * 8).div_ceil(u64::from(self.width_bits)) as f64;
        chunks * 2.0 * self.energy.e_act
            + 2.0 * bits * self.energy.e_pre_gsa
            + 2.0 * beats * self.energy.e_buffer
    }

    /// Latency of replicating one `value_bits`-wide value (received from the
    /// ACU over the 8-bit port) across `copies` columns and writing the
    /// replicas back through the sense amps in bit-serial order — the
    /// Softmax reciprocal spreading step.
    pub fn replicate_ns(&self, value_bits: u32, copies: u32) -> f64 {
        let t = &self.timing;
        // Receive the value 8 bits per ACU cycle (2 ns), then write
        // `value_bits` planes back, each plane covering `copies` columns in
        // `width_bits`-wide beats.
        let recv = f64::from(value_bits.div_ceil(8)) * 2.0;
        let beats_per_plane = f64::from(copies.div_ceil(self.width_bits));
        recv + t.t_rcd + f64::from(value_bits) * beats_per_plane * t.t_ccd_l + t.t_rp()
    }

    /// Energy of the replication in pJ.
    pub fn replicate_pj(&self, value_bits: u32, copies: u32) -> f64 {
        let bits = f64::from(value_bits) * f64::from(copies);
        let beats = (bits / f64::from(self.width_bits)).ceil();
        self.energy.e_act + bits * self.energy.e_pre_gsa + beats * self.energy.e_buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DataBufferModel {
        DataBufferModel::new(TimingParams::default(), EnergyParams::default())
    }

    #[test]
    fn capacity_is_2kb() {
        assert_eq!(model().capacity_bits(), 2048);
    }

    #[test]
    fn copy_zero_bytes_is_free() {
        assert_eq!(model().inter_subarray_copy_ns(0), 0.0);
    }

    #[test]
    fn copy_cost_scales_with_chunks() {
        let m = model();
        let small = m.inter_subarray_copy_ns(256); // one chunk
        let large = m.inter_subarray_copy_ns(2560); // ten chunks
        assert!(large > 5.0 * small);
    }

    #[test]
    fn buffer_copy_beats_shared_bus_roundtrip() {
        // The point of the buffer: moving 2 Kb inside a bank should be much
        // cheaper than a bus round trip at 32 GB/s plus two row cycles each
        // way through the shared datapath.
        let m = model();
        let bus_ns = 2.0 * (256.0 / 32.0) + 4.0 * 45.0;
        assert!(m.inter_subarray_copy_ns(256) < bus_ns);
    }

    #[test]
    fn replicate_timing_positive_and_monotone() {
        let m = model();
        let one = m.replicate_ns(16, 256);
        let four = m.replicate_ns(16, 1024);
        assert!(one > 0.0 && four > one);
    }
}
