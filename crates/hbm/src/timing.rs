//! HBM2 DRAM timing parameters (Table I of the paper), in nanoseconds.

use serde::{Deserialize, Serialize};

/// DRAM timing parameters in nanoseconds.
///
/// Defaults are the Table I values. `t_rp` is derived (`t_rc − t_ras`).
///
/// # Example
///
/// ```
/// use transpim_hbm::timing::TimingParams;
/// let t = TimingParams::default();
/// assert_eq!(t.t_rc, 45.0);
/// assert_eq!(t.t_rp(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Row cycle time: minimum interval between activations of the same bank.
    pub t_rc: f64,
    /// Row-to-column delay (activate → first column access).
    pub t_rcd: f64,
    /// Row active time (activate → precharge).
    pub t_ras: f64,
    /// Column (CAS) latency.
    pub t_cl: f64,
    /// Activate-to-activate delay between different banks.
    pub t_rrd: f64,
    /// Write recovery time (Table I lists this as `t_TWR`).
    pub t_wr: f64,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: f64,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: f64,
    /// Average refresh interval (ns). HBM2 refreshes each bank every
    /// `t_REFI` on average; during `t_RFC` the bank is unavailable. Not in
    /// the paper's Table I — standard JESD235 values.
    pub t_refi: f64,
    /// Refresh cycle time (ns).
    pub t_rfc: f64,
    /// Four-activation window (ns): at most four row activations may issue
    /// within any `t_FAW` window per pseudo-channel — a power-delivery
    /// constraint that bites activation-heavy PIM especially hard. Not in
    /// Table I; standard HBM2 value.
    pub t_faw: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self {
            t_rc: 45.0,
            t_rcd: 16.0,
            t_ras: 29.0,
            t_cl: 16.0,
            t_rrd: 2.0,
            t_wr: 16.0,
            t_ccd_s: 2.0,
            t_ccd_l: 4.0,
            t_refi: 3900.0,
            t_rfc: 350.0,
            t_faw: 16.0,
        }
    }
}

impl TimingParams {
    /// Row precharge time, derived as `t_rc − t_ras`.
    pub fn t_rp(&self) -> f64 {
        self.t_rc - self.t_ras
    }

    /// Latency of one triple-row-activation PIM primitive (an
    /// activate-activate-precharge sequence in the style of Ambit /
    /// ComputeDRAM). The paper's in-situ ops are paced by the row cycle.
    pub fn t_aap(&self) -> f64 {
        self.t_rc
    }

    /// Fractional throughput loss to refresh: each bank spends `t_RFC` out
    /// of every `t_REFI` unavailable. Sustained operations stretch by
    /// `1 + refresh_overhead()` (~9% at the JESD235 defaults).
    pub fn refresh_overhead(&self) -> f64 {
        if self.t_refi <= 0.0 {
            0.0
        } else {
            self.t_rfc / (self.t_refi - self.t_rfc).max(1e-9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_times_match_table1() {
        let t = TimingParams::default();
        assert_eq!(t.t_rp(), 16.0);
        assert_eq!(t.t_aap(), 45.0);
    }

    #[test]
    fn faw_default_is_hbm2() {
        assert_eq!(TimingParams::default().t_faw, 16.0);
    }

    #[test]
    fn refresh_overhead_is_about_ten_percent() {
        let t = TimingParams::default();
        let o = t.refresh_overhead();
        assert!(o > 0.05 && o < 0.15, "refresh overhead {o}");
        let none = TimingParams { t_refi: 0.0, ..t };
        assert_eq!(none.refresh_overhead(), 0.0);
    }
}
