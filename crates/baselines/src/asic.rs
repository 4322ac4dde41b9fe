//! ASIC comparator figures (Section V-B "Comparison to ASIC").
//!
//! The paper compares TransPIM against two attention accelerators using
//! their published peak throughputs and areas; we encode the same
//! constants, plus SpAtten's reported 35× GPU speedup on GPT-2 generation
//! that the paper contrasts with its own 83.9×/114.9×.

use serde::{Deserialize, Serialize};

/// Published figures for one comparator ASIC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsicSpec {
    /// Design name.
    pub name: String,
    /// Peak throughput in GOP/s.
    pub peak_gops: f64,
    /// Logic area in mm² (as quoted by the paper, excluding memory).
    pub area_mm2: f64,
    /// Reported end-to-end GPU speedup on generative GPT-2, if published.
    pub reported_gpt2_speedup: Option<f64>,
}

impl AsicSpec {
    /// A³ (HPCA'20): 221 GOP/s peak, 2.08 mm².
    pub fn a3() -> Self {
        Self { name: "A3".into(), peak_gops: 221.0, area_mm2: 2.08, reported_gpt2_speedup: None }
    }

    /// SpAtten (HPCA'21), the 1/8-scale variant the paper quotes:
    /// 360 GOP/s peak, 1.55 mm², 35× GPU speedup on GPT-2 generation.
    pub fn spatten_eighth() -> Self {
        Self {
            name: "SpAtten-1/8".into(),
            peak_gops: 360.0,
            area_mm2: 1.55,
            reported_gpt2_speedup: Some(35.0),
        }
    }

    /// Throughput ratio of an achieved `gops` figure over this ASIC's peak
    /// (the paper reports TransPIM at 2.0–3.3× the ASIC peaks).
    pub fn throughput_ratio(&self, gops: f64) -> f64 {
        gops / self.peak_gops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_constants() {
        let a3 = AsicSpec::a3();
        assert_eq!(a3.peak_gops, 221.0);
        let sp = AsicSpec::spatten_eighth();
        assert_eq!(sp.reported_gpt2_speedup, Some(35.0));
    }

    #[test]
    fn paper_claimed_ratios_hold_at_734_gops() {
        // The paper's 734 GOP/s average is 3.3× A³ and 2.0× SpAtten.
        assert!((AsicSpec::a3().throughput_ratio(734.0) - 3.32).abs() < 0.1);
        assert!((AsicSpec::spatten_eighth().throughput_ratio(734.0) - 2.04).abs() < 0.1);
    }
}
