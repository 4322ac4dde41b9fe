//! GPU/TPU roofline model.
//!
//! Models one encoder pass as a sequence of matmuls (compute-or-bandwidth
//! bound, with sustained-efficiency factors) plus per-layer framework
//! overhead, and the generative decode loop as per-step work dominated by a
//! fixed per-step overhead — which is what measured TF2 seq2seq decoding on
//! a 2019-class GPU looks like, and what makes the paper's GPU baselines
//! 20–100× slower than TransPIM on summarization/LM workloads.

use serde::{Deserialize, Serialize};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

/// An analytically-modeled conventional platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformModel {
    /// Platform name.
    pub name: String,
    /// Peak arithmetic throughput (TFLOP/s).
    pub peak_tflops: f64,
    /// Peak memory bandwidth (GB/s).
    pub peak_bw_gbs: f64,
    /// Sustained fraction of peak FLOPs on these matmul shapes.
    pub matmul_efficiency: f64,
    /// Sustained fraction of peak bandwidth on memory-bound ops.
    pub mem_efficiency: f64,
    /// Fixed overhead per encoder-layer invocation (µs).
    pub layer_overhead_us: f64,
    /// Fixed overhead per generative decode step (µs).
    pub decode_step_overhead_us: f64,
    /// Board power under load (W).
    pub power_w: f64,
    /// Bytes per activation element (fp32 in the paper's TF2 stack).
    pub act_bytes: f64,
}

impl PlatformModel {
    /// RTX 2080 Ti running TF2 + XLA (Section V-A2). Peak fp32 throughput
    /// and memory bandwidth are the card's datasheet figures. The other
    /// constants are the weakest-provenance ones in the reproduction: the
    /// paper measured a real TF2 stack whose generative-decoding path is far
    /// from roofline.
    ///
    /// * The 5% sustained matmul efficiency (fp32, non-fused attention,
    ///   small batches) is calibrated against the paper's 22.1–114.9×
    ///   end-to-end speedups.
    /// * The 10 ms fixed overhead per decoder step (kernel launches, host
    ///   synchronization, beam bookkeeping) dominates the generative
    ///   workloads, as it does in the paper's GPU baselines.
    /// * The 250 W board power is used for the GOP/J comparisons.
    pub fn rtx_2080_ti() -> Self {
        Self {
            name: "GPU (RTX 2080 Ti)".into(),
            peak_tflops: 13.45,
            peak_bw_gbs: 616.0,
            matmul_efficiency: 0.05,
            mem_efficiency: 0.5,
            layer_overhead_us: 100.0,
            decode_step_overhead_us: 10_000.0,
            power_w: 250.0,
            act_bytes: 4.0,
        }
    }

    /// One TPUv3 board (8 cores, as Section V-A2 uses) running
    /// JIT-compiled TensorFlow: 420 TFLOP/s bf16 peak and 900 GB/s of HBM
    /// per board. TPUs need large batches to fill their matrix units, and
    /// the paper's TPU is only about 2.5× faster than its GPU on average
    /// (22.1 / 8.7), so the 1.5% sustained matmul efficiency is small.
    pub fn tpu_v3() -> Self {
        Self {
            name: "TPUv3".into(),
            peak_tflops: 420.0,
            peak_bw_gbs: 900.0,
            matmul_efficiency: 0.015,
            mem_efficiency: 0.5,
            layer_overhead_us: 80.0,
            decode_step_overhead_us: 8_000.0,
            power_w: 200.0,
            act_bytes: 4.0,
        }
    }

    fn sustained_flops(&self) -> f64 {
        self.peak_tflops * 1e12 * self.matmul_efficiency
    }

    fn sustained_bw(&self) -> f64 {
        self.peak_bw_gbs * 1e9 * self.mem_efficiency
    }

    /// Roofline time (s) of a kernel with `flops` arithmetic and `bytes`
    /// memory traffic.
    pub fn kernel_s(&self, flops: f64, bytes: f64) -> f64 {
        (flops / self.sustained_flops()).max(bytes / self.sustained_bw())
    }

    /// Time (s) of one encoder layer at sequence length `l`.
    pub fn encoder_layer_s(&self, cfg: &ModelConfig, l: u64) -> f64 {
        let d = cfg.d_model as f64;
        let dff = cfg.d_ff as f64;
        let h = cfg.heads as f64;
        let lf = l as f64;
        // Projections + FFN: compute-bound matmuls; weights stream once.
        let proj_flops = 2.0 * lf * d * d * 4.0 + 2.0 * lf * d * dff * 2.0;
        let proj_bytes = (4.0 * d * d + 2.0 * d * dff) * self.act_bytes;
        // Attention: score/value matmuls plus the memory-bound softmax over
        // the h·L² score matrix (written + read ~3× in a non-fused stack).
        let attn_flops = 2.0 * 2.0 * lf * lf * d;
        let attn_bytes = 3.0 * h * lf * lf * self.act_bytes;
        self.kernel_s(proj_flops, proj_bytes)
            + self.kernel_s(attn_flops, attn_bytes)
            + self.layer_overhead_us * 1e-6
    }

    /// Time (s) of one full-stack decode step at prefix length `t` with
    /// `l_ctx` cross-attention context tokens, plus one per-step framework
    /// overhead. The paper's TF2 baselines keep no KV cache: each step
    /// recomputes the whole prefix (t tokens of self-attention plus
    /// cross-attention over the full context), which is a large part of why
    /// its GPU numbers on generative workloads are so slow.
    pub fn decode_step_s(&self, cfg: &ModelConfig, t: u64, l_ctx: u64) -> f64 {
        let d = cfg.d_model as f64;
        let dff = cfg.d_ff as f64;
        let tf = t as f64;
        let proj_flops = 2.0 * tf * d * d * 4.0 + 2.0 * tf * d * dff * 2.0;
        let cross_flops = if cfg.cross_attention {
            2.0 * tf * d * d * 2.0 + 4.0 * tf * l_ctx as f64 * d
        } else {
            0.0
        };
        let attn_flops = 4.0 * tf * tf * d;
        let h = cfg.heads as f64;
        let attn_bytes = 3.0 * h * tf * (tf + l_ctx as f64) * self.act_bytes;
        let per_layer = self.kernel_s(proj_flops + cross_flops + attn_flops, attn_bytes);
        cfg.decoder_layers as f64 * per_layer + self.decode_step_overhead_us * 1e-6
    }

    /// End-to-end batch time (s) for a workload.
    pub fn batch_time_s(&self, w: &Workload) -> f64 {
        let cfg = &w.model;
        let enc_layers =
            if cfg.encoder_layers > 0 { cfg.encoder_layers } else { cfg.decoder_layers };
        // Sequences in a batch run back-to-back at this model granularity
        // (the big matmuls already saturate the device at batch 1 for long
        // sequences; for short ones the layer overhead amortizes).
        let batch_eff = 1.0 + 0.25 * (w.batch as f64 - 1.0); // sub-linear batching
        let mut t = enc_layers as f64 * self.encoder_layer_s(cfg, w.seq_len as u64) * batch_eff;
        if cfg.decoder_layers > 0 && w.decode_len > 0 {
            let ctx = if cfg.cross_attention { w.seq_len as u64 } else { 0 };
            for step in 0..w.decode_len as u64 {
                let prefix =
                    if cfg.cross_attention { step + 1 } else { w.seq_len as u64 + step + 1 };
                t += self.decode_step_s(cfg, prefix, ctx) * w.batch as f64;
            }
        }
        t
    }

    /// Energy (J) of a batch.
    pub fn batch_energy_j(&self, w: &Workload) -> f64 {
        self.batch_time_s(w) * self.power_w
    }

    /// Achieved throughput (GOP/s) on a workload.
    pub fn throughput_gops(&self, w: &Workload) -> f64 {
        w.total_ops() as f64 * 1e-9 / self.batch_time_s(w)
    }

    /// Energy efficiency (GOP/J).
    pub fn gop_per_joule(&self, w: &Workload) -> f64 {
        w.total_ops() as f64 * 1e-9 / self.batch_energy_j(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_sequences_take_much_longer() {
        let gpu = PlatformModel::rtx_2080_ti();
        let short = gpu.batch_time_s(&Workload::synthetic_roberta(128));
        let long = gpu.batch_time_s(&Workload::synthetic_roberta(4096));
        assert!(long > 20.0 * short, "short {short}, long {long}");
    }

    #[test]
    fn generation_is_a_large_share_of_summarization_time() {
        let gpu = PlatformModel::rtx_2080_ti();
        let with = gpu.batch_time_s(&Workload::pubmed());
        let mut enc_only = Workload::pubmed();
        enc_only.decode_len = 0;
        let without = gpu.batch_time_s(&enc_only);
        assert!(
            with > 1.2 * without,
            "decoding should cost a large share: with {with}, without {without}"
        );
    }

    #[test]
    fn pubmed_lands_in_measured_tf2_range() {
        // A Pegasus-large 4K summarization on a 2080 Ti with TF2 measured
        // in the tens of seconds per sequence (the paper's GPU baseline is
        // ~80× slower than TransPIM's sub-second run).
        let gpu = PlatformModel::rtx_2080_ti();
        let s = gpu.batch_time_s(&Workload::pubmed());
        assert!(s > 2.0 && s < 120.0, "PubMed GPU time {s} s");
    }

    #[test]
    fn tpu_beats_gpu_but_modestly() {
        // Paper: TPU speedups over GPU are ~2.5× on average.
        let gpu = PlatformModel::rtx_2080_ti();
        let tpu = PlatformModel::tpu_v3();
        let w = Workload::triviaqa();
        let ratio = gpu.batch_time_s(&w) / tpu.batch_time_s(&w);
        assert!(ratio > 1.0 && ratio < 10.0, "TPU/GPU ratio {ratio}");
    }

    #[test]
    fn kernel_roofline_picks_the_max() {
        let gpu = PlatformModel::rtx_2080_ti();
        // Compute-bound: enormous flops, no bytes.
        let c = gpu.kernel_s(1e12, 0.0);
        // Memory-bound: no flops, lots of bytes.
        let m = gpu.kernel_s(0.0, 1e12);
        assert!(c > 0.0 && m > 0.0);
        assert!((gpu.kernel_s(1e12, 1e12) - c.max(m)).abs() < 1e-12);
    }
}
