//! Per-bank memory footprint accounting for the token-based dataflow.
//!
//! The dataflow keeps each shard's working set resident in its bank: the
//! current layer's full weight copy, the shard's activations (with the
//! Figure 8(a) operand replicas), the in-flight ring buffers, and — the
//! quadratic term — the shard's rows of the attention score matrix
//! (`r × L × h` softmax-width values, where `r = ceil(L/N)`). A 32 MiB bank
//! therefore bounds the sequence length a fixed bank count can host, which
//! is the capacity side of the paper's Section V-F scalability argument
//! (more stacks extend the reachable `L`, unlike a fixed-memory GPU).

use crate::ir::Precision;
use serde::{Deserialize, Serialize};
use transpim_transformer::model::ModelConfig;

/// Peak bytes a single bank holds under the token dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BankFootprint {
    /// One layer's full weight copy (the largest layer's set).
    pub weights: u64,
    /// Shard activations: input/Q/K/V/O rows plus FFN intermediate, with
    /// the three row-parallel operand replicas of Figure 8(a).
    pub activations: u64,
    /// In-flight ring-broadcast buffers (one incoming + one outgoing
    /// K/V shard).
    pub ring_buffers: u64,
    /// The shard's attention-score rows at Softmax width (kept through
    /// exponentiation and the weighted-value pass).
    pub scores: u64,
    /// Decoder K/V cache share (context + generated tokens).
    pub kv_cache: u64,
}

impl BankFootprint {
    /// Total peak bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.activations + self.ring_buffers + self.scores + self.kv_cache
    }

    /// Whether the footprint fits a bank of `bank_bytes`.
    pub fn fits(&self, bank_bytes: u64) -> bool {
        self.total() <= bank_bytes
    }
}

/// Peak per-bank footprint of running `cfg` on an `seq_len`-token sequence
/// (plus `decode_len` generated tokens) sharded over `banks` banks.
///
/// # Panics
///
/// Panics if `banks == 0` or `seq_len == 0`.
pub fn token_flow_footprint(
    cfg: &ModelConfig,
    seq_len: u64,
    decode_len: u64,
    banks: u64,
    p: Precision,
) -> BankFootprint {
    assert!(banks > 0 && seq_len > 0, "degenerate footprint query");
    let r = seq_len.div_ceil(banks);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;

    // Largest single layer's weights (encoder block or decoder block).
    let enc_w = (4 * d * d + 2 * d * dff) * act_b;
    let dec_w = (4 * d * d + if cfg.cross_attention { 4 * d * d } else { 0 } + 2 * d * dff) * act_b;
    let weights = enc_w.max(if cfg.decoder_layers > 0 { dec_w } else { 0 });

    // x, Q, K, V, O rows (5 × r×D) with 3 operand replicas on the hot one,
    // plus the FFN intermediate r×D_ff.
    let activations = (5 * r * d + 2 * r * d + r * dff) * act_b;
    let ring_buffers = 2 * r * d * act_b;
    let scores = 2 * r * seq_len * h * sm_b; // raw + exponentiated
    let kv_cache = if cfg.decoder_layers > 0 {
        let cached = seq_len + decode_len;
        2 * cached.div_ceil(banks) * d * act_b * cfg.decoder_layers as u64
    } else {
        0
    };

    BankFootprint { weights, activations, ring_buffers, scores, kv_cache }
}

/// Bytes of K/V cache one generated token appends across the whole ring
/// (K and V rows for every decoder layer). Equivalently: each bank's
/// `kv_cache` footprint grows by this amount per full ring round of
/// `banks` generated tokens, since banks take appends in turn. This is
/// the steady per-token reservation the in-place `KvCache`/`ShardedKv`
/// appends amortize.
pub fn kv_growth_per_token(cfg: &ModelConfig, p: Precision) -> u64 {
    2 * cfg.d_model as u64 * (u64::from(p.act_bits) / 8) * cfg.decoder_layers as u64
}

/// The largest sequence length whose token-dataflow footprint fits banks of
/// `bank_bytes` when sharded over `banks` banks (binary search; 0 if even
/// one token does not fit).
pub fn max_seq_len(cfg: &ModelConfig, banks: u64, bank_bytes: u64, p: Precision) -> u64 {
    let fits = |l: u64| l > 0 && token_flow_footprint(cfg, l, 0, banks, p).fits(bank_bytes);
    if !fits(1) {
        return 0;
    }
    let mut lo = 1u64;
    let mut hi = 1u64 << 28;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pegasus() -> ModelConfig {
        ModelConfig::pegasus_large()
    }

    const BANK: u64 = 32 * 1024 * 1024;

    #[test]
    fn pubmed_fits_comfortably() {
        let f = token_flow_footprint(&pegasus(), 4096, 256, 2048, Precision::default());
        assert!(f.fits(BANK), "PubMed footprint {} exceeds a bank", f.total());
        // Weights dominate at this scale (one full layer copy per bank).
        assert!(f.weights > f.scores);
    }

    #[test]
    fn scores_dominate_and_break_at_very_long_sequences() {
        let f64k = token_flow_footprint(&pegasus(), 64 * 1024, 0, 2048, Precision::default());
        assert!(
            f64k.scores > f64k.weights,
            "64K: scores {} vs weights {}",
            f64k.scores,
            f64k.weights
        );
        assert!(!f64k.fits(BANK), "64K over 2048 banks should not fit");
    }

    #[test]
    fn max_seq_len_is_consistent_with_fits() {
        let cfg = pegasus();
        let p = Precision::default();
        let max = max_seq_len(&cfg, 2048, BANK, p);
        assert!(max > 16 * 1024, "Pegasus should host >16K tokens, got {max}");
        assert!(token_flow_footprint(&cfg, max, 0, 2048, p).fits(BANK));
        assert!(!token_flow_footprint(&cfg, max + 1024, 0, 2048, p).fits(BANK));
    }

    #[test]
    fn more_banks_extend_the_reachable_length() {
        let cfg = pegasus();
        let p = Precision::default();
        let small = max_seq_len(&cfg, 256, BANK, p);
        let large = max_seq_len(&cfg, 2048, BANK, p);
        assert!(large > small, "scaling banks must extend L: {small} vs {large}");
    }

    #[test]
    fn kv_growth_matches_footprint_slope() {
        // One full ring round (`banks` generated tokens) grows each bank's
        // kv share by exactly the per-token growth constant.
        let cfg = pegasus();
        let p = Precision::default();
        let banks = 2048;
        let base = token_flow_footprint(&cfg, 4096, banks, banks, p).kv_cache;
        let next = token_flow_footprint(&cfg, 4096, 2 * banks, banks, p).kv_cache;
        assert_eq!(next - base, kv_growth_per_token(&cfg, p));
        assert!(kv_growth_per_token(&cfg, p) > 0);
    }

    #[test]
    fn tiny_bank_hosts_nothing() {
        assert_eq!(max_seq_len(&pegasus(), 2048, 1024, Precision::default()), 0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_banks_rejected() {
        token_flow_footprint(&pegasus(), 128, 0, 0, Precision::default());
    }
}
