//! Numerical execution of the layer-based baseline dataflow.
//!
//! The layer dataflow distributes each layer's *output elements* over the
//! banks: a bank owns a slice of score rows (receiving the full duplicated
//! `K`/`V`), results are written back to a logically-shared intermediate
//! and redistributed before the next stage. This module executes that
//! organization numerically, stage by stage with explicit write-back /
//! reload boundaries, so the baseline being costed is proven semantically
//! valid too (mirroring [`crate::functional`] for the token dataflow).

use crate::functional::shard_rows;
use transpim_transformer::layers::EncoderLayerWeights;
use transpim_transformer::matrix::Matrix;
use transpim_transformer::softmax::{softmax, SoftmaxKind};

/// A logically-shared intermediate buffer: the layer dataflow's "write
/// everything back to memory, reload for the next stage" boundary.
#[derive(Debug, Clone, Default)]
pub struct SharedIntermediate {
    slots: std::collections::BTreeMap<String, Matrix>,
}

impl SharedIntermediate {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a stage result back (the `MemTouch`/`ShuffleAll` the cost
    /// model charges).
    pub fn store(&mut self, name: &str, value: Matrix) {
        self.slots.insert(name.to_owned(), value);
    }

    /// Reload a stage input.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never written — a dataflow ordering bug.
    pub fn load(&self, name: &str) -> &Matrix {
        self.slots
            .get(name)
            .unwrap_or_else(|| panic!("layer dataflow loaded '{name}' before storing it"))
    }
}

/// One encoder layer executed under the layer-based organization over
/// `n_banks` banks:
///
/// 1. **FC stage**: input rows are distributed; every bank computes Q/K/V
///    for its rows; results are written back whole.
/// 2. **Score stage**: banks own disjoint score-row slices; each receives
///    the *full* `K` (the duplication the cost model charges) and writes
///    its `S` slice back.
/// 3. **Softmax stage**: `S` is reloaded row-distributed and normalized.
/// 4. **Weighted-value stage**: probabilities reload with the full
///    duplicated `V`; output projection and FFN follow the same
///    distribute/compute/write-back pattern.
///
/// Must equal the monolithic reference exactly (same per-stage math, just
/// reorganized) — asserted by the integration tests.
pub fn encoder_layer_layerflow(
    x: &Matrix,
    w: &EncoderLayerWeights,
    heads: usize,
    kind: SoftmaxKind,
    n_banks: usize,
) -> Matrix {
    let l = x.rows();
    let d = x.cols();
    assert!(heads >= 1 && d.is_multiple_of(heads), "bad head split");
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut mem = SharedIntermediate::new();
    mem.store("x", x.clone());

    // Stage 1: FC — row-distributed matmuls, results written back whole.
    let stage_matmul = |mem: &SharedIntermediate, input: &str, weight: &Matrix| -> Matrix {
        let input = mem.load(input);
        let parts: Vec<Matrix> = shard_rows(input.rows(), n_banks)
            .into_iter()
            .map(|(lo, hi)| input.slice_rows(lo, hi).matmul(weight))
            .collect();
        Matrix::vcat(&parts)
    };
    let q = stage_matmul(&mem, "x", &w.attn.wq);
    let k = stage_matmul(&mem, "x", &w.attn.wk);
    let v = stage_matmul(&mem, "x", &w.attn.wv);
    mem.store("q", q);
    mem.store("k", k);
    mem.store("v", v);

    // Stage 2: scores — each bank gets a row slice of Q plus the FULL K.
    let mut head_probs: Vec<Matrix> = Vec::with_capacity(heads);
    for h in 0..heads {
        let (c0, c1) = (h * dh, (h + 1) * dh);
        let qh = mem.load("q").slice_cols(c0, c1);
        let kh_full = mem.load("k").slice_cols(c0, c1); // duplicated to every bank
        let score_parts: Vec<Matrix> = shard_rows(l, n_banks)
            .into_iter()
            .map(|(lo, hi)| qh.slice_rows(lo, hi).matmul_transb(&kh_full).scale(scale))
            .collect();
        let scores = Matrix::vcat(&score_parts);

        // Stage 3: softmax — S reloaded row-distributed.
        let prob_parts: Vec<Matrix> = shard_rows(scores.rows(), n_banks)
            .into_iter()
            .map(|(lo, hi)| softmax(&scores.slice_rows(lo, hi), kind))
            .collect();
        head_probs.push(Matrix::vcat(&prob_parts));
    }

    // Stage 4: weighted values — probabilities row-distributed, V duplicated.
    let mut head_outs: Vec<Matrix> = Vec::with_capacity(heads);
    for (h, probs) in head_probs.iter().enumerate() {
        let (c0, c1) = (h * dh, (h + 1) * dh);
        let vh_full = mem.load("v").slice_cols(c0, c1);
        let parts: Vec<Matrix> = shard_rows(l, n_banks)
            .into_iter()
            .map(|(lo, hi)| probs.slice_rows(lo, hi).matmul(&vh_full))
            .collect();
        head_outs.push(Matrix::vcat(&parts));
    }
    mem.store("attn", Matrix::hcat(&head_outs));

    // Output projection + residual, then FFN, each a distribute/compute/
    // write-back stage.
    let proj = stage_matmul(&mem, "attn", &w.attn.wo).add(mem.load("x"));
    mem.store("attn_out", proj);
    let inner = stage_matmul(&mem, "attn_out", &w.w1).map(|v| v.max(0.0));
    mem.store("ffn_inner", inner);
    let out = stage_matmul(&mem, "ffn_inner", &w.w2).add(mem.load("attn_out"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_transformer::layers::encoder_layer;
    use transpim_transformer::model::{ModelConfig, ModelWeights};

    fn case() -> (ModelConfig, ModelWeights, Matrix) {
        let cfg = ModelConfig::tiny_test();
        let w = ModelWeights::random(&cfg, 17);
        let x = Matrix::from_fn(11, cfg.d_model, |r, c| {
            (((r * 29 + c * 7) % 83) as f32 / 83.0 - 0.5) * 1.3
        });
        (cfg, w, x)
    }

    #[test]
    fn layer_flow_matches_reference_across_bank_counts() {
        let (cfg, w, x) = case();
        let reference = encoder_layer(&x, &w.encoder[0], cfg.heads, SoftmaxKind::Exact);
        for banks in [1usize, 2, 3, 5, 11, 16] {
            let got =
                encoder_layer_layerflow(&x, &w.encoder[0], cfg.heads, SoftmaxKind::Exact, banks);
            let diff = reference.max_abs_diff(&got);
            assert!(diff < 1e-4, "banks={banks}: diff {diff}");
        }
    }

    #[test]
    fn layer_flow_matches_token_flow() {
        // Both organizations compute the same function; the cost model's
        // comparison between them is therefore apples to apples.
        let (cfg, w, x) = case();
        let layer = encoder_layer_layerflow(&x, &w.encoder[0], cfg.heads, SoftmaxKind::Exact, 4);
        let token = crate::functional::encoder_layer_sharded(
            &x,
            &w.encoder[0],
            cfg.heads,
            SoftmaxKind::Exact,
            4,
        );
        assert!(layer.max_abs_diff(&token) < 1e-4);
    }

    #[test]
    fn intermediates_accumulate_in_shared_memory() {
        // The write-back boundaries the cost model charges are real: every
        // stored intermediate stays loadable by later stages.
        let mut mem = SharedIntermediate::new();
        mem.store("a", Matrix::zeros(4, 4));
        mem.store("b", Matrix::zeros(2, 8));
        assert_eq!(mem.load("a").shape(), (4, 4));
        assert_eq!(mem.load("b").shape(), (2, 8));
    }

    #[test]
    #[should_panic(expected = "before storing")]
    fn loading_unwritten_slot_is_a_dataflow_bug() {
        SharedIntermediate::new().load("nope");
    }
}
