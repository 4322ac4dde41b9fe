//! Transformer layers: fully-connected projections, multi-head scaled
//! dot-product attention, feed-forward networks, and the encoder/decoder
//! blocks of Figure 1 — including the incremental (KV-cached) decoder that
//! generates one token per step, which is what the TransPIM decoder
//! dataflow (Section III-C) accelerates.

use crate::matrix::Matrix;
use crate::softmax::{softmax, SoftmaxKind};
use serde::{Deserialize, Serialize};

/// `x · w` — the FC projections of the paper's "FC layer".
///
/// # Panics
///
/// Panics if the shapes are incompatible.
pub fn linear(x: &Matrix, w: &Matrix) -> Matrix {
    x.matmul(w)
}

/// Point-wise ReLU.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Multi-head scaled dot-product attention.
///
/// `q` is `(Lq × D)`, `k`/`v` are `(Lk × D)`; `D` splits into `heads`
/// equal slices. Per head: `softmax(Q Kᵀ / √d_h) V`, heads concatenated.
///
/// # Panics
///
/// Panics if `D` is not divisible by `heads` or shapes disagree.
pub fn multi_head_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    kind: SoftmaxKind,
) -> Matrix {
    let d = q.cols();
    assert!(heads >= 1 && d.is_multiple_of(heads), "D={d} not divisible by {heads} heads");
    assert_eq!(k.cols(), d, "K width mismatch");
    assert_eq!(v.cols(), d, "V width mismatch");
    assert_eq!(k.rows(), v.rows(), "K/V length mismatch");
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut outs = Vec::with_capacity(heads);
    for h in 0..heads {
        let (lo, hi) = (h * dh, (h + 1) * dh);
        let qh = q.slice_cols(lo, hi);
        let kh = k.slice_cols(lo, hi);
        let vh = v.slice_cols(lo, hi);
        let scores = qh.matmul_transb(&kh).scale(scale);
        let probs = softmax(&scores, kind);
        outs.push(probs.matmul(&vh));
    }
    Matrix::hcat(&outs)
}

/// Multi-head attention with a causal mask: query row `i` may only attend
/// to key positions `0..=offset + i` (the decoder's autoregressive
/// constraint when processing several tokens at once; `offset` is the
/// number of already-cached positions).
///
/// # Panics
///
/// Panics on the same shape conditions as [`multi_head_attention`].
pub fn multi_head_attention_causal(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    kind: SoftmaxKind,
    offset: usize,
) -> Matrix {
    let d = q.cols();
    assert!(heads >= 1 && d.is_multiple_of(heads), "D={d} not divisible by {heads} heads");
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut outs = Vec::with_capacity(heads);
    for h in 0..heads {
        let (lo, hi) = (h * dh, (h + 1) * dh);
        let qh = q.slice_cols(lo, hi);
        let kh = k.slice_cols(lo, hi);
        let vh = v.slice_cols(lo, hi);
        let mut scores = qh.matmul_transb(&kh).scale(scale);
        for i in 0..scores.rows() {
            for j in (offset + i + 1)..scores.cols() {
                scores[(i, j)] = -1e9; // masked out
            }
        }
        let probs = softmax(&scores, kind);
        outs.push(probs.matmul(&vh));
    }
    Matrix::hcat(&outs)
}

/// Two-layer feed-forward network with ReLU: `relu(x·w1)·w2`.
pub fn ffn(x: &Matrix, w1: &Matrix, w2: &Matrix) -> Matrix {
    relu(&x.matmul(w1)).matmul(w2)
}

/// Weights of one attention sub-block (Q/K/V projections plus the output
/// projection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionWeights {
    /// Query projection, `D × D`.
    pub wq: Matrix,
    /// Key projection, `D × D`.
    pub wk: Matrix,
    /// Value projection, `D × D`.
    pub wv: Matrix,
    /// Output projection, `D × D`.
    pub wo: Matrix,
}

impl AttentionWeights {
    /// Bytes of these weights at `bits_per_weight` precision.
    pub fn bytes(&self, bits_per_weight: u32) -> u64 {
        let params = 4 * self.wq.rows() as u64 * self.wq.cols() as u64;
        params * u64::from(bits_per_weight) / 8
    }
}

/// Weights of one encoder block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderLayerWeights {
    /// Self-attention weights.
    pub attn: AttentionWeights,
    /// First FFN matrix, `D × D_ff`.
    pub w1: Matrix,
    /// Second FFN matrix, `D_ff × D`.
    pub w2: Matrix,
}

/// Weights of one decoder block: masked self-attention, optional
/// cross-attention over the encoder output (absent in decoder-only models
/// like GPT-2), and the FFN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoderLayerWeights {
    /// Masked self-attention weights.
    pub self_attn: AttentionWeights,
    /// Cross-attention weights (encoder-decoder models only).
    pub cross_attn: Option<AttentionWeights>,
    /// First FFN matrix.
    pub w1: Matrix,
    /// Second FFN matrix.
    pub w2: Matrix,
}

/// One encoder block: FC (Q/K/V) → self-attention → output projection →
/// FFN, with residual connections around the attention and FFN sub-layers.
pub fn encoder_layer(
    x: &Matrix,
    w: &EncoderLayerWeights,
    heads: usize,
    kind: SoftmaxKind,
) -> Matrix {
    let q = linear(x, &w.attn.wq);
    let k = linear(x, &w.attn.wk);
    let v = linear(x, &w.attn.wv);
    let attn = multi_head_attention(&q, &k, &v, heads, kind);
    let attn_out = linear(&attn, &w.attn.wo).add(x);
    ffn(&attn_out, &w.w1, &w.w2).add(&attn_out)
}

/// Growing key/value cache of a decoder self-attention sub-layer.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KvCache {
    k: Option<Matrix>,
    v: Option<Matrix>,
}

impl KvCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached sequence length.
    pub fn len(&self) -> usize {
        self.k.as_ref().map_or(0, Matrix::rows)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one (or more) new K/V rows.
    ///
    /// Amortized O(rows appended): rows land in the existing backing
    /// storage via [`Matrix::push_rows`], so a full decode of `T` tokens
    /// costs O(T) row-copies rather than the O(T²) of rebuilding the
    /// cache per token.
    ///
    /// # Panics
    ///
    /// Panics if the widths of `k_new`/`v_new` disagree with the cache.
    pub fn append(&mut self, k_new: Matrix, v_new: Matrix) {
        match &mut self.k {
            Some(k) => k.push_rows(&k_new),
            None => self.k = Some(k_new),
        }
        match &mut self.v {
            Some(v) => v.push_rows(&v_new),
            None => self.v = Some(v_new),
        }
    }

    /// Pre-reserve room for `tokens` more cached positions, making
    /// subsequent appends allocation-free up to that horizon.
    pub fn reserve(&mut self, tokens: usize) {
        if let Some(k) = &mut self.k {
            k.reserve_rows(tokens);
        }
        if let Some(v) = &mut self.v {
            v.reserve_rows(tokens);
        }
    }

    /// The cached keys.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn k(&self) -> &Matrix {
        self.k.as_ref().expect("empty KV cache")
    }

    /// The cached values.
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty.
    pub fn v(&self) -> &Matrix {
        self.v.as_ref().expect("empty KV cache")
    }
}

/// Pre-computed encoder-side K/V for a decoder's cross-attention ("context"
/// vectors in the paper's terms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossContext {
    /// Encoder keys, `L_enc × D`.
    pub k: Matrix,
    /// Encoder values, `L_enc × D`.
    pub v: Matrix,
}

impl CrossContext {
    /// Project the encoder output through a decoder layer's cross-attention
    /// K/V weights.
    pub fn from_encoder_output(enc: &Matrix, w: &AttentionWeights) -> Self {
        Self { k: linear(enc, &w.wk), v: linear(enc, &w.wv) }
    }
}

/// One decoder step for one layer: consumes the new token's hidden state
/// (`1 × D`), updates the self-attention KV cache, applies cross-attention
/// against `cross` when present, and runs the FFN. Returns the layer
/// output (`1 × D`).
pub fn decoder_layer_step(
    x: &Matrix,
    w: &DecoderLayerWeights,
    cache: &mut KvCache,
    cross: Option<&CrossContext>,
    heads: usize,
    kind: SoftmaxKind,
) -> Matrix {
    assert_eq!(x.rows(), 1, "decoder steps take one token at a time");
    // Self-attention over the cached prefix plus the new token.
    let q = linear(x, &w.self_attn.wq);
    let k_new = linear(x, &w.self_attn.wk);
    let v_new = linear(x, &w.self_attn.wv);
    cache.append(k_new, v_new);
    let attn = multi_head_attention(&q, cache.k(), cache.v(), heads, kind);
    let mut out = linear(&attn, &w.self_attn.wo).add(x);

    // Cross-attention over the encoder context.
    if let (Some(cw), Some(ctx)) = (&w.cross_attn, cross) {
        let q = linear(&out, &cw.wq);
        let attn = multi_head_attention(&q, &ctx.k, &ctx.v, heads, kind);
        out = linear(&attn, &cw.wo).add(&out);
    }

    ffn(&out, &w.w1, &w.w2).add(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ModelWeights};

    fn tiny() -> (ModelConfig, ModelWeights) {
        let cfg = ModelConfig::tiny_test();
        let w = ModelWeights::random(&cfg, 7);
        (cfg, w)
    }

    #[test]
    fn attention_output_shape() {
        let q = Matrix::from_fn(5, 8, |r, c| ((r + c) as f32 * 0.2).sin());
        let k = Matrix::from_fn(5, 8, |r, c| ((r * c) as f32 * 0.1).cos());
        let v = Matrix::from_fn(5, 8, |r, c| (r as f32 - c as f32) * 0.05);
        let o = multi_head_attention(&q, &k, &v, 2, SoftmaxKind::Exact);
        assert_eq!(o.shape(), (5, 8));
    }

    #[test]
    fn attention_with_uniform_scores_averages_values() {
        // Identical keys → uniform attention → output is the mean of V rows.
        let q = Matrix::from_fn(1, 4, |_, c| c as f32 * 0.3);
        let k = Matrix::from_fn(3, 4, |_, c| c as f32 * 0.1);
        let v = Matrix::from_fn(3, 4, |r, _| r as f32);
        let o = multi_head_attention(&q, &k, &v, 1, SoftmaxKind::Exact);
        for c in 0..4 {
            assert!((o[(0, c)] - 1.0).abs() < 1e-5, "mean of 0,1,2 is 1");
        }
    }

    #[test]
    fn single_head_equals_multi_head_on_blockwise_identical_weights() {
        // With h heads over D, attention differs from 1 head in general;
        // but with Lk = 1 the softmax is trivially 1 and both reduce to V.
        let q = Matrix::from_fn(2, 8, |r, c| (r + c) as f32 * 0.1);
        let k = Matrix::from_fn(1, 8, |_, c| c as f32 * 0.2);
        let v = Matrix::from_fn(1, 8, |_, c| c as f32);
        for heads in [1usize, 2, 4] {
            let o = multi_head_attention(&q, &k, &v, heads, SoftmaxKind::Exact);
            for r in 0..2 {
                for c in 0..8 {
                    assert!((o[(r, c)] - v[(0, c)]).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn encoder_layer_shapes_and_determinism() {
        let (cfg, w) = tiny();
        let x = Matrix::from_fn(6, cfg.d_model, |r, c| ((r * 13 + c) as f32 * 0.07).sin());
        let y1 = encoder_layer(&x, &w.encoder[0], cfg.heads, SoftmaxKind::Exact);
        let y2 = encoder_layer(&x, &w.encoder[0], cfg.heads, SoftmaxKind::Exact);
        assert_eq!(y1.shape(), (6, cfg.d_model));
        assert_eq!(y1, y2);
    }

    #[test]
    fn decoder_steps_grow_cache_and_match_batch_attention() {
        let (cfg, w) = tiny();
        let dec = &w.decoder[0];
        let mut cache = KvCache::new();
        let mut outs = Vec::new();
        for t in 0..4 {
            let x = Matrix::from_fn(1, cfg.d_model, |_, c| ((t * 31 + c) as f32 * 0.05).sin());
            outs.push(decoder_layer_step(&x, dec, &mut cache, None, cfg.heads, SoftmaxKind::Exact));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(outs[3].shape(), (1, cfg.d_model));
    }

    #[test]
    fn cross_attention_changes_output() {
        let (cfg, w) = tiny();
        let dec = &w.decoder[0];
        assert!(dec.cross_attn.is_some(), "tiny test model is encoder-decoder");
        let enc_out = Matrix::from_fn(5, cfg.d_model, |r, c| ((r + c) as f32 * 0.11).cos());
        let ctx = CrossContext::from_encoder_output(&enc_out, dec.cross_attn.as_ref().unwrap());
        let x = Matrix::from_fn(1, cfg.d_model, |_, c| (c as f32 * 0.09).sin());
        let mut c1 = KvCache::new();
        let mut c2 = KvCache::new();
        let with = decoder_layer_step(&x, dec, &mut c1, Some(&ctx), cfg.heads, SoftmaxKind::Exact);
        let without = decoder_layer_step(&x, dec, &mut c2, None, cfg.heads, SoftmaxKind::Exact);
        assert!(with.max_abs_diff(&without) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "one token at a time")]
    fn decoder_step_rejects_multi_token_input() {
        let (cfg, w) = tiny();
        let x = Matrix::zeros(2, cfg.d_model);
        let mut cache = KvCache::new();
        decoder_layer_step(&x, &w.decoder[0], &mut cache, None, cfg.heads, SoftmaxKind::Exact);
    }

    #[test]
    fn causal_mask_blocks_the_future() {
        // With a causal mask and offset 0, the first query row can only see
        // key 0, so its output equals value row 0 exactly.
        let q = Matrix::from_fn(3, 8, |r, c| ((r * 8 + c) as f32 * 0.11).sin());
        let k = Matrix::from_fn(3, 8, |r, c| ((r + c) as f32 * 0.21).cos());
        let v = Matrix::from_fn(3, 8, |r, c| (r * 10 + c) as f32 * 0.01);
        let o = multi_head_attention_causal(&q, &k, &v, 2, SoftmaxKind::Exact, 0);
        for c in 0..8 {
            assert!((o[(0, c)] - v[(0, c)]).abs() < 1e-4, "col {c}");
        }
        // With a huge offset the mask is inert and matches plain attention.
        let unmasked = multi_head_attention(&q, &k, &v, 2, SoftmaxKind::Exact);
        let inert = multi_head_attention_causal(&q, &k, &v, 2, SoftmaxKind::Exact, 100);
        assert!(unmasked.max_abs_diff(&inert) < 1e-6);
    }

    #[test]
    fn causal_batch_equals_stepwise_decoding() {
        // Running T tokens through causal attention at once must equal
        // feeding them one by one through the KV-cached decoder step (the
        // standard prefill ≡ decode identity).
        let (cfg, w) = tiny();
        let dec = &w.decoder[0];
        let t_len = 5;
        let xs = Matrix::from_fn(t_len, cfg.d_model, |r, c| ((r * 7 + c) as f32 * 0.13).sin());

        // Batch: causal self-attention over all tokens at once.
        let q = linear(&xs, &dec.self_attn.wq);
        let k = linear(&xs, &dec.self_attn.wk);
        let v = linear(&xs, &dec.self_attn.wv);
        let batch = multi_head_attention_causal(&q, &k, &v, cfg.heads, SoftmaxKind::Exact, 0);

        // Step-wise: the KV cache grows one token at a time.
        let mut cache = KvCache::new();
        let mut rows = Vec::new();
        for t in 0..t_len {
            let x = xs.slice_rows(t, t + 1);
            let qt = linear(&x, &dec.self_attn.wq);
            cache.append(linear(&x, &dec.self_attn.wk), linear(&x, &dec.self_attn.wv));
            rows.push(multi_head_attention(
                &qt,
                cache.k(),
                cache.v(),
                cfg.heads,
                SoftmaxKind::Exact,
            ));
        }
        let stepwise = Matrix::vcat(&rows);
        assert!(batch.max_abs_diff(&stepwise) < 1e-4);
    }

    #[test]
    fn kv_cache_append_matches_vcat_rebuild() {
        // The amortized in-place append must leave the cache bitwise
        // identical to rebuilding it by concatenation each token.
        let chunks: Vec<(Matrix, Matrix)> = (0..6)
            .map(|t| {
                let gen = |r: usize, c: usize| ((t * 13 + r * 5 + c) as f32 * 0.31).cos();
                (Matrix::from_fn(1, 4, gen), Matrix::from_fn(1, 4, |r, c| gen(r, c) + 1.0))
            })
            .collect();
        let mut cache = KvCache::new();
        cache.reserve(6);
        for (k, v) in &chunks {
            cache.append(k.clone(), v.clone());
        }
        let ks: Vec<Matrix> = chunks.iter().map(|(k, _)| k.clone()).collect();
        let vs: Vec<Matrix> = chunks.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(cache.k().as_slice(), Matrix::vcat(&ks).as_slice());
        assert_eq!(cache.v().as_slice(), Matrix::vcat(&vs).as_slice());
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn ffn_relu_zeroes_negatives() {
        let x = Matrix::from_rows(&[vec![-1.0, 1.0]]);
        let w1 = Matrix::identity(2);
        let w2 = Matrix::identity(2);
        assert_eq!(ffn(&x, &w1, &w2), Matrix::from_rows(&[vec![0.0, 1.0]]));
    }
}
