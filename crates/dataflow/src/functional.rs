//! Numerical execution of the token-based dataflow.
//!
//! This module *actually computes* the sharded encoder layer and the
//! distributed decoder step, shard by shard and ring step by ring step,
//! using only the data a bank would physically hold plus what the ring
//! broadcast / reduction tree delivers. The integration tests compare the
//! results against the monolithic reference in `transpim-transformer` —
//! proving the dataflow reorganization (Figures 4 and 5) preserves the
//! Transformer's semantics.

use transpim_transformer::layers::{DecoderLayerWeights, EncoderLayerWeights};
use transpim_transformer::matrix::Matrix;
use transpim_transformer::softmax::{softmax, SoftmaxKind};
use transpim_transformer::Matrix as M;

/// Split `L` rows into `n` near-equal contiguous shards
/// (`ceil(L/n)` rows each, the last possibly short).
pub fn shard_rows(l: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(n >= 1, "need at least one shard");
    let r = l.div_ceil(n);
    (0..n).map(|i| (i * r, ((i + 1) * r).min(l))).filter(|(lo, hi)| lo < hi).collect()
}

/// One encoder layer executed shard-wise with ring broadcasts (Figure 4).
///
/// `n_banks` banks each own a contiguous token shard. Per head, every bank
/// first computes its diagonal score block from local `Q_i`/`K_i`
/// (intra-shard local attention), then receives each remote `K_j` in ring
/// order and fills in the off-diagonal blocks (inter-shard cross
/// attention); Softmax is bank-local; the weighted-value accumulation
/// receives `V_j` over the same ring. Returns the re-assembled `L × D`
/// layer output.
pub fn encoder_layer_sharded(
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
    let shards = shard_rows(l, n_banks);
    let n = shards.len();

    // (1) FC: every bank projects its own tokens with its full local
    // weight copy.
    let xs: Vec<Matrix> = shards.iter().map(|&(lo, hi)| x.slice_rows(lo, hi)).collect();
    let qs: Vec<Matrix> = xs.iter().map(|xi| xi.matmul(&w.attn.wq)).collect();
    let ks: Vec<Matrix> = xs.iter().map(|xi| xi.matmul(&w.attn.wk)).collect();
    let vs: Vec<Matrix> = xs.iter().map(|xi| xi.matmul(&w.attn.wv)).collect();

    let mut attn_shards: Vec<Matrix> = Vec::with_capacity(n);
    for i in 0..n {
        let rows_i = shards[i].1 - shards[i].0;
        let mut head_outs: Vec<Matrix> = Vec::with_capacity(heads);
        for h in 0..heads {
            let (c0, c1) = (h * dh, (h + 1) * dh);
            let qh = qs[i].slice_cols(c0, c1);

            // (2)+(3): local block, then ring-delivered remote blocks,
            // placed at the correct column offsets of the score row.
            let mut scores = M::zeros(rows_i, l);
            for s in 0..n {
                let j = (i + s) % n;
                let kh = ks[j].slice_cols(c0, c1);
                let block = qh.matmul_transb(&kh).scale(scale);
                let (jlo, _) = shards[j];
                for r in 0..rows_i {
                    for c in 0..block.cols() {
                        scores[(r, jlo + c)] = block[(r, c)];
                    }
                }
            }

            // Softmax: whole rows are bank-local.
            let probs = softmax(&scores, kind);

            // (4): weighted values, V_j arriving over the ring.
            let mut out = M::zeros(rows_i, dh);
            for s in 0..n {
                let j = (i + s) % n;
                let vh = vs[j].slice_cols(c0, c1);
                let (jlo, jhi) = shards[j];
                let pj = probs.slice_cols(jlo, jhi);
                out = out.add(&pj.matmul(&vh));
            }
            head_outs.push(out);
        }
        attn_shards.push(Matrix::hcat(&head_outs));
    }

    // Output projection + residual + FFN, all bank-local.
    let out_shards: Vec<Matrix> = attn_shards
        .iter()
        .zip(&xs)
        .map(|(a, xi)| {
            let attn_out = a.matmul(&w.attn.wo).add(xi);
            transpim_transformer::layers::ffn(&attn_out, &w.w1, &w.w2).add(&attn_out)
        })
        .collect();
    Matrix::vcat(&out_shards)
}

/// Distributed K/V state of a decoder running the token dataflow: the
/// context (encoder output or prefix) shards plus generated tokens assigned
/// to the least-loaded bank (Section III-C).
#[derive(Debug, Clone)]
pub struct ShardedKv {
    /// Per-bank keys (rows of `K` this bank owns).
    pub k: Vec<Matrix>,
    /// Per-bank values.
    pub v: Vec<Matrix>,
    d: usize,
}

impl ShardedKv {
    /// Empty state over `n_banks` banks for width-`d` keys.
    pub fn empty(n_banks: usize, d: usize) -> Self {
        Self { k: vec![Matrix::zeros(0, d); n_banks], v: vec![Matrix::zeros(0, d); n_banks], d }
    }

    /// Shard an existing `L × D` K/V pair (encoder context or prefix).
    pub fn from_context(k: &Matrix, v: &Matrix, n_banks: usize) -> Self {
        assert_eq!(k.shape(), v.shape(), "K/V shape mismatch");
        let shards = shard_rows(k.rows(), n_banks);
        let mut s = Self::empty(n_banks, k.cols());
        for (i, &(lo, hi)) in shards.iter().enumerate() {
            s.k[i] = k.slice_rows(lo, hi);
            s.v[i] = v.slice_rows(lo, hi);
        }
        s
    }

    /// Append a generated token's K/V row to the least-loaded bank
    /// (the paper's balancing policy).
    pub fn append_balanced(&mut self, k_new: Matrix, v_new: Matrix) {
        let i = (0..self.k.len()).min_by_key(|&i| self.k[i].rows()).expect("no banks");
        self.append_at(i, k_new, v_new);
    }

    /// Append to a specific bank.
    ///
    /// In place and amortized O(rows appended) — the shard grows through
    /// [`Matrix::push_rows`], not a clone-and-concatenate, so decoding `T`
    /// tokens does O(T) row-copy work instead of O(T²).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or the widths mismatch.
    pub fn append_at(&mut self, bank: usize, k_new: Matrix, v_new: Matrix) {
        assert!(bank < self.k.len(), "bank {bank} out of range");
        assert_eq!(k_new.cols(), self.d, "width mismatch");
        self.k[bank].push_rows(&k_new);
        self.v[bank].push_rows(&v_new);
    }

    /// Total cached rows.
    pub fn len(&self) -> usize {
        self.k.iter().map(Matrix::rows).sum()
    }

    /// Whether no rows are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Tree-combine per-bank values in the pairwise-reduction order of
/// Section IV-B2 (stride doubling).
fn tree_combine(mut vals: Vec<Matrix>) -> Matrix {
    assert!(!vals.is_empty(), "nothing to combine");
    let n = vals.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            vals[i] = vals[i].add(&vals[i + stride].clone());
            i += 2 * stride;
        }
        stride *= 2;
    }
    vals.swap_remove(0)
}

/// Multi-head attention of a single query against distributed K/V, with a
/// bank-local exponent pass, a tree-reduced row sum, and a tree-reduced
/// weighted-value partial sum — the decoder flow of Figure 5. Only the
/// hardware Softmax (no max subtraction) is distributable without an extra
/// global pass; for [`SoftmaxKind::Exact`] a preliminary tree max-reduction
/// is performed, matching the reference numerics.
pub fn attention_distributed(
    q: &Matrix,
    kv: &ShardedKv,
    heads: usize,
    kind: SoftmaxKind,
) -> Matrix {
    assert_eq!(q.rows(), 1, "one query row");
    let d = q.cols();
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let n = kv.k.len();

    let mut head_outs = Vec::with_capacity(heads);
    for h in 0..heads {
        let (c0, c1) = (h * dh, (h + 1) * dh);
        let qh = q.slice_cols(c0, c1);

        // Bank-local scores.
        let scores: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let kh = kv.k[i].slice_cols(c0, c1);
                (0..kh.rows())
                    .map(|r| {
                        qh.row(0).iter().zip(kh.row(r)).map(|(&a, &b)| a * b).sum::<f32>() * scale
                    })
                    .collect()
            })
            .collect();

        // Exact softmax needs the global max first (tree max-reduce).
        let max = match kind {
            SoftmaxKind::Exact => {
                scores.iter().flatten().copied().fold(f32::NEG_INFINITY, f32::max)
            }
            SoftmaxKind::HardwareTaylor => 0.0,
        };

        // Local exponents and partial row sums.
        let exps: Vec<Vec<f32>> = scores
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&x| match kind {
                        SoftmaxKind::Exact => (x - max).exp(),
                        SoftmaxKind::HardwareTaylor => {
                            transpim_transformer::softmax::taylor_exp(x, 5).max(0.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let partial_sums: Vec<Matrix> =
            exps.iter().map(|e| Matrix::from_vec(1, 1, vec![e.iter().sum::<f32>()])).collect();
        let denom = tree_combine(partial_sums)[(0, 0)];
        let recip = if denom > 0.0 { 1.0 / denom } else { 0.0 };

        // Bank-local weighted values, tree-combined.
        let partials: Vec<Matrix> = (0..n)
            .map(|i| {
                let vh = kv.v[i].slice_cols(c0, c1);
                let mut acc = Matrix::zeros(1, dh);
                for r in 0..vh.rows() {
                    let p = exps[i][r] * recip;
                    for c in 0..dh {
                        acc[(0, c)] += p * vh[(r, c)];
                    }
                }
                acc
            })
            .collect();
        head_outs.push(tree_combine(partials));
    }
    Matrix::hcat(&head_outs)
}

/// One decoder block step under the token dataflow: FC projections for the
/// new token, balanced cache append, distributed self-attention, optional
/// distributed cross-attention, FFN.
pub fn decoder_layer_step_sharded(
    x: &Matrix,
    w: &DecoderLayerWeights,
    self_kv: &mut ShardedKv,
    cross_kv: Option<&ShardedKv>,
    heads: usize,
    kind: SoftmaxKind,
) -> Matrix {
    assert_eq!(x.rows(), 1, "one token at a time");
    let q = x.matmul(&w.self_attn.wq);
    let k_new = x.matmul(&w.self_attn.wk);
    let v_new = x.matmul(&w.self_attn.wv);
    self_kv.append_balanced(k_new, v_new);
    let attn = attention_distributed(&q, self_kv, heads, kind);
    let mut out = attn.matmul(&w.self_attn.wo).add(x);

    if let (Some(cw), Some(ckv)) = (&w.cross_attn, cross_kv) {
        let q = out.matmul(&cw.wq);
        let attn = attention_distributed(&q, ckv, heads, kind);
        out = attn.matmul(&cw.wo).add(&out);
    }

    transpim_transformer::layers::ffn(&out, &w.w1, &w.w2).add(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_rows_covers_everything() {
        assert_eq!(shard_rows(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(shard_rows(4, 8), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(shard_rows(6, 1), vec![(0, 6)]);
    }

    #[test]
    fn tree_combine_matches_sum() {
        for n in 1..=9 {
            let vals: Vec<Matrix> =
                (0..n).map(|i| Matrix::from_vec(1, 1, vec![i as f32 + 1.0])).collect();
            let total = tree_combine(vals)[(0, 0)];
            let expect: f32 = (1..=n).map(|i| i as f32).sum();
            assert!((total - expect).abs() < 1e-5, "n={n}");
        }
    }

    #[test]
    fn sharded_kv_balanced_append() {
        let mut kv = ShardedKv::empty(3, 4);
        for i in 0..7 {
            let m = Matrix::from_fn(1, 4, |_, c| (i * 4 + c) as f32);
            kv.append_balanced(m.clone(), m);
        }
        let sizes: Vec<usize> = kv.k.iter().map(Matrix::rows).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 7);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn sharded_append_matches_vcat_rebuild() {
        // In-place shard growth must be bitwise identical to rebuilding
        // each shard by concatenation.
        let mut kv = ShardedKv::empty(2, 3);
        let mut rebuilt: Vec<Vec<Matrix>> = vec![Vec::new(); 2];
        for i in 0..9 {
            let m = Matrix::from_fn(1, 3, |_, c| (i * 3 + c) as f32 * 0.5);
            let bank = i % 2;
            kv.append_at(bank, m.clone(), m.clone());
            rebuilt[bank].push(m);
        }
        for (bank, parts) in rebuilt.iter().enumerate() {
            let want = Matrix::vcat(parts);
            assert_eq!(kv.k[bank].as_slice(), want.as_slice());
            assert_eq!(kv.v[bank].as_slice(), want.as_slice());
        }
    }

    // The equivalence tests against the monolithic reference live in
    // `tests/` at the workspace root (they span crates).
}
