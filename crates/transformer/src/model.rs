//! Model configurations and deterministic random weights.
//!
//! The paper evaluates RoBERTa (classification and question answering),
//! Pegasus (summarization, encoder-decoder), GPT-2-medium (language
//! modeling, decoder-only), and uses BERT for the design-space exploration.
//! We encode the standard published shapes; weight *values* are synthetic
//! (seeded random), which is the Section "substitutions" rule in DESIGN.md:
//! simulation cost depends only on shapes, and the functional checks only
//! need deterministic numbers.

use crate::layers::{
    AttentionWeights, CrossContext, DecoderLayerWeights, EncoderLayerWeights, KvCache,
};
use crate::matrix::Matrix;
use crate::softmax::SoftmaxKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shape of a Transformer model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of encoder blocks (0 for decoder-only models).
    pub encoder_layers: usize,
    /// Number of decoder blocks (0 for encoder-only models).
    pub decoder_layers: usize,
    /// Hidden width `D` (= `d_q` = `d_k` = `d_v` in the paper's notation).
    pub d_model: usize,
    /// Attention heads `h`.
    pub heads: usize,
    /// FFN inner width.
    pub d_ff: usize,
    /// Whether decoder blocks cross-attend to an encoder (false for GPT-2).
    pub cross_attention: bool,
}

impl ModelConfig {
    /// RoBERTa-base: 12 encoder layers, D = 768, 12 heads, FFN 3072.
    pub fn roberta_base() -> Self {
        Self {
            name: "roberta-base".into(),
            encoder_layers: 12,
            decoder_layers: 0,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            cross_attention: false,
        }
    }

    /// BERT-base (same shape as RoBERTa-base) — the DSE model of Figure 13.
    pub fn bert_base() -> Self {
        Self { name: "bert-base".into(), ..Self::roberta_base() }
    }

    /// Pegasus-large: 16 + 16 layers, D = 1024, 16 heads, FFN 4096.
    pub fn pegasus_large() -> Self {
        Self {
            name: "pegasus-large".into(),
            encoder_layers: 16,
            decoder_layers: 16,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            cross_attention: true,
        }
    }

    /// GPT-2-medium: 24 decoder-only layers, D = 1024, 16 heads, FFN 4096.
    pub fn gpt2_medium() -> Self {
        Self {
            name: "gpt2-medium".into(),
            encoder_layers: 0,
            decoder_layers: 24,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            cross_attention: false,
        }
    }

    /// GPT-2-small: 12 decoder-only layers, D = 768, 12 heads, FFN 3072.
    pub fn gpt2_small() -> Self {
        Self {
            name: "gpt2-small".into(),
            encoder_layers: 0,
            decoder_layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            cross_attention: false,
        }
    }

    /// GPT-2-large: 36 decoder-only layers, D = 1280, 20 heads, FFN 5120.
    pub fn gpt2_large() -> Self {
        Self {
            name: "gpt2-large".into(),
            encoder_layers: 0,
            decoder_layers: 36,
            d_model: 1280,
            heads: 20,
            d_ff: 5120,
            cross_attention: false,
        }
    }

    /// BERT-large: 24 encoder layers, D = 1024, 16 heads, FFN 4096.
    pub fn bert_large() -> Self {
        Self {
            name: "bert-large".into(),
            encoder_layers: 24,
            decoder_layers: 0,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            cross_attention: false,
        }
    }

    /// Pegasus-base: 12 + 12 layers, D = 768, 12 heads, FFN 3072.
    pub fn pegasus_base() -> Self {
        Self {
            name: "pegasus-base".into(),
            encoder_layers: 12,
            decoder_layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            cross_attention: true,
        }
    }

    /// Look up a preset by name (kebab-case, as the CLI accepts).
    ///
    /// Returns `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "roberta-base" => Some(Self::roberta_base()),
            "bert-base" => Some(Self::bert_base()),
            "bert-large" => Some(Self::bert_large()),
            "pegasus-base" => Some(Self::pegasus_base()),
            "pegasus-large" => Some(Self::pegasus_large()),
            "gpt2-small" => Some(Self::gpt2_small()),
            "gpt2-medium" => Some(Self::gpt2_medium()),
            "gpt2-large" => Some(Self::gpt2_large()),
            "tiny-test" => Some(Self::tiny_test()),
            _ => None,
        }
    }

    /// All published-model presets (excludes the test shape).
    pub fn zoo() -> Vec<Self> {
        vec![
            Self::roberta_base(),
            Self::bert_base(),
            Self::bert_large(),
            Self::pegasus_base(),
            Self::pegasus_large(),
            Self::gpt2_small(),
            Self::gpt2_medium(),
            Self::gpt2_large(),
        ]
    }

    /// A tiny encoder-decoder shape for functional tests (2+1 layers,
    /// D = 16, 2 heads, FFN 32).
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test".into(),
            encoder_layers: 2,
            decoder_layers: 1,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            cross_attention: true,
        }
    }

    /// Parameters of one encoder block (4 D² attention + 2 D·D_ff FFN).
    pub fn encoder_layer_params(&self) -> u64 {
        let d = self.d_model as u64;
        4 * d * d + 2 * d * self.d_ff as u64
    }

    /// Parameters of one decoder block (adds 4 D² when cross-attending).
    pub fn decoder_layer_params(&self) -> u64 {
        let d = self.d_model as u64;
        let cross = if self.cross_attention { 4 * d * d } else { 0 };
        4 * d * d + cross + 2 * d * self.d_ff as u64
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.encoder_layers as u64 * self.encoder_layer_params()
            + self.decoder_layers as u64 * self.decoder_layer_params()
    }

    /// MAC count of one encoder block on an `L`-token sequence:
    /// FC projections (4 L D²), attention score + context (2 L² D),
    /// FFN (2 L D D_ff).
    pub fn encoder_layer_macs(&self, l: u64) -> u64 {
        let d = self.d_model as u64;
        4 * l * d * d + 2 * l * l * d + 2 * l * d * self.d_ff as u64
    }

    /// MAC count of one decoder block generating the token at position `t`
    /// with an encoder context of `l_ctx` tokens (0 for decoder-only).
    pub fn decoder_step_macs(&self, t: u64, l_ctx: u64) -> u64 {
        let d = self.d_model as u64;
        let self_attn = 4 * d * d + 2 * t * d;
        let cross = if self.cross_attention { 2 * d * d + 2 * l_ctx * d + 2 * d * d } else { 0 };
        let ffn = 2 * d * self.d_ff as u64;
        self_attn + cross + ffn
    }
}

/// All weights of a model, deterministically generated from a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWeights {
    /// Encoder blocks.
    pub encoder: Vec<EncoderLayerWeights>,
    /// Decoder blocks.
    pub decoder: Vec<DecoderLayerWeights>,
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    // Uniform(-a, a) with a = sqrt(3 / rows) keeps activations O(1).
    let a = (3.0 / rows as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

fn random_attention(rng: &mut StdRng, d: usize) -> AttentionWeights {
    AttentionWeights {
        wq: random_matrix(rng, d, d),
        wk: random_matrix(rng, d, d),
        wv: random_matrix(rng, d, d),
        wo: random_matrix(rng, d, d),
    }
}

impl ModelWeights {
    /// Generate deterministic random weights for `cfg`.
    pub fn random(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = (0..cfg.encoder_layers)
            .map(|_| EncoderLayerWeights {
                attn: random_attention(&mut rng, cfg.d_model),
                w1: random_matrix(&mut rng, cfg.d_model, cfg.d_ff),
                w2: random_matrix(&mut rng, cfg.d_ff, cfg.d_model),
            })
            .collect();
        let decoder = (0..cfg.decoder_layers)
            .map(|_| DecoderLayerWeights {
                self_attn: random_attention(&mut rng, cfg.d_model),
                cross_attn: cfg.cross_attention.then(|| random_attention(&mut rng, cfg.d_model)),
                w1: random_matrix(&mut rng, cfg.d_model, cfg.d_ff),
                w2: random_matrix(&mut rng, cfg.d_ff, cfg.d_model),
            })
            .collect();
        Self { encoder, decoder }
    }
}

/// Reference (monolithic) inference engine used as the ground truth for the
/// sharded dataflows.
#[derive(Debug, Clone)]
pub struct ReferenceModel<'a> {
    cfg: &'a ModelConfig,
    weights: &'a ModelWeights,
    kind: SoftmaxKind,
}

impl<'a> ReferenceModel<'a> {
    /// Build a reference engine.
    pub fn new(cfg: &'a ModelConfig, weights: &'a ModelWeights, kind: SoftmaxKind) -> Self {
        Self { cfg, weights, kind }
    }

    /// Run the encoder stack on an `L × D` input.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from `d_model`.
    pub fn encode(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.cfg.d_model, "input width mismatch");
        let mut x = input.clone();
        for layer in &self.weights.encoder {
            x = crate::layers::encoder_layer(&x, layer, self.cfg.heads, self.kind);
        }
        x
    }

    /// Greedily decode `steps` tokens starting from `start` (`1 × D`),
    /// cross-attending to `encoder_output` when the model has a decoder
    /// cross-attention. Each step feeds the previous output back in.
    /// Returns the per-step outputs stacked as a `steps × D` matrix.
    pub fn decode(&self, start: &Matrix, encoder_output: Option<&Matrix>, steps: usize) -> Matrix {
        assert_eq!(start.rows(), 1, "decode starts from one token");
        let mut caches: Vec<KvCache> =
            self.weights.decoder.iter().map(|_| KvCache::new()).collect();
        let contexts: Vec<Option<CrossContext>> = self
            .weights
            .decoder
            .iter()
            .map(|l| match (&l.cross_attn, encoder_output) {
                (Some(w), Some(enc)) => Some(CrossContext::from_encoder_output(enc, w)),
                _ => None,
            })
            .collect();
        let mut x = start.clone();
        let mut outs = Vec::with_capacity(steps);
        for _ in 0..steps {
            for (i, layer) in self.weights.decoder.iter().enumerate() {
                x = crate::layers::decoder_layer_step(
                    &x,
                    layer,
                    &mut caches[i],
                    contexts[i].as_ref(),
                    self.cfg.heads,
                    self.kind,
                );
            }
            outs.push(x.clone());
        }
        Matrix::vcat(&outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shapes_match_published_models() {
        let r = ModelConfig::roberta_base();
        assert_eq!((r.encoder_layers, r.d_model, r.heads, r.d_ff), (12, 768, 12, 3072));
        let p = ModelConfig::pegasus_large();
        assert_eq!((p.encoder_layers, p.decoder_layers, p.d_model), (16, 16, 1024));
        let g = ModelConfig::gpt2_medium();
        assert_eq!((g.decoder_layers, g.d_model, g.cross_attention), (24, 1024, false));
    }

    #[test]
    fn zoo_presets_are_well_formed() {
        for cfg in ModelConfig::zoo() {
            assert!(cfg.d_model % cfg.heads == 0, "{}: bad head split", cfg.name);
            assert!(cfg.encoder_layers + cfg.decoder_layers > 0, "{}: no layers", cfg.name);
            assert_eq!(
                ModelConfig::by_name(&cfg.name).as_ref().map(|c| &c.name),
                Some(&cfg.name),
                "by_name roundtrip for {}",
                cfg.name
            );
        }
        assert!(ModelConfig::by_name("nonexistent").is_none());
        // Published parameter counts (attention+FFN only): GPT-2-large
        // ~708M total incl. embeddings; our accounting lands ~85% of that.
        let large = ModelConfig::gpt2_large().total_params();
        assert!(large > 500_000_000 && large < 800_000_000, "{large}");
    }

    #[test]
    fn parameter_counts_are_plausible() {
        // GPT-2-medium ≈ 345 M params; our attention+FFN accounting (no
        // embeddings or layer norms) should land in the low hundreds of M.
        let g = ModelConfig::gpt2_medium();
        let params = g.total_params();
        assert!(params > 250_000_000 && params < 350_000_000, "{params}");
    }

    #[test]
    fn macs_grow_quadratically_with_sequence_length() {
        let cfg = ModelConfig::roberta_base();
        let m1 = cfg.encoder_layer_macs(512) as f64;
        let m2 = cfg.encoder_layer_macs(4096) as f64;
        // The attention term dominates at 4 K, so scaling is superlinear.
        assert!(m2 / m1 > 8.0 * 1.5);
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let cfg = ModelConfig::tiny_test();
        let a = ModelWeights::random(&cfg, 42);
        let b = ModelWeights::random(&cfg, 42);
        let c = ModelWeights::random(&cfg, 43);
        assert_eq!(a, b);
        assert!(a.encoder[0].attn.wq.max_abs_diff(&c.encoder[0].attn.wq) > 0.0);
    }

    #[test]
    fn reference_encode_decode_shapes() {
        let cfg = ModelConfig::tiny_test();
        let w = ModelWeights::random(&cfg, 1);
        let m = ReferenceModel::new(&cfg, &w, SoftmaxKind::Exact);
        let input = Matrix::from_fn(5, cfg.d_model, |r, c| ((r * 7 + c) as f32 * 0.1).sin());
        let enc = m.encode(&input);
        assert_eq!(enc.shape(), (5, cfg.d_model));
        let start = Matrix::from_fn(1, cfg.d_model, |_, c| (c as f32 * 0.2).cos());
        let dec = m.decode(&start, Some(&enc), 3);
        assert_eq!(dec.shape(), (3, cfg.d_model));
        assert!(dec.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn decoder_only_model_decodes_without_context() {
        let mut cfg = ModelConfig::tiny_test();
        cfg.cross_attention = false;
        cfg.encoder_layers = 0;
        let w = ModelWeights::random(&cfg, 2);
        let m = ReferenceModel::new(&cfg, &w, SoftmaxKind::Exact);
        let start = Matrix::from_fn(1, cfg.d_model, |_, c| (c as f32 * 0.2).sin());
        let out = m.decode(&start, None, 4);
        assert_eq!(out.shape(), (4, cfg.d_model));
    }
}
