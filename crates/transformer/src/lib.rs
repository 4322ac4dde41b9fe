//! Functional Transformer substrate for the TransPIM reproduction.
//!
//! The paper evaluates full Transformer inference (Figure 1): stacked
//! encoder blocks (FC → self-attention → FFN) and decoder blocks that
//! generate one token at a time, over RoBERTa, Pegasus, GPT-2 and BERT
//! model shapes. This crate is the *numerics* side of the reproduction:
//!
//! * [`matrix`] — a small dense f32 matrix kernel (matmul, transpose-matmul,
//!   row ops) sufficient for attention arithmetic,
//! * [`quant`] — symmetric int8 quantization of weights (the paper runs
//!   FC/FFN at 8 bits),
//! * [`softmax`] — exact softmax plus the paper's hardware-shaped variant:
//!   5th-order Taylor exponent and a one-reciprocal-per-row normalization
//!   (Section IV-A2),
//! * [`layers`] — fully-connected, multi-head attention, and feed-forward
//!   layers assembled into encoder/decoder blocks with an incremental
//!   KV-cache decoder,
//! * [`model`] — model configurations and deterministic random weights
//!   (RoBERTa-base, BERT-base, Pegasus-large, GPT-2-medium),
//! * [`workload`] — the evaluation workloads (IMDB, TriviaQA, PubMed,
//!   Arxiv, LM, synthetic sweeps) with their sequence/decode lengths.
//!
//! The dataflow crates re-execute these same numerics shard-by-shard; the
//! integration tests assert the sharded execution matches this reference.

pub mod layers;
pub mod matrix;
pub mod model;
pub mod quant;
pub mod softmax;
pub mod workload;

pub use matrix::Matrix;
pub use model::{ModelConfig, ModelWeights};
pub use softmax::SoftmaxKind;
pub use workload::Workload;
