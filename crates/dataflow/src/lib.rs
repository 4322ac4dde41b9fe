//! TransPIM dataflows (Section III of the paper).
//!
//! This crate lowers a Transformer workload into a [`ir::Program`] — a
//! sequence of architecture-independent steps (PIM batches, ACU reductions,
//! ring-broadcast rounds, host loads, …) that the `transpim` crate's
//! execution engine prices on a concrete architecture. The compilers write
//! into any [`ir::Emitter`], so a consumer can also take the steps as they
//! are emitted, without building the program. Two compilers are provided:
//!
//! * [`token_flow`] — the paper's contribution: input tokens are sharded
//!   across banks ([`sharding`]), every layer's computation for a shard
//!   stays in its bank, and only the inter-shard attention terms travel, by
//!   ring broadcast. The decoder scheme (Section III-C) computes new-token
//!   attention in place and combines partial sums with a parallel
//!   reduction tree.
//! * [`layer_flow`] — the layer-based baseline used by prior memory-based
//!   accelerators: every layer's operands are loaded (and duplicated) into
//!   the banks before compute, and intermediate results are written back
//!   and reloaded between layers, including the quadratically-growing
//!   attention score matrix (Figure 3(b)).
//!
//! [`functional`] executes the token dataflow *numerically*, shard by shard
//! and ring step by ring step, so the integration tests can prove the
//! dataflow computes exactly what the monolithic reference computes.
//! [`footprint`] accounts the per-bank working set and the sequence-length
//! capacity wall it implies.

pub mod footprint;
pub mod functional;
pub mod ir;
pub mod layer_flow;
pub mod layer_functional;
pub mod sharding;
pub mod token_flow;

pub use ir::{BankRange, Emitter, Program, Step};
pub use sharding::Sharding;
pub use token_flow::DecoderPlacement;
