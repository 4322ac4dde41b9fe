//! The token-based dataflow compiler (Sections III-B and III-C).
//!
//! Encoder blocks (Figure 4): each bank computes FC projections for its
//! token shard with a full local weight copy; attention scores are produced
//! block-by-block as `K` shards ring-broadcast around the sequence's banks;
//! Softmax is entirely local (each bank owns whole score rows); the
//! attention output repeats the ring with `V`; FFN is again local.
//!
//! Decoder blocks (Figure 5): the new token's Q/K/V projections are
//! computed output-parallel across the banks holding the (resident) weight
//! slices, `Q_new` is broadcast to all banks, each bank computes attention
//! against its locally-held `K`/`V` columns, and the partial outputs are
//! combined with the multi-step pairwise reduction tree of Section IV-B2.

use crate::ir::{BankRange, Emitter, Precision, Program, Size, Step};
use crate::sharding::Sharding;
use serde::{Deserialize, Serialize};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

/// Where the decoder places each generated token's K/V rows
/// (Section III-C: "for each new token, we allocate the bank with the
/// minimum number of tokens to balance computation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DecoderPlacement {
    /// The paper's policy: least-loaded bank — per-bank attention work
    /// grows as `ceil(t / N)`.
    #[default]
    Balanced,
    /// Naive policy: every generated token stays in the FC bank — that
    /// bank's attention work grows linearly with `t` and becomes the
    /// critical path (the ablation the paper's balancing argument implies).
    LastBank,
}

/// Compile `workload` for a system with `total_banks` banks using the
/// default (paper) precision.
pub fn compile(workload: &Workload, total_banks: u32) -> Program {
    Program::build(|out| emit(workload, total_banks, out))
}

/// [`compile`], writing the steps into `out`.
pub fn emit(workload: &Workload, total_banks: u32, out: &mut impl Emitter) {
    let sharding = Sharding::new(total_banks, workload.batch as u32, workload.seq_len as u32);
    emit_full(workload, &sharding, Precision::default(), DecoderPlacement::Balanced, out);
}

/// Compile with an explicit sharding and precision.
pub fn compile_with(workload: &Workload, sharding: &Sharding, p: Precision) -> Program {
    compile_full(workload, sharding, p, DecoderPlacement::Balanced)
}

/// Compile with every knob exposed (sharding, precision, decoder
/// placement policy).
pub fn compile_full(
    workload: &Workload,
    sharding: &Sharding,
    p: Precision,
    placement: DecoderPlacement,
) -> Program {
    Program::build(|out| emit_full(workload, sharding, p, placement, out))
}

/// [`compile_full`], writing the steps into `prog`.
pub fn emit_full(
    workload: &Workload,
    sharding: &Sharding,
    p: Precision,
    placement: DecoderPlacement,
    prog: &mut impl Emitter,
) {
    let cfg = &workload.model;
    let shard = sharding.sequences[0];
    let batch = sharding.sequences.len() as u32;

    // Input embeddings: distinct per token → scattered from the host.
    prog.push(Step::scope("load.input"));
    prog.push(Step::HostScatter {
        total_bytes: workload.batch_tokens() * cfg.d_model as u64 * u64::from(p.act_bits) / 8,
    });

    // Encoder stack (or the decoder-only prefill pass, which has the same
    // cost shape: every context token flows through every block).
    // Every context token flows through every block, with full weight
    // copies broadcast to the banks layer by layer (they do not all fit
    // residently: 16 layers × ~11 MB per bank exceeds a 32 MB bank).
    let enc_layers = if cfg.encoder_layers > 0 { cfg.encoder_layers } else { cfg.decoder_layers };
    for _ in 0..enc_layers {
        encoder_layer(prog, cfg, shard.banks, shard.seq_len, batch, p);
    }

    // Decoder generation loop.
    if cfg.decoder_layers > 0 && workload.decode_len > 0 {
        // Decoder weights are resident: scatter the slices once.
        prog.push(Step::scope("load.weights"));
        prog.push(Step::HostScatter {
            total_bytes: cfg.decoder_layers as u64
                * cfg.decoder_layer_params()
                * u64::from(p.act_bits)
                / 8,
        });
        // The generation loop is emitted loop-compressed: every decoder
        // layer of token `t` is the same block, which depends on `t` only
        // through `r_gen`, so a run of tokens that share `r_gen` is one
        // `Step::Repeat` of that block (the executor prices it as
        // body × count).
        let decode = workload.decode_len as u64;
        let layers = cfg.decoder_layers as u64;
        let n = u64::from(shard.banks.count);
        let mut block = Vec::new();
        let mut t = 0;
        while t < decode {
            // Balanced: `r_gen = ceil(t/N)` is constant over runs of N
            // tokens, so the decode loop is a few steps whatever its
            // length. LastBank: `r_gen = t` grows with every token, so a
            // run is one token and the loop is one step per token.
            let run_end = match placement {
                DecoderPlacement::Balanced if t > 0 => (t.div_ceil(n) * n + 1).min(decode),
                _ => t + 1,
            };
            decoder_step_layer(&mut block, cfg, shard.banks, shard.seq_len, t, batch, p, placement);
            prog.push_block_times(&mut block, (run_end - t) * layers);
            t = run_end;
        }
    }
}

/// Work sizes of one encoder block on one sequence shard, emitted once and
/// scaled to `batch` parallel sequences for energy.
#[allow(clippy::too_many_arguments)]
fn encoder_layer(
    prog: &mut impl Emitter,
    cfg: &ModelConfig,
    banks: BankRange,
    seq_len: u32,
    batch: u32,
    p: Precision,
) {
    let n = u64::from(banks.count);
    let r = u64::from(seq_len.div_ceil(banks.count)); // tokens per bank
    let l = u64::from(seq_len);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dh = d / h;
    let dff = cfg.d_ff as u64;
    let b = u64::from(batch);
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    let active = banks.count * batch;
    // The sharding rule: `k` of work per token, on the busiest bank's `r`
    // tokens and on all `L` tokens of the `b` sequences.
    let tokens = |k: u64| Size::new(r * k, l * b * k);

    // ---- FC layer: Q/K/V projections, weights broadcast to every bank.
    prog.push(Step::scope("enc.fc"));
    prog.push(Step::HostBroadcast { bytes: 3 * d * d * act_b, banks: active });
    // Figure 8(a): three replicated operand copies staged for row-parallel
    // point-wise multiplication.
    prog.push(tokens(3 * d * act_b).copy());
    prog.push(tokens(3 * d * d).mul(p.act_bits, p.act_bits));
    prog.push(tokens(3 * d).reduce(d as u32, p.acc_bits));
    prog.push(tokens(3 * d * act_b).touch());

    // ---- Attention scores: intra-shard block plus N−1 ring steps with K.
    prog.push(Step::scope("enc.attn"));
    if n > 1 {
        prog.push(Step::RingBroadcast {
            banks,
            bytes_per_hop: r * d * act_b,
            repeat: n - 1,
            parallel: batch,
        });
    }
    prog.push(tokens(l * d).mul(p.act_bits, p.act_bits));
    prog.push(tokens(l * h).reduce(dh as u32, p.acc_bits));
    prog.push(tokens(l * h * sm_b).touch());

    // ---- Softmax: fully local (each bank owns its score rows).
    prog.push(Step::scope("enc.softmax"));
    prog.push(tokens(l * h).exp(p.softmax_bits, p.taylor_order));
    prog.push(tokens(h).reduce(seq_len, p.softmax_bits));
    prog.push(tokens(h).recip());
    prog.push(tokens(h).replicate(p.softmax_bits, seq_len));
    prog.push(tokens(l * h).mul(p.softmax_bits, p.softmax_bits));

    // ---- Attention output: ring with V, then the output projection.
    prog.push(Step::scope("enc.attn"));
    if n > 1 {
        prog.push(Step::RingBroadcast {
            banks,
            bytes_per_hop: r * d * act_b,
            repeat: n - 1,
            parallel: batch,
        });
    }
    prog.push(tokens(l * d).mul(p.softmax_bits, p.act_bits));
    prog.push(tokens(d).reduce(seq_len, p.acc_bits));
    prog.push(Step::HostBroadcast { bytes: d * d * act_b, banks: active });
    prog.push(tokens(d * d).mul(p.act_bits, p.act_bits));
    prog.push(tokens(d).reduce(d as u32, p.acc_bits));
    prog.push(tokens(d).add(p.act_bits));

    // ---- FFN: two local matmuls with broadcast weights.
    prog.push(Step::scope("enc.ffn"));
    prog.push(Step::HostBroadcast { bytes: 2 * d * dff * act_b, banks: active });
    prog.push(tokens(d * dff).mul(p.act_bits, p.act_bits));
    prog.push(tokens(dff).reduce(d as u32, p.acc_bits));
    prog.push(tokens(dff * d).mul(p.act_bits, p.act_bits));
    prog.push(tokens(d).reduce(dff as u32, p.acc_bits));
    prog.push(tokens(d).add(p.act_bits));
    prog.push(tokens(d * act_b).touch());
}

/// One decoder block for generated-token index `t` (Section III-C,
/// Figure 5).
#[allow(clippy::too_many_arguments)]
fn decoder_step_layer(
    out: &mut Vec<Step>,
    cfg: &ModelConfig,
    banks: BankRange,
    seq_len: u32,
    t: u64,
    batch: u32,
    p: Precision,
    placement: DecoderPlacement,
) {
    let n = u64::from(banks.count);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let b = u64::from(batch);
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    // The sharding rules: a matvec's `x` output lanes split over the `N`
    // banks, the same `k` on each bank (attention over local K/V), and
    // `k` once per sequence at the tree root (the reciprocal).
    let split = |x: u64| Size::new(x.div_ceil(n), x * b);
    let each = |k: u64| Size::new(k, k * n * b);
    let root = |k: u64| Size::new(k, k * b);

    // Context tokens the busiest bank attends over: the sharded encoder
    // context (cross-attention) or the sharded prefix (decoder-only), plus
    // the generated tokens placed per the policy.
    let r_ctx = u64::from(seq_len).div_ceil(n);
    let r_gen = match placement {
        DecoderPlacement::Balanced => t.div_ceil(n).max(if t > 0 { 1 } else { 0 }),
        DecoderPlacement::LastBank => t,
    };
    let r_att = r_ctx + r_gen;

    // ---- FC for the new token: output-parallel matvec on resident weight
    // slices, then Q_new broadcast (K_new/V_new stay with their owner).
    out.push(Step::scope("dec.fc"));
    out.push(Step::OneToAll { src: banks.start, banks, bytes: d * act_b, parallel: batch });
    out.push(split(3 * d * d).mul(p.act_bits, p.act_bits));
    out.push(split(3 * d).reduce(d as u32, p.acc_bits));
    out.push(Step::OneToAll { src: banks.start, banks, bytes: d * act_b, parallel: batch });

    // ---- Attention of the new token against distributed K/V columns.
    out.push(Step::scope("dec.attn"));
    out.push(each(r_att * d).mul(p.act_bits, p.act_bits));
    out.push(each(r_att * h).reduce((d / h) as u32, p.acc_bits));
    // Distributed Softmax over the single score row: local exponents,
    // tree-reduced row sum, reciprocal broadcast back.
    out.push(each(r_att * h).exp(p.softmax_bits, p.taylor_order));
    out.push(each(h).reduce(r_att.max(1) as u32, p.softmax_bits));
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: h * sm_b,
        bits: p.softmax_bits,
        elems: h,
        parallel: batch,
    });
    out.push(root(h).recip());
    out.push(Step::OneToAll { src: banks.start, banks, bytes: h * sm_b, parallel: batch });
    out.push(each(r_att * h).mul(p.softmax_bits, p.softmax_bits));
    // Weighted values: per-bank partial output, then the reduction tree.
    out.push(each(r_att * d).mul(p.softmax_bits, p.act_bits));
    out.push(each(d).reduce(r_att.max(1) as u32, p.acc_bits));
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: d * sm_b,
        bits: p.acc_bits,
        elems: d,
        parallel: batch,
    });

    // Cross-attention repeats the score/softmax/value pattern against the
    // encoder context (already included in r_att for cost purposes when
    // cross_attention is on; the extra Q/O projections are charged here).
    let proj_matvecs: u64 = if cfg.cross_attention { 2 + 2 } else { 2 }; // Wo (+Wq2, Wo2)
    out.push(split(proj_matvecs * d * d).mul(p.act_bits, p.act_bits));
    out.push(split(proj_matvecs * d).reduce(d as u32, p.acc_bits));

    // ---- FFN matvecs, output-parallel on resident slices.
    out.push(Step::scope("dec.ffn"));
    out.push(split(2 * d * dff).mul(p.act_bits, p.act_bits));
    out.push(split(2 * dff).reduce(d as u32, p.acc_bits));
    out.push(each(d * act_b).touch());
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_transformer::workload::Workload;

    #[test]
    fn encoder_only_program_has_expected_structure() {
        let w = Workload::imdb();
        let prog = compile(&w, 2048);
        // 12 layers, each with 2 ring broadcasts (batched IMDB shards span
        // 128 banks each).
        let rings = prog.steps().iter().filter(|s| matches!(s, Step::RingBroadcast { .. })).count();
        assert_eq!(rings, 24);
        assert!(prog.host_bytes() > 0);
    }

    #[test]
    fn compute_work_is_conserved() {
        // Total point-wise multiplies must equal the workload's MAC count
        // up to the softmax/normalization extras (which add, not remove).
        let w = Workload::triviaqa();
        let prog = compile(&w, 2048);
        let macs = w.total_macs();
        let muls = prog.total_mul_elems();
        assert!(muls >= macs, "muls {muls} < macs {macs}");
        assert!(muls < 2 * macs, "muls {muls} more than double macs {macs}");
    }

    #[test]
    fn decoder_workload_emits_reduction_trees() {
        let mut w = Workload::pubmed();
        w.decode_len = 2; // keep the program small
        let prog = compile(&w, 256);
        // The compiled program is loop-compressed; count in the unrolled
        // expansion, which denotes the same step sequence.
        let unrolled = prog.unroll();
        let trees = unrolled
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::PairwiseReduceTree { .. }))
            .count();
        // 2 trees (softmax sum + output) × 16 layers × 2 steps.
        assert_eq!(trees, 2 * 16 * 2);
        // And the compressed form is far smaller than the expansion.
        assert!(prog.len() < unrolled.len());
    }

    #[test]
    fn single_bank_sequence_skips_rings() {
        let mut w = Workload::imdb();
        w.batch = 1;
        w.seq_len = 4;
        let prog = compile(&w, 1);
        assert!(!prog.steps().iter().any(|s| matches!(s, Step::RingBroadcast { .. })));
    }

    #[test]
    fn ring_traffic_per_bank_scales_linearly_with_sequence_length() {
        // The paper: with token sharding "the size of moved data only
        // increases linearly" — each bank receives the K and V matrices
        // (O(L·D)) regardless of how many banks participate.
        let per_bank = |l: usize| {
            let w = Workload::synthetic_roberta(l);
            let prog = compile(&w, 2048);
            let banks = l.min(2048) as f64; // batch 1: one bank per token
            prog.internal_movement_bytes() as f64 / banks
        };
        let ratio = per_bank(2048) / per_bank(512);
        assert!(ratio > 2.0 && ratio < 8.0, "per-bank movement ratio {ratio} not ~4x for 4x L");
    }

    #[test]
    fn last_bank_placement_inflates_decoder_work() {
        use crate::ir::Precision;
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 1;
        w.decode_len = 64;
        w.seq_len = 256;
        let sharding = Sharding::new(256, 1, 256);
        let balanced =
            compile_full(&w, &sharding, Precision::default(), DecoderPlacement::Balanced);
        let last = compile_full(&w, &sharding, Precision::default(), DecoderPlacement::LastBank);
        // The busiest bank's attention lanes grow linearly under LastBank,
        // so the summed per-bank exponent work (critical path) inflates.
        let sum_attn = |p: &Program| -> u64 {
            p.unroll()
                .steps()
                .iter()
                .filter_map(|s| match s {
                    Step::Exp { elems_per_bank, .. } => Some(*elems_per_bank),
                    _ => None,
                })
                .sum()
        };
        assert!(sum_attn(&last) > 2 * sum_attn(&balanced));
    }

    #[test]
    fn last_bank_decode_commits_one_layer_per_token_as_a_repeat() {
        let mut w = Workload::lm();
        w.model.decoder_layers = 3;
        w.seq_len = 16;
        w.decode_len = 5;
        let (sharding, p) = (Sharding::new(64, 1, 16), Precision::default());
        let (cfg, shard) = (&w.model, sharding.sequences[0]);
        let placement = DecoderPlacement::LastBank;

        let mut prefill = w.clone();
        prefill.decode_len = 0;
        let mut want = compile_full(&prefill, &sharding, p, placement);
        let decode_start = want.len();
        want.push(Step::scope("load.weights"));
        want.push(Step::HostScatter {
            total_bytes: cfg.decoder_layers as u64
                * cfg.decoder_layer_params()
                * u64::from(p.act_bits)
                / 8,
        });
        let mut layer = Vec::new();
        for t in 0..w.decode_len as u64 {
            for _ in 0..cfg.decoder_layers {
                decoder_step_layer(&mut layer, cfg, shard.banks, shard.seq_len, t, 1, p, placement);
                want.extend(layer.drain(..));
            }
        }

        let prog = compile_full(&w, &sharding, p, placement);
        assert_eq!(prog.unroll(), want);
        let loop_start = decode_start + 2;
        assert_eq!(prog.len(), loop_start + w.decode_len);
        for (t, step) in prog.steps()[loop_start..].iter().enumerate() {
            let Step::Repeat { count, .. } = step else {
                panic!("token {t} is not one repeat: {step:?}");
            };
            assert_eq!(*count, cfg.decoder_layers as u64, "token {t}");
        }
    }

    #[test]
    fn decoder_only_prefill_counts_layers() {
        let mut w = Workload::lm();
        w.decode_len = 0;
        let prog = compile(&w, 2048);
        let fc_scopes =
            prog.steps().iter().filter(|s| matches!(s, Step::Scope(l) if l == "enc.fc")).count();
        assert_eq!(fc_scopes, 24, "prefill passes through all 24 GPT-2 blocks");
    }
}
