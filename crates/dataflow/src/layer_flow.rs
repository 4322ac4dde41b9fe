//! The layer-based baseline dataflow (Section II-C).
//!
//! Prior memory-based DNN accelerators schedule at layer granularity: the
//! whole memory processes one layer at a time, so *all* of a layer's
//! operands are loaded (and duplicated for parallelism) before compute, and
//! every intermediate result is written back and re-distributed for the
//! next layer. For attention this is expensive twice over:
//!
//! * each bank computing score rows needs the **full** `K` (and later `V`)
//!   matrix — a one-to-many duplication ([`Step::BroadcastDup`]) whose
//!   loaded volume grows with the number of active banks,
//! * the `h × L × L` score matrix itself is written out after the score
//!   stage, reloaded for Softmax, and reloaded again for the weighted-value
//!   stage — the quadratic term of Figure 3(b).
//!
//! Compute work is identical to the token dataflow (same arithmetic, spread
//! over all banks); only the movement differs — which is exactly the
//! comparison the paper's Figure 10/11 makes.

use crate::ir::{BankRange, Emitter, Precision, Program, Size, Step};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

/// Compile `workload` under the layer-based dataflow for `total_banks`.
pub fn compile(workload: &Workload, total_banks: u32) -> Program {
    compile_with(workload, total_banks, Precision::default())
}

/// Compile with explicit precision.
pub fn compile_with(workload: &Workload, total_banks: u32, p: Precision) -> Program {
    Program::build(|out| emit_with(workload, total_banks, p, out))
}

/// [`compile`], writing the steps into `out`.
pub fn emit(workload: &Workload, total_banks: u32, out: &mut impl Emitter) {
    emit_with(workload, total_banks, Precision::default(), out);
}

/// [`compile_with`], writing the steps into `prog`.
pub fn emit_with(workload: &Workload, total_banks: u32, p: Precision, prog: &mut impl Emitter) {
    let cfg = &workload.model;
    let b = workload.batch as u64;

    prog.push(Step::scope("load.input"));
    prog.push(Step::HostScatter {
        total_bytes: workload.batch_tokens() * cfg.d_model as u64 * u64::from(p.act_bits) / 8,
    });

    let enc_layers = if cfg.encoder_layers > 0 { cfg.encoder_layers } else { cfg.decoder_layers };
    for _ in 0..enc_layers {
        encoder_layer(prog, cfg, workload.seq_len as u64, b, total_banks, p);
    }

    if cfg.decoder_layers > 0 && workload.decode_len > 0 {
        // Loop-compressed emission: the decoder layers of token `t` are
        // identical, so one layer block is committed `decoder_layers` times
        // as one repeat (the executor prices it as body × count).
        // A plateau is one token: the duplicated K/V (`ShuffleAll`) and the
        // `ctx`-sized work grow with every `t`, so consecutive tokens never
        // share a block.
        let layers = cfg.decoder_layers as u64;
        let mut block = Vec::new();
        for t in 0..workload.decode_len as u64 {
            decoder_step_layer(&mut block, cfg, workload.seq_len as u64, t, b, total_banks, p);
            prog.push_block_times(&mut block, layers);
        }
    }
}

/// Bytes loaded for one encoder layer at sequence length `l` — the
/// Figure 3(b) accounting, exposed for the motivation experiment.
pub fn encoder_layer_loaded_bytes(
    cfg: &ModelConfig,
    l: u64,
    active_banks: u64,
    p: Precision,
) -> [(&'static str, u64); 4] {
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    let fc = 3 * l * d * act_b + 3 * d * d * act_b;
    // Q scatter + K and V duplicated into every active bank + the score
    // matrix written, reloaded for Softmax, and reloaded again.
    let attn =
        l * d * act_b + 2 * l * d * act_b * active_banks + 3 * h * l * l * sm_b + d * d * act_b;
    let softmax = 2 * h * l * l * sm_b;
    let ffn = l * d * act_b + 2 * d * dff * act_b + l * dff * act_b;
    [("fc", fc), ("attention", attn), ("softmax", softmax), ("ffn", ffn)]
}

fn encoder_layer(
    prog: &mut impl Emitter,
    cfg: &ModelConfig,
    l: u64,
    b: u64,
    total_banks: u32,
    p: Precision,
) {
    let n = u64::from(total_banks);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dh = d / h;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    // The sharding rule: a layer's `x` of work spread over all `N` banks.
    let spread = |x: u64| Size::new(x.div_ceil(n), x);

    // ---- FC: reload inputs (duplicated 3× for the Q/K/V banks), broadcast
    // weights, compute, store Q/K/V.
    prog.push(Step::scope("enc.fc"));
    prog.push(Step::ShuffleAll { total_bytes: 3 * l * d * act_b * b });
    prog.push(Step::HostBroadcast { bytes: 3 * d * d * act_b, banks: total_banks });
    prog.push(spread(3 * l * d * d * b).mul(p.act_bits, p.act_bits));
    prog.push(spread(3 * l * d * b).reduce(d as u32, p.acc_bits));
    prog.push(spread(3 * l * d * act_b * b).touch());

    // ---- Attention scores: Q scattered to the banks owning score rows,
    // K duplicated into every one of them.
    prog.push(Step::scope("enc.attn"));
    prog.push(Step::ShuffleAll { total_bytes: l * d * act_b * b });
    prog.push(Step::BroadcastDup { bytes: l * d * act_b * b, banks: total_banks });
    prog.push(spread(l * l * d * b).mul(p.act_bits, p.act_bits));
    prog.push(spread(l * l * h * b).reduce(dh as u32, p.acc_bits));
    // Score matrix written out for the Softmax stage.
    prog.push(spread(h * l * l * sm_b * b).touch());

    // ---- Softmax: scores reloaded and redistributed row-wise, then
    // written back — the quadratic reload of Figure 3(b).
    prog.push(Step::scope("enc.softmax"));
    prog.push(Step::ShuffleAll { total_bytes: 2 * h * l * l * sm_b * b });
    prog.push(spread(l * l * h * b).exp(p.softmax_bits, p.taylor_order));
    prog.push(spread(l * h * b).reduce(l as u32, p.softmax_bits));
    prog.push(spread(l * h * b).recip());
    prog.push(spread(l * h * b).replicate(p.softmax_bits, l as u32));
    prog.push(spread(l * l * h * b).mul(p.softmax_bits, p.softmax_bits));

    // ---- Weighted values: probabilities reloaded, V duplicated.
    prog.push(Step::scope("enc.attn"));
    prog.push(Step::ShuffleAll { total_bytes: h * l * l * sm_b * b });
    prog.push(Step::BroadcastDup { bytes: l * d * act_b * b, banks: total_banks });
    prog.push(spread(l * l * d * b).mul(p.softmax_bits, p.act_bits));
    prog.push(spread(l * d * b).reduce(l as u32, p.acc_bits));
    prog.push(Step::HostBroadcast { bytes: d * d * act_b, banks: total_banks });
    prog.push(spread(l * d * d * b).mul(p.act_bits, p.act_bits));
    prog.push(spread(l * d * b).reduce(d as u32, p.acc_bits));
    prog.push(spread(l * d * b).add(p.act_bits));

    // ---- FFN: attention output reloaded, weights broadcast.
    prog.push(Step::scope("enc.ffn"));
    prog.push(Step::ShuffleAll { total_bytes: l * d * act_b * b });
    prog.push(Step::HostBroadcast { bytes: 2 * d * dff * act_b, banks: total_banks });
    prog.push(spread(l * d * dff * b).mul(p.act_bits, p.act_bits));
    prog.push(spread(l * dff * b).reduce(d as u32, p.acc_bits));
    prog.push(spread(l * dff * d * b).mul(p.act_bits, p.act_bits));
    prog.push(spread(l * d * b).reduce(dff as u32, p.acc_bits));
    prog.push(spread(l * d * b).add(p.act_bits));
    prog.push(spread(l * d * act_b * b).touch());
}

fn decoder_step_layer(
    out: &mut Vec<Step>,
    cfg: &ModelConfig,
    l: u64,
    t: u64,
    b: u64,
    total_banks: u32,
    p: Precision,
) {
    let n = u64::from(total_banks);
    let banks = BankRange::new(0, total_banks);
    let d = cfg.d_model as u64;
    let h = cfg.heads as u64;
    let dff = cfg.d_ff as u64;
    let act_b = u64::from(p.act_bits) / 8;
    let sm_b = u64::from(p.softmax_bits) / 8;
    // The sharding rules: `x` of work spread over all `N` banks, the same
    // `k` on each bank (the softmax and S·V partial sums), and `k` once
    // per sequence at the tree root (the reciprocal).
    let spread = |x: u64| Size::new(x.div_ceil(n), x);
    let each = |k: u64| Size::new(k, k * n * b);
    let root = |k: u64| Size::new(k, k * b);
    let ctx = l + t; // attended positions

    // Whole-memory-per-layer: the decoder's single-token matvecs are
    // output-split across the banks, so this layer's weights are
    // *scattered* (each bank holds only its output columns) and re-streamed
    // every step, while the new token's state is duplicated to every bank.
    out.push(Step::scope("dec.fc"));
    let weight_bytes =
        (4 * d * d + if cfg.cross_attention { 4 * d * d } else { 0 } + 2 * d * dff) * act_b;
    out.push(Step::HostScatter { total_bytes: weight_bytes });
    out.push(Step::ShuffleAll { total_bytes: (2 * ctx * d * act_b + d * act_b) * b });
    out.push(spread(3 * d * d * b).mul(p.act_bits, p.act_bits));
    out.push(spread(3 * d * b).reduce(d as u32, p.acc_bits));

    out.push(Step::scope("dec.attn"));
    out.push(Step::BroadcastDup { bytes: d * act_b * b, banks: total_banks }); // q to all banks
    out.push(spread(ctx * d * b).mul(p.act_bits, p.act_bits));
    out.push(spread(ctx * h * b).reduce((d / h) as u32, p.acc_bits));
    out.push(spread(ctx * h * b).exp(p.softmax_bits, p.taylor_order));
    out.push(each(h).reduce(ctx.div_ceil(n).max(1) as u32, p.softmax_bits));
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: h * sm_b,
        bits: p.softmax_bits,
        elems: h,
        parallel: b as u32,
    });
    out.push(root(h).recip());
    out.push(Step::BroadcastDup { bytes: h * sm_b * b, banks: total_banks });
    out.push(spread(ctx * h * b).mul(p.softmax_bits, p.softmax_bits));
    out.push(spread(ctx * d * b).mul(p.softmax_bits, p.act_bits));
    out.push(each(d).reduce(ctx.div_ceil(n).max(1) as u32, p.acc_bits));
    out.push(Step::PairwiseReduceTree {
        banks,
        bytes: d * sm_b,
        bits: p.acc_bits,
        elems: d,
        parallel: b as u32,
    });
    let proj_matvecs: u64 = if cfg.cross_attention { 4 } else { 2 };
    out.push(spread(proj_matvecs * d * d * b).mul(p.act_bits, p.act_bits));
    out.push(spread(proj_matvecs * d * b).reduce(d as u32, p.acc_bits));

    out.push(Step::scope("dec.ffn"));
    out.push(spread(2 * d * dff * b).mul(p.act_bits, p.act_bits));
    out.push(spread(2 * dff * b).reduce(d as u32, p.acc_bits));
    out.push(spread(d * act_b * b).touch());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_flow;
    use transpim_transformer::workload::Workload;

    #[test]
    fn layer_flow_moves_far_more_than_token_flow() {
        let w = Workload::triviaqa();
        let layer = compile(&w, 2048);
        let token = token_flow::compile(&w, 2048);
        let lm = layer.internal_movement_bytes();
        let tm = token.internal_movement_bytes();
        assert!(lm > 3 * tm, "layer {lm} should dwarf token {tm}");
    }

    #[test]
    fn compute_work_matches_token_flow() {
        let w = Workload::imdb();
        let layer = compile(&w, 2048);
        let token = token_flow::compile(&w, 2048);
        assert_eq!(layer.total_mul_elems(), token.total_mul_elems());
    }

    #[test]
    fn loaded_bytes_grow_quadratically_in_attention() {
        // Figure 3(b): the attention/softmax loads are quadratic in L.
        let cfg = transpim_transformer::model::ModelConfig::roberta_base();
        let p = Precision::default();
        let at = |l: u64| {
            encoder_layer_loaded_bytes(&cfg, l, 2048, p)
                .iter()
                .find(|(k, _)| *k == "softmax")
                .unwrap()
                .1 as f64
        };
        let ratio = at(2048) / at(512);
        assert!((ratio - 16.0).abs() < 1.0, "softmax reload ratio {ratio} should be ~16 for 4x L");
    }

    #[test]
    fn decode_commits_one_layer_per_token_as_a_zero_delta_repeat() {
        let mut w = Workload::lm();
        w.model.decoder_layers = 3;
        w.seq_len = 16;
        w.decode_len = 5;
        let (banks, p) = (64, Precision::default());
        let (cfg, l) = (&w.model, w.seq_len as u64);

        let mut want = Program::new();
        want.push(Step::scope("load.input"));
        want.push(Step::HostScatter {
            total_bytes: w.batch_tokens() * cfg.d_model as u64 * u64::from(p.act_bits) / 8,
        });
        for _ in 0..cfg.decoder_layers {
            encoder_layer(&mut want, cfg, l, 1, banks, p);
        }
        let prefill = want.len();
        let mut layer = Vec::new();
        for t in 0..w.decode_len as u64 {
            for _ in 0..cfg.decoder_layers {
                decoder_step_layer(&mut layer, cfg, l, t, 1, banks, p);
                want.extend(layer.drain(..));
            }
        }

        let prog = compile(&w, banks);
        assert_eq!(prog.unroll(), want);
        assert_eq!(prog.len(), prefill + w.decode_len);
        for (t, step) in prog.steps()[prefill..].iter().enumerate() {
            let Step::Repeat { count, .. } = step else {
                panic!("token {t} is not one repeat: {step:?}");
            };
            assert_eq!(*count, cfg.decoder_layers as u64, "token {t}");
        }
    }

    #[test]
    fn no_ring_broadcasts_in_layer_flow() {
        let w = Workload::imdb();
        let prog = compile(&w, 2048);
        assert!(!prog.steps().iter().any(|s| matches!(s, Step::RingBroadcast { .. })));
        assert!(prog.steps().iter().any(|s| matches!(s, Step::BroadcastDup { .. })));
    }
}
