//! Ablation: decoder token placement (Section III-C).
//!
//! The paper places each generated token's K/V rows in "the bank with the
//! minimum number of tokens to balance computation". This ablation
//! quantifies the claim by simulating the same generative workload under
//! the balanced policy and the naive keep-in-FC-bank policy, where one
//! bank's attention work grows linearly with the generated prefix.

use super::{json, Json};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::SimReport;
use transpim_dataflow::ir::Precision;
use transpim_dataflow::sharding::Sharding;
use transpim_dataflow::token_flow::{compile_full, DecoderPlacement};
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    decode_len: usize,
    balanced_ms: f64,
    last_bank_ms: f64,
    balancing_gain: f64,
}

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Ablation: decoder K/V placement (Pegasus @1K context, Token-TransPIM)")?;
    writeln!(out, "{:>10} {:>14} {:>14} {:>8}", "decode", "balanced", "last-bank", "gain")?;
    let mut rows = Vec::new();
    for decode_len in [64usize, 256, 1024] {
        let mut w = Workload::pubmed();
        w.seq_len = 1024;
        w.decode_len = decode_len;
        let sharding = Sharding::new(2048, 1, w.seq_len as u32);
        let run = |placement: DecoderPlacement| {
            let prog = compile_full(&w, &sharding, Precision::default(), placement);
            let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
            ex.run(&prog).0.latency_ns * 1e-6
        };
        let balanced = run(DecoderPlacement::Balanced);
        let last = run(DecoderPlacement::LastBank);
        let row = Row {
            decode_len,
            balanced_ms: balanced,
            last_bank_ms: last,
            balancing_gain: last / balanced,
        };
        writeln!(
            out,
            "{:>10} {:>11.1} ms {:>11.1} ms {:>7.2}x",
            decode_len, balanced, last, row.balancing_gain
        )?;
        rows.push(row);
    }
    writeln!(
        out,
        "\nBalanced placement keeps the busiest bank's attention work at\n\
         ceil(t/N) generated tokens; without it the gain of distributing the\n\
         context evaporates as generation proceeds."
    )?;
    Ok(vec![json("ablation_decoder_placement", &rows)])
}
