//! Ablation: arithmetic precision.
//!
//! The paper fixes 8-bit FC/FFN and 16-bit Softmax (Section V-B, citing
//! GOBO). Bit-serial PIM cost scales super-linearly with width (multiply is
//! ~O(b²)), so precision is a first-order design lever — this ablation
//! quantifies it, including a hypothetical 4-bit mode and a conservative
//! full-16-bit mode.

use super::{json, Json};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::SimReport;
use transpim_dataflow::ir::Precision;
use transpim_dataflow::sharding::Sharding;
use transpim_dataflow::token_flow;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    act_bits: u32,
    softmax_bits: u32,
    latency_ms: f64,
    energy_j: f64,
    speedup_vs_8bit: f64,
}

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Ablation: precision of the bit-serial datapath (TriviaQA, Token-TransPIM)")?;
    let w = Workload::triviaqa();
    let sharding = Sharding::new(2048, w.batch as u32, w.seq_len as u32);

    let run = |act_bits: u32, softmax_bits: u32| {
        let p = Precision { act_bits, acc_bits: 2 * act_bits, softmax_bits, taylor_order: 5 };
        let prog = token_flow::compile_with(&w, &sharding, p);
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let (stats, _) = ex.run(&prog);
        (stats.latency_ns * 1e-6, stats.total_energy_j())
    };

    let (base_ms, _) = run(8, 16);
    let mut rows = Vec::new();
    writeln!(
        out,
        "{:>10} {:>14} {:>12} {:>10} {:>10}",
        "act bits", "softmax bits", "latency", "energy", "speedup"
    )?;
    for (a, s) in [(4u32, 8u32), (8, 8), (8, 16), (16, 16)] {
        let (ms, j) = run(a, s);
        let row = Row {
            act_bits: a,
            softmax_bits: s,
            latency_ms: ms,
            energy_j: j,
            speedup_vs_8bit: base_ms / ms,
        };
        writeln!(
            out,
            "{:>10} {:>14} {:>9.1} ms {:>8.2} J {:>9.2}x",
            a, s, ms, j, row.speedup_vs_8bit
        )?;
        rows.push(row);
    }
    writeln!(
        out,
        "\nbit-serial multiply is ~O(b²): halving the width roughly quadruples the\n\
         arithmetic rate, which is why the paper's 8-bit choice matters so much."
    )?;
    Ok(vec![json("ablation_precision", &rows)])
}
