//! Figure 3: the motivation experiment (Section II-C).
//!
//! (a) Latency breakdown of a layer-based PIM-only HBM system running
//!     RoBERTa text classification at several sequence lengths — the paper
//!     profiles ~60% of time in data movement and 23–32% in reductions.
//! (b) Bytes loaded per layer kind under the layer-based dataflow — the
//!     attention/softmax loads grow quadratically with L.

use super::{json, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::ArchKind;
use transpim::report::{DataflowKind, SimReport};
use transpim_dataflow::ir::Precision;
use transpim_dataflow::layer_flow;
use transpim_hbm::stats::Category;
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct BreakdownRow {
    seq_len: usize,
    data_movement: f64,
    arithmetic: f64,
    reduction: f64,
    other: f64,
}

#[derive(Serialize)]
struct LoadRow {
    seq_len: usize,
    fc_bytes: u64,
    attention_bytes: u64,
    softmax_bytes: u64,
    ffn_bytes: u64,
}

const LENGTHS: [usize; 4] = [128, 512, 1024, 2048];

pub(super) fn cells() -> Vec<GridCell> {
    LENGTHS
        .iter()
        .map(|&l| {
            let mut w = Workload::synthetic_roberta(l);
            w.batch = (2048 / l).max(1); // fill the banks as the paper does
            GridCell::system(ArchKind::OriginalPim, DataflowKind::Layer, &w, 8)
        })
        .collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Figure 3(a): Layer-OriginalPIM latency breakdown, RoBERTa classification")?;
    writeln!(
        out,
        "{:>8} {:>14} {:>12} {:>11} {:>8}",
        "L", "movement", "arithmetic", "reduction", "other"
    )?;
    let mut breakdown = Vec::new();
    for (l, r) in LENGTHS.into_iter().zip(reports) {
        let row = BreakdownRow {
            seq_len: l,
            data_movement: r.fraction(Category::DataMovement),
            arithmetic: r.fraction(Category::Arithmetic),
            reduction: r.fraction(Category::Reduction),
            other: r.fraction(Category::Other),
        };
        writeln!(
            out,
            "{:>8} {:>13.1}% {:>11.1}% {:>10.1}% {:>7.1}%",
            l,
            100.0 * row.data_movement,
            100.0 * row.arithmetic,
            100.0 * row.reduction,
            100.0 * row.other
        )?;
        breakdown.push(row);
    }

    writeln!(out)?;
    writeln!(out, "Figure 3(b): loaded data per encoder layer (MB), layer-based dataflow")?;
    writeln!(out, "{:>8} {:>10} {:>12} {:>10} {:>10}", "L", "FC", "attention", "softmax", "FFN")?;
    let cfg = ModelConfig::roberta_base();
    let p = Precision::default();
    let mut loads = Vec::new();
    for l in LENGTHS {
        let parts = layer_flow::encoder_layer_loaded_bytes(&cfg, l as u64, 2048, p);
        let get = |k: &str| parts.iter().find(|(n, _)| *n == k).map(|(_, v)| *v).unwrap_or(0);
        let row = LoadRow {
            seq_len: l,
            fc_bytes: get("fc"),
            attention_bytes: get("attention"),
            softmax_bytes: get("softmax"),
            ffn_bytes: get("ffn"),
        };
        writeln!(
            out,
            "{:>8} {:>10.2} {:>12.2} {:>10.2} {:>10.2}",
            l,
            row.fc_bytes as f64 / 1e6,
            row.attention_bytes as f64 / 1e6,
            row.softmax_bytes as f64 / 1e6,
            row.ffn_bytes as f64 / 1e6
        )?;
        loads.push(row);
    }

    Ok(vec![json("fig03_breakdown", &breakdown), json("fig03_loaded_data", &loads)])
}
