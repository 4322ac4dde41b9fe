//! Ablation: ring/compute pipelining.
//!
//! Section III-B2 interleaves "ring broadcast and compute steps"; the
//! simulator's default barrier model prices each round as transfer +
//! compute. This ablation prices the pipelined schedule
//! (`max(transfer, compute)` per round) and shows how much of the ring
//! traffic the attention blocks can hide at each sequence length.

use super::{json, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::{DataflowKind, SimReport};
use transpim_hbm::stats::Category;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    seq_len: usize,
    barrier_ms: f64,
    pipelined_ms: f64,
    gain: f64,
    movement_hidden_frac: f64,
}

const LENGTHS: [usize; 4] = [512, 2048, 8192, 32768];

/// The barrier and the pipelined cell, per length.
pub(super) fn cells() -> Vec<GridCell> {
    LENGTHS
        .iter()
        .flat_map(|&l| {
            let mut w = Workload::synthetic_pegasus(l);
            w.decode_len = 0;
            [
                GridCell::custom(ArchConfig::new(ArchKind::TransPim), DataflowKind::Token, &w),
                GridCell::custom(
                    ArchConfig::new(ArchKind::TransPim).with_pipelined_ring(true),
                    DataflowKind::Token,
                    &w,
                ),
            ]
        })
        .collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Ablation: ring/compute pipelining (Pegasus encoder, Token-TransPIM)")?;
    writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>8} {:>14}",
        "L", "barrier", "pipelined", "gain", "movement hidden"
    )?;
    let mut reports = reports.iter();
    let mut rows = Vec::new();
    for l in LENGTHS {
        let barrier = reports.next().expect("barrier report");
        let pipelined = reports.next().expect("pipelined report");
        let mb = barrier.stats.time_ns[Category::DataMovement.index()];
        let mp = pipelined.stats.time_ns[Category::DataMovement.index()];
        let row = Row {
            seq_len: l,
            barrier_ms: barrier.latency_ms(),
            pipelined_ms: pipelined.latency_ms(),
            gain: barrier.latency_ms() / pipelined.latency_ms(),
            movement_hidden_frac: if mb > 0.0 { 1.0 - mp / mb } else { 0.0 },
        };
        writeln!(
            out,
            "{:>8} {:>9.1} ms {:>9.1} ms {:>7.3}x {:>13.1}%",
            l,
            row.barrier_ms,
            row.pipelined_ms,
            row.gain,
            100.0 * row.movement_hidden_frac
        )?;
        rows.push(row);
    }
    writeln!(
        out,
        "\nThe attention blocks are compute-heavy enough to hide most of the ring\n\
         traffic; the end-to-end gain is bounded by the movement share itself."
    )?;
    Ok(vec![json("ablation_pipelining", &rows)])
}
