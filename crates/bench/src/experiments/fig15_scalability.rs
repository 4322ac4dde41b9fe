//! Figure 15: scalability of TransPIM with the number of HBM stacks,
//! across sequence lengths.
//!
//! The paper shows near-linear speedup for long sequences (which saturate
//! the compute) and flat curves for short ones (which cannot fill the
//! extra banks).

use super::{json, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::ArchKind;
use transpim::report::{DataflowKind, SimReport};
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    seq_len: usize,
    stacks: u32,
    latency_ms: f64,
    speedup_vs_1_stack: f64,
}

const LENGTHS: [usize; 4] = [512, 2048, 8192, 32768];
const STACKS: [u32; 4] = [1, 2, 4, 8];

pub(super) fn cells() -> Vec<GridCell> {
    LENGTHS
        .iter()
        .flat_map(|&l| {
            let mut w = Workload::synthetic_pegasus(l);
            w.decode_len = 0; // the scalability claim is about the parallel pass
            STACKS
                .iter()
                .map(move |&stacks| {
                    GridCell::system(ArchKind::TransPim, DataflowKind::Token, &w, stacks)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Figure 15: speedup vs number of HBM stacks (Pegasus encoder)")?;
    writeln!(out, "{:>8} {:>8} {:>8} {:>8} {:>8}", "L", "1", "2", "4", "8")?;
    let mut reports = reports.iter();
    let mut rows = Vec::new();
    for l in LENGTHS {
        let mut base = f64::NAN;
        let mut line = format!("{l:>8}");
        for stacks in STACKS {
            let r = reports.next().expect("one report per grid cell");
            if stacks == 1 {
                base = r.latency_ms();
            }
            let speedup = base / r.latency_ms();
            line.push_str(&format!(" {speedup:>7.2}x"));
            rows.push(Row {
                seq_len: l,
                stacks,
                latency_ms: r.latency_ms(),
                speedup_vs_1_stack: speedup,
            });
        }
        writeln!(out, "{line}")?;
    }

    // Shape checks echoed for EXPERIMENTS.md.
    let speedup = |l: usize, s: u32| {
        rows.iter()
            .find(|r| r.seq_len == l && r.stacks == s)
            .map(|r| r.speedup_vs_1_stack)
            .unwrap_or(f64::NAN)
    };
    writeln!(
        out,
        "\n8-stack speedup: L=512 {:.2}x (short: saturates) vs L=32768 {:.2}x (long: near-linear)",
        speedup(512, 8),
        speedup(32768, 8)
    )?;
    Ok(vec![json("fig15_scalability", &rows)])
}
