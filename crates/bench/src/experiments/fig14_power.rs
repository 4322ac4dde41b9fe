//! Figure 14: power consumption of TransPIM vs sequence length, for
//! RoBERTa and Pegasus (encoder side), batch 1.
//!
//! The paper reports Pegasus dissipating ~2% more than RoBERTa at equal
//! length, ~4 W growth from L = 128 to 4096, and everything below the 60 W
//! conventional-DRAM budget. Our physics-first energy model lands higher
//! in absolute terms (see EXPERIMENTS.md) but reproduces the trends.

use super::{json, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::ArchKind;
use transpim::report::{DataflowKind, SimReport};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    model: String,
    seq_len: usize,
    power_w: f64,
    latency_ms: f64,
    active_bank_fraction: f64,
}

const LENGTHS: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];
const MODELS: [&str; 2] = ["roberta", "pegasus"];

fn workload(model: &str, l: usize) -> Workload {
    let mut w = Workload::synthetic_roberta(l);
    if model == "pegasus" {
        w.model = ModelConfig::pegasus_large();
        w.model.decoder_layers = 0; // encoder-side power like RoBERTa
        w.name = format!("pegasus-{l}");
    }
    w
}

pub(super) fn cells() -> Vec<GridCell> {
    LENGTHS
        .iter()
        .flat_map(|&l| {
            MODELS.iter().map(move |model| {
                GridCell::system(ArchKind::TransPim, DataflowKind::Token, &workload(model, l), 8)
            })
        })
        .collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Figure 14: TransPIM power vs sequence length (batch 1, encoder)")?;
    writeln!(out, "{:>8} {:>14} {:>14}", "L", "RoBERTa (W)", "Pegasus (W)")?;
    let mut reports = reports.iter();
    let mut rows = Vec::new();
    for l in LENGTHS {
        let mut line = format!("{l:>8}");
        for model in MODELS {
            let r = reports.next().expect("one report per grid cell");
            let power = r.average_power_w();
            line.push_str(&format!(" {power:>14.1}"));
            rows.push(Row {
                model: model.into(),
                seq_len: l,
                power_w: power,
                latency_ms: r.latency_ms(),
                active_bank_fraction: (l as f64 / 2048.0).min(1.0),
            });
        }
        writeln!(out, "{line}")?;
    }

    let max = rows.iter().map(|r| r.power_w).fold(0.0, f64::max);
    writeln!(out, "\nmax power {max:.1} W (paper budget: 60 W; paper measured ~24-28 W)")?;
    Ok(vec![json("fig14_power", &rows)])
}
