//! Figure 12: average bandwidth usage (bytes read/written ÷ latency).
//!
//! The paper reports layer-based systems consuming far more bandwidth than
//! token-based ones (Layer-TransPIM up to ~1699 GB/s vs Token-TransPIM
//! ~762 GB/s against the 2 TB/s aggregate), and the TransPIM buffers
//! *raising* a given dataflow's bandwidth usage because latency drops.

use super::{json, rule, systems_on, Json};
use crate::{all_systems, GridCell};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::report::SimReport;
use transpim_hbm::config::HbmConfig;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    workload: String,
    system: String,
    bandwidth_gbs: f64,
}

pub(super) fn cells() -> Vec<GridCell> {
    systems_on(&Workload::paper_suite())
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    let aggregate = HbmConfig::default().aggregated_bandwidth_gbs();
    writeln!(out, "Figure 12: average bandwidth usage (aggregate available: {aggregate:.0} GB/s)")?;
    let mut reports = reports.iter();
    let mut rows = Vec::new();
    for w in Workload::paper_suite() {
        rule(out, 64)?;
        for _ in all_systems() {
            let r = reports.next().expect("one report per grid cell");
            let row = Row {
                workload: w.name.clone(),
                system: r.system.clone(),
                bandwidth_gbs: r.average_bandwidth_gbs(),
            };
            writeln!(
                out,
                "{:<10} {:<22} {:>9.1} GB/s",
                row.workload, row.system, row.bandwidth_gbs
            )?;
            rows.push(row);
        }
    }

    // Shape check echoed for EXPERIMENTS.md: layer > token on each arch.
    let max_for = |sys: &str| {
        rows.iter().filter(|r| r.system == sys).map(|r| r.bandwidth_gbs).fold(0.0, f64::max)
    };
    writeln!(
        out,
        "\npeak usage: Layer-TransPIM {:.0} GB/s vs Token-TransPIM {:.0} GB/s (paper: 1699 vs 762)",
        max_for("Layer-TransPIM"),
        max_for("Token-TransPIM")
    )?;
    Ok(vec![json("fig12_bandwidth", &rows)])
}
