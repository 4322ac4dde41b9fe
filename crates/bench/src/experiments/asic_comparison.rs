//! Section V-B "Comparison to ASIC": TransPIM's achieved throughput and
//! area against the published A³ and SpAtten figures.

use super::{json, rule, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::ArchKind;
use transpim::report::{DataflowKind, SimReport};
use transpim_acu::area::AreaModel;
use transpim_baselines::asic::AsicSpec;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    workload: String,
    transpim_gops: f64,
    vs_a3: f64,
    vs_spatten: f64,
}

pub(super) fn cells() -> Vec<GridCell> {
    Workload::paper_suite()
        .iter()
        .map(|w| GridCell::system(ArchKind::TransPim, DataflowKind::Token, w, 8))
        .collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "ASIC comparison (Section V-B)")?;
    let a3 = AsicSpec::a3();
    let sp = AsicSpec::spatten_eighth();
    writeln!(
        out,
        "comparators: {} {:.0} GOP/s {:.2} mm^2 | {} {:.0} GOP/s {:.2} mm^2",
        a3.name, a3.peak_gops, a3.area_mm2, sp.name, sp.peak_gops, sp.area_mm2
    )?;
    let area = AreaModel::new(16, 4);
    writeln!(
        out,
        "TransPIM added logic: {:.2} mm^2 per 8GB stack (paper: 2.15; A3 2.08, SpAtten-1/8 1.55)",
        area.overhead_mm2()
    )?;
    rule(out, 76)?;

    let mut rows = Vec::new();
    let mut sum = 0.0;
    for (w, r) in Workload::paper_suite().iter().zip(reports) {
        let gops = r.throughput_gops();
        sum += gops;
        let row = Row {
            workload: w.name.clone(),
            transpim_gops: gops,
            vs_a3: a3.throughput_ratio(gops),
            vs_spatten: sp.throughput_ratio(gops),
        };
        writeln!(
            out,
            "{:<10} {:>9.1} GOP/s   {:>5.2}x A3 peak   {:>5.2}x SpAtten peak",
            row.workload, row.transpim_gops, row.vs_a3, row.vs_spatten
        )?;
        rows.push(row);
    }
    let avg = sum / rows.len() as f64;
    writeln!(
        out,
        "\naverage {:.0} GOP/s = {:.2}x A3, {:.2}x SpAtten (paper: 734 GOP/s = 3.3x, 2.0x)",
        avg,
        a3.throughput_ratio(avg),
        sp.throughput_ratio(avg)
    )?;
    if let Some(s) = sp.reported_gpt2_speedup {
        writeln!(out, "SpAtten's reported GPT-2 generative speedup over GPU: {s}x (paper contrasts its 83.9x/114.9x)")?;
    }
    Ok(vec![json("asic_comparison", &rows)])
}
