//! Figure 13: design-space exploration of the ACU on BERT.
//!
//! (a) Adder-tree parallelism `P_add` 1→16: reduction latency drops up to
//!     10.8× and reduction energy up to 5.7× in the paper.
//! (b) ACUs per bank `P_sub`: execution time vs area overhead; the paper
//!     picks `P_sub = 8–16` because `P_sub = 64` costs 15.8% area for 5.4×.

use super::{json, Json};
use crate::GridCell;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::{DataflowKind, SimReport};
use transpim_acu::adder_tree::{AcuParams, AcuReduceModel};
use transpim_acu::area::AreaModel;
use transpim_hbm::config::HbmConfig;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct PaddRow {
    p_add: u32,
    reduce_latency_ns: f64,
    reduce_energy_pj: f64,
    latency_vs_p1: f64,
    energy_vs_p1: f64,
    workload_latency_ms: f64,
}

#[derive(Serialize)]
struct PsubRow {
    p_sub: u32,
    workload_latency_ms: f64,
    speedup_vs_p1: f64,
    area_overhead_percent: f64,
}

fn bert_workload() -> Workload {
    // BERT at a 4 K context: the P_add knob only bites when the reduced
    // vectors exceed 256·P_add elements, i.e. on long Softmax rows.
    let mut w = Workload::synthetic_roberta(4096);
    w.name = "BERT-4096".into();
    w.model = transpim_transformer::model::ModelConfig::bert_base();
    w
}

const P_ADD_SWEEP: [u32; 5] = [1, 2, 4, 8, 16];
const P_SUB_SWEEP: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Every end-to-end simulation of both sweeps: the P_add cells, then the
/// P_sub cells.
pub(super) fn cells() -> Vec<GridCell> {
    let w = bert_workload();
    let acu = |p_sub, p_add| {
        let arch = ArchConfig::new(ArchKind::TransPim).with_acu(p_sub, p_add);
        GridCell::custom(arch, DataflowKind::Token, &w)
    };
    let p_add = P_ADD_SWEEP.map(|p_add| acu(16, p_add));
    p_add.into_iter().chain(P_SUB_SWEEP.map(|p_sub| acu(p_sub, 4))).collect()
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    let hbm = HbmConfig::default();
    let mut reports = reports.iter();

    writeln!(
        out,
        "Figure 13(a): adder-tree parallelism P_add (BERT, 4096-long Softmax reductions)"
    )?;
    let base = AcuReduceModel::new(
        hbm.geometry,
        hbm.timing,
        hbm.energy,
        AcuParams { p_add: 1, ..AcuParams::default() },
    );
    let (l1, e1) = (base.vector_latency_ns(4096, 16), base.energy_pj(4096, 16, 1));
    let mut padd_rows = Vec::new();
    for p_add in P_ADD_SWEEP {
        let m = AcuReduceModel::new(
            hbm.geometry,
            hbm.timing,
            hbm.energy,
            AcuParams { p_add, ..AcuParams::default() },
        );
        let lat = m.vector_latency_ns(4096, 16);
        let pj = m.energy_pj(4096, 16, 1);
        let report = reports.next().expect("one report per P_add cell");
        let row = PaddRow {
            p_add,
            reduce_latency_ns: lat,
            reduce_energy_pj: pj,
            latency_vs_p1: l1 / lat,
            energy_vs_p1: e1 / pj,
            workload_latency_ms: report.latency_ms(),
        };
        writeln!(out, "  P_add={:<3} reduce {:>8.1} ns ({:>5.2}x vs 1)   energy {:>8.1} pJ ({:>5.2}x)   end-to-end {:>9.2} ms",
            p_add, lat, row.latency_vs_p1, pj, row.energy_vs_p1, row.workload_latency_ms
        )?;
        padd_rows.push(row);
    }

    writeln!(out)?;
    writeln!(out, "Figure 13(b): ACUs per bank P_sub vs execution time and area")?;
    let mut psub_rows = Vec::new();
    // P_SUB_SWEEP starts at 1, so its first report is the baseline.
    let base_lat = reports.clone().next().expect("P_sub = 1 report").latency_ms();
    for p_sub in P_SUB_SWEEP {
        let report = reports.next().expect("one report per P_sub cell");
        let area = AreaModel::new(p_sub, 4);
        let row = PsubRow {
            p_sub,
            workload_latency_ms: report.latency_ms(),
            speedup_vs_p1: base_lat / report.latency_ms(),
            area_overhead_percent: 100.0 * area.overhead_fraction(),
        };
        writeln!(
            out,
            "  P_sub={:<3} latency {:>9.2} ms  speedup {:>5.2}x vs P_sub=1  area overhead {:>5.2}%",
            p_sub, row.workload_latency_ms, row.speedup_vs_p1, row.area_overhead_percent
        )?;
        psub_rows.push(row);
    }

    Ok(vec![json("fig13a_padd", &padd_rows), json("fig13b_psub", &psub_rows)])
}
