//! Figure 11: performance breakdown.
//!
//! (a) Per-system operation breakdown (data movement / non-reduction
//!     arithmetic / reduction / other) and the Section V-C utilization
//!     numbers (paper: Token-TransPIM 45.8%, Layer-TransPIM 30.8%,
//!     Token-OriginalPIM 47.7%, Token-NBP 89.5%).
//! (b) Layer-wise breakdown for Pegasus summarization at 4 K (PubMed) and
//!     a synthetic 32 K sequence, normalized to Token-TransPIM.

use super::{json, rule, systems_on, Json};
use crate::{all_systems, GridCell};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::report::SimReport;
use transpim_hbm::stats::Category;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct SystemRow {
    workload: String,
    system: String,
    movement: f64,
    arithmetic: f64,
    reduction: f64,
    other: f64,
    utilization: f64,
    latency_ms: f64,
}

#[derive(Serialize)]
struct LayerRow {
    workload: String,
    system: String,
    scope: String,
    movement_ms: f64,
    compute_ms: f64,
    total_norm: f64,
}

fn workloads_a() -> [Workload; 3] {
    [Workload::imdb(), Workload::pubmed(), Workload::lm()]
}

fn workloads_b() -> [Workload; 2] {
    [Workload::pubmed(), Workload::synthetic_pegasus(32 * 1024)]
}

/// The eight systems on part (a)'s workloads, then on part (b)'s.
pub(super) fn cells() -> Vec<GridCell> {
    systems_on(&[workloads_a().as_slice(), &workloads_b()].concat())
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    let mut reports = reports.iter();
    let mut rows = Vec::new();
    writeln!(out, "Figure 11(a): operation breakdown per system")?;
    for w in &workloads_a() {
        rule(out, 96)?;
        for _ in all_systems() {
            let r = reports.next().expect("one report per grid cell");
            let row = SystemRow {
                workload: w.name.clone(),
                system: r.system.clone(),
                movement: r.fraction(Category::DataMovement),
                arithmetic: r.fraction(Category::Arithmetic),
                reduction: r.fraction(Category::Reduction),
                other: r.fraction(Category::Other),
                utilization: r.utilization(),
                latency_ms: r.latency_ms(),
            };
            writeln!(out, "{:<10} {:<22} move {:>5.1}%  arith {:>5.1}%  red {:>5.1}%  other {:>5.1}%  util {:>5.1}%  ({:>10.2} ms)",
                row.workload,
                row.system,
                100.0 * row.movement,
                100.0 * row.arithmetic,
                100.0 * row.reduction,
                100.0 * row.other,
                100.0 * row.utilization,
                row.latency_ms
            )?;
            rows.push(row);
        }
    }

    // Stacked bars of the IMDB breakdown (Figure 11(a) visual).
    let cats = [("movement", 'm'), ("arith", 'a'), ("reduce", 'r'), ("other", 'o')];
    let bars: Vec<(String, Vec<f64>)> = rows
        .iter()
        .filter(|r| r.workload == "IMDB")
        .map(|r| (r.system.clone(), vec![r.movement, r.arithmetic, r.reduction, r.other]))
        .collect();
    out.push_str(&crate::chart::stacked_chart("\nIMDB breakdown:", &cats, &bars, 60));

    // Headline ratios (Section V-C): reduction-time and movement-time gaps.
    let pick = |sys: &str, wl: &str| {
        rows.iter().find(|r| r.system == sys && r.workload == wl).expect("system row")
    };
    for wl in ["IMDB", "PubMed"] {
        let tt = pick("Token-TransPIM", wl);
        let tp = pick("Token-OriginalPIM", wl);
        let tn = pick("Token-NBP", wl);
        let red = |r: &SystemRow| r.reduction * r.latency_ms;
        let mov = |r: &SystemRow| r.movement * r.latency_ms;
        writeln!(
            out,
            "{wl}: reduction time vs PIM-only {:.1}x, vs NBP {:.1}x; movement vs PIM-only {:.1}x",
            red(tp) / red(tt).max(1e-12),
            red(tn) / red(tt).max(1e-12),
            mov(tp) / mov(tt).max(1e-12),
        )?;
    }

    writeln!(out)?;
    writeln!(out, "Figure 11(b): layer-wise breakdown (normalized to Token-TransPIM total)")?;
    let mut layer_rows = Vec::new();
    for w in &workloads_b() {
        let base = reports.clone().take(all_systems().len()).find(|r| r.system == "Token-TransPIM");
        let base_total = base.expect("Token-TransPIM report").stats.latency_ns;
        rule(out, 96)?;
        for _ in all_systems() {
            let r = reports.next().expect("one report per grid cell");
            for (scope, s) in r.scoped.iter() {
                let row = LayerRow {
                    workload: w.name.clone(),
                    system: r.system.clone(),
                    scope: scope.to_owned(),
                    movement_ms: s.time_ns[Category::DataMovement.index()] * 1e-6,
                    compute_ms: (s.time_ns[Category::Arithmetic.index()]
                        + s.time_ns[Category::Reduction.index()])
                        * 1e-6,
                    total_norm: s.latency_ns / base_total,
                };
                if row.total_norm > 0.001 {
                    writeln!(out, "{:<14} {:<22} {:<12} move {:>9.2} ms  compute {:>9.2} ms  ({:>6.3} of Token-TransPIM)",
                        row.workload, row.system, row.scope, row.movement_ms, row.compute_ms, row.total_norm
                    )?;
                }
                layer_rows.push(row);
            }
        }
    }

    Ok(vec![json("fig11_breakdown", &rows), json("fig11_layerwise", &layer_rows)])
}
