//! Figure 10: performance and energy efficiency of every system on every
//! workload, normalized to the GPU baseline.
//!
//! Paper headline numbers this regenerates (shape, not absolutes):
//! Token-TransPIM is 22.1–114.9× faster than GPU, 8.7–57.4× faster than
//! TPU, 3.7× faster than Token-OriginalPIM, 9.1× faster than Token-NBP,
//! and 138.1–666.6× more energy-efficient than GPU.

use super::{json, rule, systems_on, Json};
use crate::{all_systems, GridCell};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::report::SimReport;
use transpim_baselines::gpu::PlatformModel;
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    workload: String,
    system: String,
    latency_ms: f64,
    speedup_vs_gpu: f64,
    gops: f64,
    gop_per_joule: f64,
    energy_eff_vs_gpu: f64,
}

pub(super) fn cells() -> Vec<GridCell> {
    systems_on(&Workload::paper_suite())
}

pub(super) fn render(reports: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    let gpu = PlatformModel::rtx_2080_ti();
    let tpu = PlatformModel::tpu_v3();
    let mut rows: Vec<Row> = Vec::new();
    let mut reports = reports.iter();

    writeln!(out, "Figure 10: performance and energy efficiency (normalized to GPU)")?;
    for w in Workload::paper_suite() {
        let gpu_s = gpu.batch_time_s(&w);
        let gpu_eff = gpu.gop_per_joule(&w);
        let tpu_s = tpu.batch_time_s(&w);
        rule(out, 100)?;
        writeln!(
            out,
            "{:<10} GPU {:>10.1} ms (1.00x, {:>7.2} GOP/J)   TPU {:>10.1} ms ({:.2}x)",
            w.name,
            gpu_s * 1e3,
            gpu_eff,
            tpu_s * 1e3,
            gpu_s / tpu_s
        )?;
        rows.push(Row {
            workload: w.name.clone(),
            system: "GPU".into(),
            latency_ms: gpu_s * 1e3,
            speedup_vs_gpu: 1.0,
            gops: gpu.throughput_gops(&w),
            gop_per_joule: gpu_eff,
            energy_eff_vs_gpu: 1.0,
        });
        rows.push(Row {
            workload: w.name.clone(),
            system: "TPU".into(),
            latency_ms: tpu_s * 1e3,
            speedup_vs_gpu: gpu_s / tpu_s,
            gops: tpu.throughput_gops(&w),
            gop_per_joule: tpu.gop_per_joule(&w),
            energy_eff_vs_gpu: tpu.gop_per_joule(&w) / gpu_eff,
        });

        for _ in all_systems() {
            let r = reports.next().expect("one report per grid cell");
            let speedup = gpu_s / (r.latency_ms() * 1e-3);
            let eff = r.gop_per_joule() / gpu_eff;
            writeln!(
                out,
                "  {:<22} {:>10.2} ms   {:>7.1}x speedup   {:>8.1} GOP/s   {:>7.1}x GOP/J",
                r.system,
                r.latency_ms(),
                speedup,
                r.throughput_gops(),
                eff
            )?;
            rows.push(Row {
                workload: w.name.clone(),
                system: r.system.clone(),
                latency_ms: r.latency_ms(),
                speedup_vs_gpu: speedup,
                gops: r.throughput_gops(),
                gop_per_joule: r.gop_per_joule(),
                energy_eff_vs_gpu: eff,
            });
        }

        // Bar chart of the speedups for this workload.
        let bars: Vec<(String, f64)> = rows
            .iter()
            .filter(|r| r.workload == w.name && r.system != "GPU")
            .map(|r| (r.system.clone(), r.speedup_vs_gpu))
            .collect();
        out.push_str(&crate::chart::bar_chart("  speedup vs GPU:", &bars, 48));

        // Headline ratios for this workload.
        let find = |sys: &str| {
            rows.iter()
                .filter(|r| r.workload == w.name && r.system == sys)
                .map(|r| r.latency_ms)
                .next()
                .unwrap_or(f64::NAN)
        };
        let tt = find("Token-TransPIM");
        writeln!(out, "  ratios: vs Token-OriginalPIM {:.2}x | vs Token-NBP {:.2}x | vs Layer-OriginalPIM {:.2}x | token/layer on TransPIM {:.2}x",
            find("Token-OriginalPIM") / tt,
            find("Token-NBP") / tt,
            find("Layer-OriginalPIM") / tt,
            find("Layer-TransPIM") / tt,
        )?;
    }
    Ok(vec![json("fig10_performance", &rows)])
}
