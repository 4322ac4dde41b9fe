//! The job pool must be a pure wall-clock optimization: every `--jobs`
//! level yields byte-identical reports, metrics, and traces, because
//! `run_grid` returns cells in submission order and per-cell sinks merge
//! in that same order. These tests pin that contract at the library level;
//! `scripts/check.sh` runs them as a named gate.

use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::DataflowKind;
use transpim_bench::{run_grid, GridCell};
use transpim_obs::{ChromeTraceSink, MetricsSink};
use transpim_transformer::workload::Workload;

/// A small but non-trivial grid: two lengths × two stack counts × two
/// architectures × both dataflows — enough cells to exercise batching,
/// executor reuse, and out-of-order completion under the pool.
fn grid() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for l in [96usize, 192] {
        let mut w = Workload::synthetic_roberta(l);
        w.model.encoder_layers = 1;
        for stacks in [1u32, 2] {
            for kind in [ArchKind::TransPim, ArchKind::Nbp] {
                for df in DataflowKind::ALL {
                    cells.push(GridCell::custom(ArchConfig::new(kind).with_stacks(stacks), df, &w));
                }
            }
        }
    }
    cells
}

/// Render everything an observed grid run can emit — per-cell report JSON,
/// the merged metrics document, and the merged trace document — as one
/// string, so equality means byte-identical files on disk.
fn render(jobs: usize) -> String {
    let outputs = run_grid(jobs, true, true, grid());
    let mut merged_metrics = MetricsSink::new();
    let mut merged_trace = ChromeTraceSink::new();
    let mut doc = String::new();
    for output in outputs {
        doc.push_str(&output.report.to_json().expect("serialize report"));
        doc.push('\n');
        merged_metrics.merge(output.metrics.expect("metrics requested"));
        merged_trace.absorb(output.trace.expect("trace requested"));
    }
    doc.push_str(&merged_metrics.to_json_string().expect("serialize metrics"));
    doc.push('\n');
    doc.push_str(&merged_metrics.to_csv_string());
    doc.push('\n');
    doc.push_str(&merged_trace.to_json_string().expect("serialize trace"));
    doc
}

#[test]
fn grid_output_is_independent_of_job_count() {
    let serial = render(1);
    for jobs in [2, 8] {
        assert_eq!(serial, render(jobs), "jobs={jobs} diverged from jobs=1");
    }
}

#[test]
fn unobserved_grid_reports_are_independent_of_job_count() {
    // The sink-free path takes the executor-reuse branch; it must price
    // identically at any width too.
    let reports = |jobs: usize| {
        run_grid(jobs, false, false, grid())
            .into_iter()
            .map(|o| o.report.to_json().expect("serialize report"))
            .collect::<Vec<_>>()
    };
    assert_eq!(reports(1), reports(6));
}
