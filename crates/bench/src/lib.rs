//! Harness that regenerates every table and figure of the paper.
//!
//! [`experiments`] holds one entry per table, figure or ablation (see
//! DESIGN.md §4 for the index); the `reproduce` binary prices their grid
//! cells once through [`run_grid`] and writes `results/`. [`run_grid`] is
//! also the grid engine behind `transpim-sim --all` and perfbench.

pub mod chart;
pub mod experiments;
pub mod fuzz;

use std::cell::RefCell;
use std::rc::Rc;
use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::{DataflowKind, SimReport};
use transpim::{ChromeTraceSink, FaultScenario, MetricsSink, SinkHandle};
use transpim_transformer::workload::Workload;

/// One cell of an evaluation grid: a full architecture configuration, a
/// dataflow, and a workload. Cells are independent simulations, which is
/// what makes the grid embarrassingly parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Architecture to simulate (carries stack count, ACU knobs, …).
    pub arch: ArchConfig,
    /// Dataflow mapping.
    pub dataflow: DataflowKind,
    /// Workload to run.
    pub workload: Workload,
}

impl GridCell {
    /// Cell for one of the eight named systems with `stacks` HBM stacks.
    pub fn system(
        kind: ArchKind,
        dataflow: DataflowKind,
        workload: &Workload,
        stacks: u32,
    ) -> Self {
        Self::custom(ArchConfig::new(kind).with_stacks(stacks), dataflow, workload)
    }

    /// Cell with an explicit [`ArchConfig`] (DSE sweeps over ACU knobs).
    pub fn custom(arch: ArchConfig, dataflow: DataflowKind, workload: &Workload) -> Self {
        Self { arch, dataflow, workload: workload.clone() }
    }
}

/// Result of one grid cell: the report plus the cell's private
/// observability sinks (present only when requested from [`run_grid`]).
#[derive(Debug)]
pub struct CellOutput {
    /// The simulation report.
    pub report: SimReport,
    /// Per-cell trace, when tracing was requested.
    pub trace: Option<ChromeTraceSink>,
    /// Per-cell metrics, when metrics were requested.
    pub metrics: Option<MetricsSink>,
}

/// Simulate every cell of `cells` on up to `jobs` pool workers and return
/// the outputs **in submission order** — output is independent of `jobs`.
///
/// Scheduling: cells sharing an `(arch, dataflow)` pair form one batch
/// (one pool job) so a single [`Executor`]'s schedule memo amortizes
/// across the batch — e.g. across the sequence lengths of a sweep. Every
/// cell runs fault-free, through [`Accelerator::simulate_on`] with an
/// empty scenario. With observability on, every cell gets private sinks,
/// so merging them in submission order reproduces a serial run's stream.
pub fn run_grid(
    jobs: usize,
    want_trace: bool,
    want_metrics: bool,
    cells: Vec<GridCell>,
) -> Vec<CellOutput> {
    let n = cells.len();
    // Batch cells by (arch, dataflow), preserving submission order within
    // each batch and across batch creation (grids are small; linear scan).
    let mut batches: Vec<Vec<(usize, GridCell)>> = Vec::new();
    for (index, cell) in cells.into_iter().enumerate() {
        match batches.iter_mut().find(|batch| {
            let first = &batch[0].1;
            first.arch == cell.arch && first.dataflow == cell.dataflow
        }) {
            Some(batch) => batch.push((index, cell)),
            None => batches.push(vec![(index, cell)]),
        }
    }

    let pool_jobs: Vec<_> = batches
        .into_iter()
        .map(|batch| {
            move || {
                let mut warm: Option<Executor> = None;
                batch
                    .into_iter()
                    .map(|(index, cell)| {
                        let exec = warm.get_or_insert_with(|| Executor::new(cell.arch.clone()));
                        // Sinks live and die inside this worker thread: the
                        // Rc handles never cross threads, and the owned
                        // sinks travel back with the result.
                        let trace = want_trace.then(ChromeTraceSink::shared);
                        let metrics = want_metrics.then(MetricsSink::shared);
                        let sink = SinkHandle::fanout(vec![
                            trace.clone().map_or_else(SinkHandle::null, SinkHandle::from_shared),
                            metrics.clone().map_or_else(SinkHandle::null, SinkHandle::from_shared),
                        ]);
                        let report = Accelerator::new(cell.arch.clone())
                            .simulate_on(
                                exec,
                                &cell.workload,
                                cell.dataflow,
                                &FaultScenario::empty(0),
                                sink,
                            )
                            .expect("a fault-free simulation cannot fail");
                        let output =
                            CellOutput { report, trace: trace.map(own), metrics: metrics.map(own) };
                        (index, output)
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();

    let finished = transpim_par::run(jobs, pool_jobs);
    let mut out: Vec<Option<CellOutput>> = (0..n).map(|_| None).collect();
    for batch in finished {
        for (index, cell_output) in batch {
            out[index] = Some(cell_output);
        }
    }
    out.into_iter().map(|o| o.expect("every grid cell ran")).collect()
}

/// The sink a finished simulation released.
fn own<T>(shared: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(shared).ok().expect("simulation dropped its sink handle").into_inner()
}

/// All eight memory-based systems of Figure 10, in the paper's order.
pub fn all_systems() -> Vec<(DataflowKind, ArchKind)> {
    let mut v = Vec::new();
    for kind in ArchKind::ALL {
        for df in DataflowKind::ALL {
            v.push((df, kind));
        }
    }
    v
}
