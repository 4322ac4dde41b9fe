//! Shared harness for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index), printing the same rows/series the
//! paper reports and writing a JSON dump alongside for EXPERIMENTS.md.
//!
//! Observability: every binary that routes its simulations through
//! [`ObsSession`] accepts `--trace <PATH>` (Chrome-tracing timeline) and
//! `--metrics <PATH>` (flat JSON/CSV aggregates) without any per-binary
//! flag handling. Diagnostics that are not table output go through
//! [`note`]; set `TRANSPIM_BENCH_QUIET=1` to silence them in scripts.

pub mod chart;
pub mod fuzz;

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::{DataflowKind, SimReport};
use transpim::{ChromeTraceSink, FaultScenario, MetricsSink, SinkHandle};
use transpim_transformer::workload::Workload;

/// Simulate one `dataflow`-`arch` system on `workload` with `stacks` HBM
/// stacks.
pub fn run_system(
    kind: ArchKind,
    dataflow: DataflowKind,
    workload: &Workload,
    stacks: u32,
) -> SimReport {
    Accelerator::new(ArchConfig::new(kind).with_stacks(stacks)).simulate(workload, dataflow)
}

/// One cell of an evaluation grid: a full architecture configuration, a
/// dataflow, and a workload. Cells are independent simulations, which is
/// what makes the grid embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Architecture to simulate (carries stack count, ACU knobs, …).
    pub arch: ArchConfig,
    /// Dataflow mapping.
    pub dataflow: DataflowKind,
    /// Workload to run.
    pub workload: Workload,
}

impl GridCell {
    /// Cell for one of the eight named systems, like [`run_system`].
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

/// Remove `--jobs N` from `args` and return the worker count — defaulting
/// to [`transpim_par::max_threads`] (`TRANSPIM_THREADS` or the machine's
/// parallelism) when the flag is absent.
pub fn jobs_from_args(args: &mut Vec<String>) -> Result<usize, String> {
    match args.iter().position(|a| a == "--jobs") {
        None => Ok(transpim_par::max_threads()),
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            let value = args.remove(i);
            match value.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("--jobs needs a positive integer, got '{value}'")),
            }
        }
        Some(_) => Err("--jobs requires a value".into()),
    }
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

/// Print a harness diagnostic to stderr, bracketed so it is visually
/// distinct from table output. Every non-table diagnostic of the bench
/// binaries goes through here — set `TRANSPIM_BENCH_QUIET=1` to silence
/// them all (e.g. when piping a binary's stdout *and* stderr to a file).
pub fn note(msg: impl AsRef<str>) {
    if std::env::var_os("TRANSPIM_BENCH_QUIET").is_none() {
        eprintln!("[{}]", msg.as_ref());
    }
}

/// Write a serializable value as pretty JSON next to the binaries.
///
/// # Panics
///
/// Panics on I/O or serialization failure (these binaries are harness
/// tools; failing loudly is correct).
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, json).expect("write results file");
    note(format!("results written to {}", path.display()));
}

/// Pretty horizontal rule for table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Observability options shared by the bench binaries.
///
/// [`ObsSession::extract`] pulls `--trace <PATH>` and `--metrics <PATH>`
/// out of an argument vector; [`ObsSession::sink`] hands the attached
/// sinks to each simulation; [`ObsSession::finish`] writes the collected
/// artifacts. With neither flag present every call is a no-op on a null
/// sink.
#[derive(Debug, Default)]
pub struct ObsSession {
    trace: Option<(String, Rc<RefCell<ChromeTraceSink>>)>,
    metrics: Option<(String, Rc<RefCell<MetricsSink>>)>,
}

impl ObsSession {
    /// Remove `--trace <PATH>` / `--metrics <PATH>` from `args` and build
    /// the corresponding session. Unrelated arguments are left in place
    /// for the binary's own parser.
    pub fn extract(args: &mut Vec<String>) -> Result<Self, String> {
        let mut session = Self::default();
        let mut take = |flag: &str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) if i + 1 < args.len() => {
                    args.remove(i);
                    Ok(Some(args.remove(i)))
                }
                Some(_) => Err(format!("{flag} requires a value")),
            }
        };
        if let Some(path) = take("--trace")? {
            session.trace = Some((path, ChromeTraceSink::shared()));
        }
        if let Some(path) = take("--metrics")? {
            session.metrics = Some((path, MetricsSink::shared()));
        }
        Ok(session)
    }

    /// The sink handle to attach to a simulation — null when no
    /// observability output was requested.
    pub fn sink(&self) -> SinkHandle {
        SinkHandle::fanout(vec![
            self.trace
                .as_ref()
                .map_or_else(SinkHandle::null, |(_, c)| SinkHandle::from_shared(c.clone())),
            self.metrics
                .as_ref()
                .map_or_else(SinkHandle::null, |(_, m)| SinkHandle::from_shared(m.clone())),
        ])
    }

    /// Whether `--trace` was requested.
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether `--metrics` was requested.
    pub fn wants_metrics(&self) -> bool {
        self.metrics.is_some()
    }

    /// Run `cells` on the pool ([`run_grid`]) and fold each cell's private
    /// sinks into this session **in submission order**, so the artifacts
    /// [`ObsSession::finish`] writes are byte-identical to a serial run
    /// over the same grid, at any `jobs` count. Returns the reports in
    /// submission order.
    pub fn run_grid(&self, jobs: usize, cells: Vec<GridCell>) -> Vec<SimReport> {
        let outputs = run_grid(jobs, self.wants_trace(), self.wants_metrics(), cells);
        let mut reports = Vec::with_capacity(outputs.len());
        for output in outputs {
            if let (Some((_, shared)), Some(cell_trace)) = (&self.trace, output.trace) {
                shared.borrow_mut().absorb(cell_trace);
            }
            if let (Some((_, shared)), Some(cell_metrics)) = (&self.metrics, output.metrics) {
                shared.borrow_mut().merge(cell_metrics);
            }
            reports.push(output.report);
        }
        reports
    }

    /// Record a scalar alongside the span/counter aggregates (no-op
    /// without `--metrics`).
    pub fn push_metric(&self, key: impl Into<String>, value: f64) {
        if let Some((_, m)) = &self.metrics {
            m.borrow_mut().push_metric(key, value);
        }
    }

    /// Write the requested artifacts.
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure, like [`write_json`].
    pub fn finish(&self) {
        if let Some((path, c)) = &self.trace {
            c.borrow().write_to(path).expect("write trace file");
            note(format!("trace written to {path} — open in chrome://tracing or Perfetto"));
        }
        if let Some((path, m)) = &self.metrics {
            m.borrow().write_to(path).expect("write metrics file");
            note(format!("metrics written to {path}"));
        }
    }
}
