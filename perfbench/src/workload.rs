//! The four workloads, their requests, and the seeded inputs.
//!
//! A request is what one user of the simulator waits for: one or more
//! simulations plus their report JSON (and, for `traced-lm`, the trace and
//! metrics documents). Requests are cold — every simulation builds a fresh
//! executor — because every command-line run pays that cost.

use crate::rng::Rng;
use crate::span::Recorder;
use std::cell::RefCell;
use std::rc::Rc;
use transpim::exec::Executor;
use transpim::fault::{EccScheme, Fault, FaultScenario, FaultSession, SystemInfo};
use transpim::{
    Accelerator, ArchConfig, ArchKind, ChromeTraceSink, DataflowKind, FanoutSink, MetricsSink,
    SimReport, SinkHandle,
};
use transpim_bench::{all_systems, run_grid, GridCell};
use transpim_dataflow::ir::{BankRange, Program};
use transpim_dataflow::{layer_flow, token_flow};
use transpim_transformer::workload::Workload;

/// The seed the reference's degraded values were generated at.
pub const DEFAULT_SEED: u64 = 1;
/// Pool workers for the paper grid (the host has two CPUs).
pub const GRID_JOBS: usize = 2;
/// Generated tokens of the long-generation workloads.
const LONG_DECODE: usize = 4096;
/// Stuck bit-planes on the one faulty bank (of 64 subarrays).
const STUCK_PLANES: u32 = 8;
/// Transient flip rate of the degraded scenario, per GiB moved.
const FLIPS_PER_GIB: f64 = 1e-3;

/// Random-stream ids, so request order and scenario draw independently.
const ORDER_STREAM: u64 = 1;
const SCENARIO_STREAM: u64 = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// GPT-2-medium, L = 1024, decode 4096, Token and Layer on TransPIM.
    Decode4k,
    /// Figure 10: 5 workloads × 4 architectures × 2 dataflows on the pool.
    PaperGrid,
    /// `transpim-sim --workload lm --trace --metrics`, in memory.
    TracedLm,
    /// `decode-4k` under a seeded fault scenario.
    Degraded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Decode4k, Kind::PaperGrid, Kind::TracedLm, Kind::Degraded];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Decode4k => "decode-4k",
            Kind::PaperGrid => "paper-grid",
            Kind::TracedLm => "traced-lm",
            Kind::Degraded => "degraded",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One simulation of a request.
#[derive(Debug, Clone)]
pub struct Cell {
    pub arch: ArchConfig,
    pub dataflow: DataflowKind,
    pub workload: Workload,
}

impl Cell {
    fn new(kind: ArchKind, dataflow: DataflowKind, workload: &Workload) -> Self {
        Self { arch: ArchConfig::new(kind), dataflow, workload: workload.clone() }
    }

    /// `Token-TransPIM/LM`.
    pub fn system(&self) -> String {
        format!("{}/{}", self.arch.system_label(self.dataflow.label()), self.workload.name)
    }

    /// Bank count the program is compiled for.
    fn banks(&self) -> u32 {
        self.arch.hbm.geometry.total_banks()
    }

    /// The fault-session view of the geometry.
    fn system_info(&self) -> SystemInfo {
        let g = &self.arch.hbm.geometry;
        SystemInfo {
            total_banks: g.total_banks(),
            total_groups: g.total_groups(),
            subarrays_per_bank: g.subarrays_per_bank,
        }
    }

    fn compile(&self, banks: u32) -> Program {
        match self.dataflow {
            DataflowKind::Token => token_flow::compile(&self.workload, banks),
            DataflowKind::Layer => layer_flow::compile(&self.workload, banks),
        }
    }

    fn report(
        &self,
        stats_scoped: (transpim_hbm::stats::SimStats, transpim_hbm::stats::ScopedStats),
    ) -> SimReport {
        let (stats, scoped) = stats_scoped;
        SimReport {
            system: self.arch.system_label(self.dataflow.label()),
            arch: self.arch.kind,
            dataflow: self.dataflow,
            workload: self.workload.name.clone(),
            stats,
            scoped,
            total_ops: self.workload.total_ops(),
            batch: self.workload.batch,
            faults: None,
        }
    }
}

/// A workload's fixed inputs: its cells, and the fault scenario the seed
/// generated.
#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub cells: Vec<Cell>,
    pub scenario: Option<FaultScenario>,
    order: Rng,
}

/// The seeded fault scenario of `degraded`: SECDED, transient flips, and
/// one each of failed bank, dead link, stuck-plane bank and broken
/// divider, at seed-chosen locations.
pub fn scenario(seed: u64, arch: &ArchConfig) -> FaultScenario {
    let g = &arch.hbm.geometry;
    let (banks, groups) = (g.total_banks(), g.total_groups());
    let mut rng = Rng::new(seed, SCENARIO_STREAM);
    let flip_seed = rng.next_u64();
    FaultScenario {
        seed: flip_seed,
        ecc: EccScheme::Secded,
        faults: vec![
            Fault::FailedBank { bank: rng.below(banks) },
            Fault::DeadLink { group: rng.below(groups) },
            Fault::StuckBitPlanes { bank: rng.below(banks), planes: STUCK_PLANES },
            Fault::BrokenDivider { bank: rng.below(banks) },
            Fault::TransientFlips { per_gib: FLIPS_PER_GIB },
        ],
    }
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut long = Workload::lm();
        long.decode_len = LONG_DECODE;
        let both = |w: &Workload| {
            vec![
                Cell::new(ArchKind::TransPim, DataflowKind::Token, w),
                Cell::new(ArchKind::TransPim, DataflowKind::Layer, w),
            ]
        };
        let cells = match kind {
            Kind::Decode4k | Kind::Degraded => both(&long),
            Kind::PaperGrid => Workload::paper_suite()
                .iter()
                .flat_map(|w| all_systems().into_iter().map(move |(df, k)| Cell::new(k, df, w)))
                .collect(),
            Kind::TracedLm => {
                vec![Cell::new(ArchKind::TransPim, DataflowKind::Token, &Workload::lm())]
            }
        };
        let scenario = (kind == Kind::Degraded).then(|| scenario(seed, &cells[0].arch));
        Self { kind, seed, cells, scenario, order: Rng::new(seed, ORDER_STREAM) }
    }

    /// Reference label of cell `i`: degraded cells depend on the seed.
    pub fn label(&self, i: usize) -> String {
        match self.kind {
            Kind::Degraded => {
                format!("{}@{}/{}", self.kind.name(), self.seed, self.cells[i].system())
            }
            _ => format!("{}/{}", self.kind.name(), self.cells[i].system()),
        }
    }

    /// Whether cell labels must be present in the reference.
    pub fn needs_reference(&self) -> bool {
        self.kind != Kind::Degraded || self.seed == DEFAULT_SEED
    }

    /// Simulations per request.
    pub fn sims(&self) -> usize {
        self.cells.len()
    }

    /// CPUs a request keeps busy.
    pub fn threads(&self) -> usize {
        if self.kind == Kind::PaperGrid {
            GRID_JOBS
        } else {
            1
        }
    }

    /// The order of the next request's cells, drawn from the seed.
    pub fn next_order(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        self.order.shuffle(&mut order);
        order
    }
}

/// One simulation's output.
#[derive(Debug)]
pub struct SimOut {
    pub cell: usize,
    pub report: SimReport,
    pub json: String,
}

/// The trace and metrics documents of a traced request.
#[derive(Debug)]
pub struct TraceOut {
    pub events: usize,
    pub trace_json: String,
    pub metrics: MetricsSink,
    pub metrics_json: String,
}

/// A request's output, with simulations in cell order.
#[derive(Debug)]
pub struct RequestOut {
    pub sims: Vec<SimOut>,
    pub trace: Option<TraceOut>,
}

impl RequestOut {
    fn new(mut sims: Vec<SimOut>, trace: Option<TraceOut>) -> Self {
        sims.sort_by_key(|s| s.cell);
        Self { sims, trace }
    }

    /// Bytes of report, trace and metrics text produced.
    pub fn output_bytes(&self) -> usize {
        let reports: usize = self.sims.iter().map(|s| s.json.len()).sum();
        reports + self.trace.as_ref().map_or(0, |t| t.trace_json.len() + t.metrics_json.len())
    }
}

fn to_json(report: &SimReport) -> Result<String, String> {
    report.to_json().map_err(|e| format!("{}: report serialization: {e}", report.system))
}

/// Headline figures `transpim-sim --metrics` adds to the span aggregates.
fn push_headline_metrics(m: &mut MetricsSink, report: &SimReport) {
    m.push_metric("report.latency_ms", report.latency_ms());
    m.push_metric("report.energy_mj", report.stats.total_energy_pj() * 1e-9);
    m.push_metric("report.bytes_moved", report.stats.bytes_moved);
    m.push_metric("report.utilization", report.utilization());
}

/// Chrome and metrics sinks fanned out, as `--trace --metrics` attaches.
fn traced_sinks() -> (Rc<RefCell<ChromeTraceSink>>, Rc<RefCell<MetricsSink>>, SinkHandle) {
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let sink = SinkHandle::new(FanoutSink::new(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    (chrome, metrics, sink)
}

fn own<T>(rc: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(rc).ok().expect("the simulation released its sink").into_inner()
}

/// Run one request exactly as a user of the simulator would, through the
/// top-level entry points.
pub fn run_request(plan: &Plan, order: &[usize]) -> Result<RequestOut, String> {
    run_request_on(plan, order, GRID_JOBS)
}

/// [`run_request`] with the paper grid on `jobs` pool workers.
fn run_request_on(plan: &Plan, order: &[usize], jobs: usize) -> Result<RequestOut, String> {
    match plan.kind {
        Kind::PaperGrid => {
            let cells: Vec<GridCell> = order
                .iter()
                .map(|&i| {
                    let c = &plan.cells[i];
                    GridCell::custom(c.arch.clone(), c.dataflow, &c.workload)
                })
                .collect();
            let outputs = run_grid(jobs, false, false, cells);
            let sims = outputs
                .into_iter()
                .zip(order)
                .map(|(o, &cell)| Ok(SimOut { cell, json: to_json(&o.report)?, report: o.report }))
                .collect::<Result<_, String>>()?;
            Ok(RequestOut::new(sims, None))
        }
        Kind::TracedLm => {
            let cell = &plan.cells[0];
            let (chrome, metrics, sink) = traced_sinks();
            let report = Accelerator::new(cell.arch.clone()).simulate_with_sink(
                &cell.workload,
                cell.dataflow,
                sink,
            );
            push_headline_metrics(&mut metrics.borrow_mut(), &report);
            let trace_json = chrome.borrow().to_json_string().map_err(|e| format!("trace: {e}"))?;
            let metrics_json =
                metrics.borrow().to_json_string().map_err(|e| format!("metrics: {e}"))?;
            let json = to_json(&report)?;
            let trace = TraceOut {
                events: chrome.borrow().len(),
                trace_json,
                metrics: own(metrics),
                metrics_json,
            };
            Ok(RequestOut::new(vec![SimOut { cell: 0, report, json }], Some(trace)))
        }
        Kind::Decode4k | Kind::Degraded => {
            let sims = order
                .iter()
                .map(|&i| {
                    let c = &plan.cells[i];
                    let acc = Accelerator::new(c.arch.clone());
                    let report = match &plan.scenario {
                        Some(s) => acc
                            .simulate_degraded(&c.workload, c.dataflow, s)
                            .map_err(|e| format!("{}: {e}", c.system()))?,
                        None => acc.simulate(&c.workload, c.dataflow),
                    };
                    Ok(SimOut { cell: i, json: to_json(&report)?, report })
                })
                .collect::<Result<_, String>>()?;
            Ok(RequestOut::new(sims, None))
        }
    }
}

/// Counts of one traced request, next to its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Compiled steps of the programs the request priced.
    pub steps: u64,
    /// Unrolled steps of those programs.
    pub unrolled_steps: u64,
    /// Unrolled steps of the fault-free programs priced cold.
    pub clean_unrolled_steps: u64,
    pub report_bytes: u64,
    pub ring_shapes: u64,
    pub tree_shapes: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    pub metrics_keys: u64,
    pub injected: u64,
    pub corrected: u64,
    pub uncorrectable: u64,
}

/// Distinct ring-step and reduction-tree shapes `(start, count, bytes)` of
/// a program as compiled (repeat bodies at iteration 0).
fn shapes(
    steps: &[transpim::Step],
    ring: &mut Vec<(u32, u32, u64)>,
    tree: &mut Vec<(u32, u32, u64)>,
) {
    use transpim::Step;
    for step in steps {
        match step {
            Step::RingBroadcast { banks, bytes_per_hop, .. } => {
                ring.push((banks.start, banks.count, *bytes_per_hop))
            }
            Step::PairwiseReduceTree { banks, bytes, .. } => {
                tree.push((banks.start, banks.count, *bytes))
            }
            Step::Repeat { body, .. } => shapes(body, ring, tree),
            _ => {}
        }
    }
}

/// Time cold ring-step and reduction-tree pricing over `program`'s
/// distinct shapes on a fresh executor.
fn acu_probe(rec: &mut Recorder, cell: &Cell, program: &Program, counts: &mut Counts) {
    let (mut ring, mut tree) = (Vec::new(), Vec::new());
    shapes(program.steps(), &mut ring, &mut tree);
    for v in [&mut ring, &mut tree] {
        v.sort_unstable();
        v.dedup();
    }
    counts.ring_shapes += ring.len() as u64;
    counts.tree_shapes += tree.len() as u64;
    let mut exec = Executor::new(cell.arch.clone());
    rec.span("acu.ring_step", |_| {
        for &(start, count, bytes) in &ring {
            std::hint::black_box(exec.ring_step_cost(BankRange::new(start, count), bytes));
        }
    });
    rec.span("acu.reduce_tree", |_| {
        for &(start, count, bytes) in &tree {
            std::hint::black_box(exec.reduce_tree_cost(BankRange::new(start, count), bytes));
        }
    });
}

/// Fault-free stages of one cell, each call into a crate in its own span:
/// compile, executor, price (with `sink`), report JSON. Returns the
/// executor and program for the warm-price probe.
fn clean_stages(
    rec: &mut Recorder,
    cell: &Cell,
    price_span: &'static str,
    sink: SinkHandle,
    counts: &mut Counts,
) -> Result<(SimOut, Executor, Program), String> {
    let program = rec.span("dataflow.compile", |_| cell.compile(cell.banks()));
    counts.steps += program.len() as u64;
    counts.unrolled_steps += program.unrolled_len();
    let mut exec = rec.span("transpim.executor_new", |_| Executor::new(cell.arch.clone()));
    let priced = rec.span(price_span, |_| exec.run_with_sink(&program, sink));
    let report = cell.report(priced);
    let json = rec.span("transpim.report_json", |_| to_json(&report))?;
    counts.report_bytes += json.len() as u64;
    Ok((SimOut { cell: 0, report, json }, exec, program))
}

/// Second run of `program` on `exec` (schedule caches warm); must price
/// exactly what the cold run priced.
fn warm_probe(
    rec: &mut Recorder,
    exec: &mut Executor,
    program: &Program,
    cold: &SimReport,
) -> Result<(), String> {
    let warm = rec.span("transpim.price_warm", |_| exec.run(program));
    if warm.0 != cold.stats || warm.1 != cold.scoped {
        return Err(format!("{}: warm pricing differs from cold pricing", cold.system));
    }
    Ok(())
}

/// A clean, cold, untraced price of `cell` for comparison with a traced or
/// degraded price of the same workload.
fn clean_probe(rec: &mut Recorder, cell: &Cell, counts: &mut Counts) -> Result<SimReport, String> {
    let program = rec.span("probe.compile", |_| cell.compile(cell.banks()));
    counts.clean_unrolled_steps += program.unrolled_len();
    let mut exec = rec.span("probe.executor_new", |_| Executor::new(cell.arch.clone()));
    let report = cell.report(rec.span("transpim.price", |_| exec.run(&program)));
    warm_probe(rec, &mut exec, &program, &report)?;
    acu_probe(rec, cell, &program, counts);
    Ok(report)
}

/// Null-path probes for the layers a workload does not use: an empty
/// fault session per cell, and serializing empty trace and metrics sinks.
fn idle_layer_probes(rec: &mut Recorder, plan: &Plan, counts: &mut Counts) -> Result<(), String> {
    if plan.scenario.is_none() {
        for cell in &plan.cells {
            let empty = FaultScenario::empty(plan.seed);
            rec.span("fault.session_new", |_| FaultSession::new(&empty, cell.system_info()))
                .map_err(|e| format!("empty fault session: {e}"))?;
        }
    }
    if plan.kind != Kind::TracedLm {
        let trace = rec.span("obs.trace_serialize", |_| ChromeTraceSink::new().to_json_string());
        let metrics = rec.span("obs.metrics_serialize", |_| MetricsSink::new().to_json_string());
        counts.trace_bytes += trace.map_err(|e| format!("trace: {e}"))?.len() as u64;
        metrics.map_err(|e| format!("metrics: {e}"))?;
    }
    Ok(())
}

/// Executors and programs the `e2e` stages leave for the probes.
type Kept = Vec<(usize, Executor, Program)>;

/// Run one request decomposed into calls on each crate's public functions,
/// each in a span. The `e2e` span holds exactly the work [`run_request`]
/// does, with one `cell` span per simulation; the `probes` span holds the
/// extra measurements (warm and clean prices, ring and tree shapes, the
/// serial pass of the grid, null-path probes of unused layers).
pub fn run_spanned(
    plan: &Plan,
    order: &[usize],
    rec: &mut Recorder,
) -> Result<(RequestOut, Counts), String> {
    let mut counts = Counts::default();
    rec.span("request", |rec| {
        let (out, kept) = rec.span("e2e", |rec| spanned_e2e(plan, order, rec, &mut counts))?;
        rec.span("probes", |rec| {
            spanned_probes(plan, order, &out, kept, rec, &mut counts)?;
            idle_layer_probes(rec, plan, &mut counts)
        })?;
        Ok((out, counts))
    })
}

fn spanned_e2e(
    plan: &Plan,
    order: &[usize],
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<(RequestOut, Kept), String> {
    let mut sims = Vec::new();
    let mut kept = Kept::new();
    match plan.kind {
        Kind::PaperGrid => return Ok((rec.span("par.grid", |_| run_request(plan, order))?, kept)),
        Kind::TracedLm => {
            let cell = &plan.cells[0];
            let (chrome, metrics, sink) = traced_sinks();
            let (sim, trace) = rec.span("cell", |rec| {
                let (sim, _, _) = clean_stages(rec, cell, "obs.traced_price", sink, counts)?;
                let trace_json = rec.span("obs.trace_serialize", |_| {
                    push_headline_metrics(&mut metrics.borrow_mut(), &sim.report);
                    chrome.borrow().to_json_string()
                });
                let metrics_json =
                    rec.span("obs.metrics_serialize", |_| metrics.borrow().to_json_string());
                let trace = TraceOut {
                    events: chrome.borrow().len(),
                    trace_json: trace_json.map_err(|e| format!("trace: {e}"))?,
                    metrics: own(metrics),
                    metrics_json: metrics_json.map_err(|e| format!("metrics: {e}"))?,
                };
                Ok::<_, String>((sim, trace))
            })?;
            counts.trace_events += trace.events as u64;
            counts.trace_bytes += trace.trace_json.len() as u64;
            counts.metrics_keys += trace.metrics.to_flat().len() as u64;
            return Ok((RequestOut::new(vec![sim], Some(trace)), kept));
        }
        Kind::Decode4k => {
            for &i in order {
                let cell = &plan.cells[i];
                let (mut sim, exec, program) = rec.span("cell", |rec| {
                    clean_stages(rec, cell, "transpim.price", SinkHandle::null(), counts)
                })?;
                counts.clean_unrolled_steps += program.unrolled_len();
                sim.cell = i;
                sims.push(sim);
                kept.push((i, exec, program));
            }
        }
        Kind::Degraded => {
            let scenario = plan.scenario.as_ref().expect("degraded plans carry a scenario");
            for &i in order {
                let cell = &plan.cells[i];
                let sim = rec.span("cell", |rec| {
                    let mut session = rec
                        .span("fault.session_new", |_| {
                            FaultSession::new(scenario, cell.system_info())
                        })
                        .map_err(|e| format!("{}: {e}", cell.system()))?;
                    let healthy = cell.banks() - session.failed_bank_count();
                    let program = rec.span("dataflow.compile", |_| cell.compile(healthy));
                    counts.steps += program.len() as u64;
                    counts.unrolled_steps += program.unrolled_len();
                    let mut exec = rec.span("transpim.executor_new", |_| {
                        let mut exec = Executor::new(cell.arch.clone());
                        exec.apply_ring_faults(&session);
                        exec
                    });
                    let priced = rec
                        .span("fault.price_degraded", |_| {
                            exec.run_degraded_with_sink(&program, &mut session, SinkHandle::null())
                        })
                        .map_err(|e| format!("{}: {e}", cell.system()))?;
                    let mut report = cell.report(priced);
                    report.faults = Some(session.stats());
                    let json = rec.span("transpim.report_json", |_| to_json(&report))?;
                    counts.report_bytes += json.len() as u64;
                    Ok::<_, String>(SimOut { cell: i, report, json })
                })?;
                let f = sim.report.faults.clone().unwrap_or_default();
                counts.injected += f.injected;
                counts.corrected += f.corrected;
                counts.uncorrectable += f.uncorrectable;
                sims.push(sim);
            }
        }
    }
    Ok((RequestOut::new(sims, None), kept))
}

fn spanned_probes(
    plan: &Plan,
    order: &[usize],
    out: &RequestOut,
    kept: Kept,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> Result<(), String> {
    match plan.kind {
        Kind::Decode4k => {
            for (i, mut exec, program) in kept {
                warm_probe(rec, &mut exec, &program, &out.sims[i].report)?;
                acu_probe(rec, &plan.cells[i], &program, counts);
            }
        }
        Kind::TracedLm => {
            // The traced run must price exactly what the untraced one does.
            let clean = clean_probe(rec, &plan.cells[0], counts)?;
            let traced = &out.sims[0].report;
            if clean.stats != traced.stats || clean.scoped != traced.scoped {
                return Err(format!("{}: traced statistics differ from untraced", traced.system));
            }
        }
        Kind::Degraded => {
            for &i in order {
                clean_probe(rec, &plan.cells[i], counts)?;
            }
        }
        // The grid on one worker, for the pool's efficiency; then every
        // cell's stages one after another, cold, for the per-crate times
        // the pool hides.
        Kind::PaperGrid => {
            let serial = rec.span("par.serial", |_| run_request_on(plan, order, 1))?;
            if serial.sims.iter().zip(&out.sims).any(|(a, b)| a.json != b.json) {
                return Err("the grid on one worker differs from the pooled grid".into());
            }
            for &i in order {
                let cell = &plan.cells[i];
                let (sim, mut exec, program) = rec.span("cell", |rec| {
                    clean_stages(rec, cell, "transpim.price", SinkHandle::null(), counts)
                })?;
                if sim.json != out.sims[i].json {
                    return Err(format!(
                        "{}: serial report differs from the pooled one",
                        cell.system()
                    ));
                }
                counts.clean_unrolled_steps += program.unrolled_len();
                warm_probe(rec, &mut exec, &program, &sim.report)?;
                acu_probe(rec, cell, &program, counts);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_the_identical_scenario_and_order() {
        let arch = ArchConfig::new(ArchKind::TransPim);
        assert_eq!(scenario(9, &arch), scenario(9, &arch));
        assert_ne!(scenario(9, &arch), scenario(10, &arch));
        let (mut a, mut b) = (Plan::new(Kind::Degraded, 9), Plan::new(Kind::Degraded, 9));
        assert_eq!(a.scenario, b.scenario);
        let orders = |p: &mut Plan| (0..8).map(|_| p.next_order()).collect::<Vec<_>>();
        assert_eq!(orders(&mut a), orders(&mut b));
    }

    #[test]
    fn generated_scenarios_are_valid_for_the_machine() {
        let cell = &Plan::new(Kind::Degraded, DEFAULT_SEED).cells[0];
        for seed in 0..64 {
            let s = scenario(seed, &cell.arch);
            assert_eq!(s.faults.len(), 5);
            FaultSession::new(&s, cell.system_info()).expect("every generated scenario validates");
        }
    }

    #[test]
    fn labels_name_the_seed_only_for_degraded_cells() {
        assert_eq!(Plan::new(Kind::Decode4k, 5).label(0), "decode-4k/Token-TransPIM/LM");
        assert_eq!(Plan::new(Kind::Degraded, 5).label(1), "degraded@5/Layer-TransPIM/LM");
        assert!(!Plan::new(Kind::Degraded, 5).needs_reference());
        assert!(Plan::new(Kind::Degraded, DEFAULT_SEED).needs_reference());
        assert_eq!(Plan::new(Kind::PaperGrid, 5).sims(), 40);
    }
}
