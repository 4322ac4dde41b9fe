//! `transpim-sim` — command-line driver for the TransPIM simulator.
//!
//! ```bash
//! # One system on one workload
//! cargo run --release --bin transpim-sim -- --workload pubmed --arch transpim --dataflow token
//!
//! # All eight memory-based systems
//! cargo run --release --bin transpim-sim -- --workload imdb --all
//!
//! # Custom shapes, JSON report, Chrome trace
//! cargo run --release --bin transpim-sim -- --workload pegasus:8192 --stacks 4 \
//!     --p-sub 32 --json report.json --trace trace.json
//! ```

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;
use transpim::accelerator::Accelerator;
use transpim::exec::Executor;
use transpim::report::SimReport;
use transpim::{ChromeTraceSink, FaultScenario, FaultSession, MetricsSink, SimError, SinkHandle};

/// Capacity checks: the batch's input must fit the memory (an error), the
/// token dataflow's per-bank working set should fit a bank (a warning).
mod transpim_repro_capacity {
    use transpim::arch::ArchConfig;
    use transpim_dataflow::footprint::token_flow_footprint;
    use transpim_dataflow::ir::Precision;
    use transpim_dataflow::sharding::Sharding;
    use transpim_transformer::workload::Workload;

    /// The batch's activations — every prompt and generated token at the
    /// activation width — must fit the memory system, or there is no
    /// mapping to price.
    pub fn fits(w: &Workload, arch: &ArchConfig) -> Result<(), String> {
        let tokens = w.batch as f64 * (w.seq_len as f64 + w.decode_len as f64);
        let bytes =
            tokens * w.model.d_model as f64 * f64::from(Precision::default().act_bits) / 8.0;
        let capacity = arch.hbm.geometry.capacity_bytes() as f64;
        if bytes <= capacity {
            return Ok(());
        }
        let gib = f64::from(1u32 << 30);
        Err(format!(
            "--batch {} x (--seq-len {} + --decode {}) tokens need {:.1} GiB of activations; \
             the memory holds {:.0} GiB",
            w.batch,
            w.seq_len,
            w.decode_len,
            bytes / gib,
            capacity / gib
        ))
    }

    pub fn check(w: &Workload, arch: &ArchConfig) {
        let banks = arch.hbm.geometry.total_banks();
        let sharding = Sharding::new(banks, w.batch as u32, w.seq_len as u32);
        let per_seq = u64::from(sharding.sequences[0].banks.count);
        let f = token_flow_footprint(
            &w.model,
            w.seq_len as u64,
            w.decode_len as u64,
            per_seq,
            Precision::default(),
        );
        let bank = arch.hbm.geometry.bank_bytes();
        if !f.fits(bank) {
            eprintln!(
                "warning: per-bank working set {:.1} MiB exceeds the {:.0} MiB bank \
                 (weights {:.1} + scores {:.1} MiB); results model an infeasible mapping \
                 — add stacks or shorten the sequence",
                f.total() as f64 / (1 << 20) as f64,
                bank as f64 / (1 << 20) as f64,
                f.weights as f64 / (1 << 20) as f64,
                f.scores as f64 / (1 << 20) as f64,
            );
        }
    }
}
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::DataflowKind;
use transpim_transformer::workload::Workload;

#[derive(Debug)]
struct Options {
    workload: Workload,
    arch: ArchKind,
    dataflow: DataflowKind,
    stacks: u32,
    p_sub: u32,
    p_add: u32,
    all: bool,
    json: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    dump_ir: Option<String>,
    faults: Option<String>,
}

const USAGE: &str = "\
transpim-sim — simulate Transformer inference on TransPIM and its baselines

USAGE:
  transpim-sim [OPTIONS]

OPTIONS:
  --workload <NAME>    imdb | triviaqa | pubmed | arxiv | lm |
                       roberta:<L> | pegasus:<L> | file:<PATH.json>
                                                          [default: imdb]
  --model <NAME>       override the model preset (roberta-base, bert-base,
                       bert-large, pegasus-base, pegasus-large, gpt2-small,
                       gpt2-medium, gpt2-large)
  --arch <ARCH>        transpim | transpim-nb | pim | nbp [default: transpim]
  --dataflow <FLOW>    token | layer                      [default: token]
  --stacks <N>         HBM stacks (1..)                   [default: 8]
  --p-sub <N>          ACUs per bank                      [default: 16]
  --p-add <N>          adder trees per ACU                [default: 4]
  --batch <N>          override batch size
  --seq-len <N>        override sequence length
  --decode <N>         override generated-token count
  --all                run all 8 dataflow×architecture systems, one after
                       another
  --json <PATH>        write the report(s) as JSON
  --trace <PATH>       write a Chrome-tracing timeline (open in
                       chrome://tracing or https://ui.perfetto.dev); with
                       --all, one file per system: PATH gains a
                       .<system> suffix before its extension
  --metrics <PATH>     write flat aggregated metrics (JSON, or CSV when
                       PATH ends in .csv); with --all, one suffixed file
                       per system
  --dump-ir <PATH>     write the compiled dataflow program as JSON; with
                       --all, one suffixed file per system
  --faults <PATH>      inject a fault scenario (JSON form of FaultScenario:
                       failed banks, stuck bit-planes, dead/degraded ring
                       links, transient flips, broken dividers) and run in
                       graceful-degradation mode; incompatible with --all
  --help               show this help
";

fn parse_workload(s: &str) -> Result<Workload, String> {
    if let Some(l) = s.strip_prefix("roberta:") {
        let l: usize = l.parse().map_err(|_| format!("bad length in '{s}'"))?;
        return Ok(Workload::synthetic_roberta(l));
    }
    if let Some(l) = s.strip_prefix("pegasus:") {
        let l: usize = l.parse().map_err(|_| format!("bad length in '{s}'"))?;
        return Ok(Workload::synthetic_pegasus(l));
    }
    if let Some(path) = s.strip_prefix("file:") {
        // Custom workload as JSON (the serde form of `Workload`).
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading workload file {path}: {e}"))?;
        return serde_json::from_str(&text)
            .map_err(|e| format!("parsing workload file {path}: {e}"));
    }
    match s {
        "imdb" => Ok(Workload::imdb()),
        "triviaqa" => Ok(Workload::triviaqa()),
        "pubmed" => Ok(Workload::pubmed()),
        "arxiv" => Ok(Workload::arxiv()),
        "lm" => Ok(Workload::lm()),
        _ => Err(format!("unknown workload '{s}'")),
    }
}

fn parse_arch(s: &str) -> Result<ArchKind, String> {
    match s {
        "transpim" => Ok(ArchKind::TransPim),
        "transpim-nb" | "nb" => Ok(ArchKind::TransPimNb),
        "pim" | "original-pim" => Ok(ArchKind::OriginalPim),
        "nbp" => Ok(ArchKind::Nbp),
        _ => Err(format!("unknown architecture '{s}'")),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: Workload::imdb(),
        arch: ArchKind::TransPim,
        dataflow: DataflowKind::Token,
        stacks: 8,
        p_sub: 16,
        p_add: 4,
        all: false,
        json: None,
        trace: None,
        metrics: None,
        dump_ir: None,
        faults: None,
    };
    let mut batch = None;
    let mut seq_len = None;
    let mut decode = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--workload" => o.workload = parse_workload(&value("--workload")?)?,
            "--model" => {
                let name = value("--model")?;
                o.workload.model = transpim_transformer::model::ModelConfig::by_name(&name)
                    .ok_or_else(|| format!("unknown model '{name}'"))?;
            }
            "--arch" => o.arch = parse_arch(&value("--arch")?)?,
            "--dataflow" => {
                o.dataflow = match value("--dataflow")?.as_str() {
                    "token" => DataflowKind::Token,
                    "layer" => DataflowKind::Layer,
                    other => return Err(format!("unknown dataflow '{other}'")),
                }
            }
            "--stacks" => {
                o.stacks = value("--stacks")?.parse().map_err(|e| format!("--stacks: {e}"))?
            }
            "--p-sub" => {
                o.p_sub = value("--p-sub")?.parse().map_err(|e| format!("--p-sub: {e}"))?
            }
            "--p-add" => {
                o.p_add = value("--p-add")?.parse().map_err(|e| format!("--p-add: {e}"))?
            }
            "--batch" => {
                batch = Some(value("--batch")?.parse().map_err(|e| format!("--batch: {e}"))?)
            }
            "--seq-len" => {
                seq_len = Some(value("--seq-len")?.parse().map_err(|e| format!("--seq-len: {e}"))?)
            }
            "--decode" => {
                decode = Some(value("--decode")?.parse().map_err(|e| format!("--decode: {e}"))?)
            }
            "--all" => o.all = true,
            "--json" => o.json = Some(value("--json")?),
            "--trace" => o.trace = Some(value("--trace")?),
            "--metrics" => o.metrics = Some(value("--metrics")?),
            "--dump-ir" => o.dump_ir = Some(value("--dump-ir")?),
            "--faults" => o.faults = Some(value("--faults")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if let Some(b) = batch {
        o.workload.batch = b;
    }
    if let Some(l) = seq_len {
        o.workload.seq_len = l;
    }
    if let Some(d) = decode {
        o.workload.decode_len = d;
    }
    if o.workload.batch == 0 || o.workload.seq_len == 0 {
        return Err("batch and seq-len must be positive".into());
    }
    if o.faults.is_some() && o.all {
        return Err("--faults runs one system at a time; drop --all".into());
    }
    Ok(o)
}

/// `trace.json` + `Token-TransPIM-NB` → `trace.token-transpim-nb.json`:
/// per-system output paths for `--all` runs.
fn suffixed(path: &str, system: &str) -> String {
    let slug: String = system
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{slug}.{ext}")
        }
        _ => format!("{path}.{slug}"),
    }
}

/// What degradation cost: the degraded run's latency (ns) and energy (pJ)
/// minus the fault-free run's.
#[derive(Clone, Copy)]
struct Overhead {
    latency_ns: f64,
    energy_pj: f64,
}

/// Headline report figures alongside the per-span aggregates.
fn push_headline_metrics(m: &mut MetricsSink, report: &SimReport, overhead: Option<Overhead>) {
    m.push_metric("report.latency_ms", report.latency_ms());
    m.push_metric("report.energy_mj", report.stats.total_energy_pj() * 1e-9);
    m.push_metric("report.bytes_moved", report.stats.bytes_moved);
    m.push_metric("report.utilization", report.utilization());
    if let Some(f) = &report.faults {
        m.push_metric("fault.injected", f.injected as f64);
        m.push_metric("fault.detected", f.detected as f64);
        m.push_metric("fault.corrected", f.corrected as f64);
    }
    if let Some(o) = overhead {
        m.push_metric("fault.overhead_latency_ns", o.latency_ns);
        m.push_metric("fault.overhead_energy_pj", o.energy_pj);
    }
}

/// Report `msg` as the run's error and end it with exit code 1.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(1)
}

/// Write `text` to stdout. A reader that closed early (a broken pipe) is
/// not an error: the run goes on without stdout and still writes its files.
fn print_stdout(text: &str) -> Result<(), ExitCode> {
    match io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(fail(format!("writing stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// One system's run: the IR dump, the simulation (and, when the scenario
/// injects faults, the fault-free run its overhead is measured against),
/// and the trace and metrics files. `--all` runs every system through
/// here, writing each file under a per-system suffix.
fn run_system(
    opts: &Options,
    arch: ArchConfig,
    dataflow: DataflowKind,
    scenario: &FaultScenario,
) -> Result<(SimReport, Option<Overhead>), ExitCode> {
    let system = arch.system_label(dataflow.label());
    let output = |path: &str| if opts.all { suffixed(path, &system) } else { path.to_owned() };
    let acc = Accelerator::new(arch);

    // Optional IR dump: the program that is priced, compiled over the
    // banks the scenario leaves healthy.
    if let Some(path) = &opts.dump_ir {
        let path = output(path);
        // The same error, and exit code, as the simulation's.
        let session = FaultSession::new(scenario, acc.arch().system_info())
            .map_err(|e| fail(SimError::from(e)))?;
        let prog = acc.compile_degraded(&opts.workload, dataflow, &session);
        let json = serde_json::to_string_pretty(&prog)
            .map_err(|e| fail(format!("serializing IR: {e}")))?;
        std::fs::write(&path, json).map_err(|e| fail(format!("writing {path}: {e}")))?;
        eprintln!("[IR with {} steps written to {path}]", prog.len());
    }

    // Attach observability sinks only for the outputs that were asked for;
    // with neither --trace nor --metrics the run carries a null sink and
    // pays nothing for instrumentation.
    let chrome = opts.trace.as_ref().map(|_| ChromeTraceSink::shared());
    let metrics = opts.metrics.as_ref().map(|_| MetricsSink::shared());
    let sink = SinkHandle::fanout(vec![
        chrome.clone().map_or_else(SinkHandle::null, SinkHandle::from_shared),
        metrics.clone().map_or_else(SinkHandle::null, SinkHandle::from_shared),
    ]);

    let simulate = |scenario: &FaultScenario, sink| {
        let mut exec = Executor::new(acc.arch().clone());
        acc.simulate_on(&mut exec, &opts.workload, dataflow, scenario, sink).map_err(|e| {
            eprintln!("error: {e}");
            // A workload too large for the statistics is bad input, like
            // an oversized batch; an uncorrectable fault is a result.
            ExitCode::from(if e == SimError::OutOfRange { 2 } else { 1 })
        })
    };
    let report = simulate(scenario, sink)?;
    // A degraded run's overhead is measured against the fault-free run,
    // priced only when there is a fault to account.
    let overhead = match &report.faults {
        Some(_) => {
            let clean = simulate(&FaultScenario::empty(0), SinkHandle::null())?;
            Some(Overhead {
                latency_ns: report.stats.latency_ns - clean.stats.latency_ns,
                energy_pj: report.stats.total_energy_pj() - clean.stats.total_energy_pj(),
            })
        }
        None => None,
    };

    if let (Some(path), Some(chrome)) = (&opts.trace, &chrome) {
        let path = output(path);
        chrome.borrow().write_to(&path).map_err(|e| fail(format!("writing {path}: {e}")))?;
        eprintln!("[trace written to {path} — open in chrome://tracing or Perfetto]");
    }
    if let (Some(path), Some(metrics)) = (&opts.metrics, &metrics) {
        let path = output(path);
        push_headline_metrics(&mut metrics.borrow_mut(), &report, overhead);
        metrics.borrow().write_to(&path).map_err(|e| fail(format!("writing {path}: {e}")))?;
        eprintln!("[metrics written to {path}]");
    }
    Ok((report, overhead))
}

/// A single run's stdout: the summary, the fault accounting of a degraded
/// run, and the per-scope breakdown.
fn detailed_summary(report: &SimReport, overhead: Option<Overhead>) -> String {
    let mut out = format!("{}\n", report.summary());
    if let (Some(f), Some(o)) = (&report.faults, overhead) {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "fault accounting: {} injected, {} detected, {} corrected, {} uncorrectable",
            f.injected, f.detected, f.corrected, f.uncorrectable
        );
        let _ = writeln!(
            out,
            "  degraded hardware: {} failed banks, {} stuck planes, {} dead links, \
             {} degraded links, {} broken dividers",
            f.failed_banks, f.stuck_planes, f.dead_links, f.degraded_links, f.broken_dividers
        );
        let _ = writeln!(
            out,
            "  degradation overhead: {:.3} ms, {:.3} mJ",
            o.latency_ns * 1e-6,
            o.energy_pj * 1e-9
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "per-layer-kind breakdown:");
    for (scope, s) in report.scoped.iter() {
        let _ = writeln!(
            out,
            "  {:<14} {:>12.3} ms   {:>10.3} mJ",
            scope,
            s.latency_ns * 1e-6,
            s.total_energy_pj() * 1e-9
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Run the one system, or under `--all` the eight, in order; the first
/// failing system ends the run with its error.
fn run(opts: &Options) -> Result<(), ExitCode> {
    let arch = ArchConfig::new(opts.arch)
        .with_stacks(opts.stacks)
        .with_acu(opts.p_sub, opts.p_add)
        .validated()
        .map_err(|e| e.to_string())
        .and_then(|arch| transpim_repro_capacity::fits(&opts.workload, &arch).map(|()| arch))
        .map_err(|msg| {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        })?;

    // Load the fault scenario up front so a bad file is a one-line
    // diagnostic before any simulation work starts. Without --faults the
    // run is the empty scenario: the fault-free simulation.
    let scenario = match &opts.faults {
        Some(path) => FaultScenario::from_json_file(path).map_err(|e| {
            eprintln!("error: {path}: {e}");
            ExitCode::from(2)
        })?,
        None => FaultScenario::empty(0),
    };

    // Capacity check: does the token dataflow's per-bank working set fit?
    // It depends on the geometry and the workload, which every system of
    // an --all run shares.
    transpim_repro_capacity::check(&opts.workload, &arch);

    let systems: Vec<(ArchConfig, DataflowKind)> = if opts.all {
        ArchKind::ALL
            .iter()
            .flat_map(|&kind| DataflowKind::ALL.map(|df| (ArchConfig { kind, ..arch.clone() }, df)))
            .collect()
    } else {
        vec![(arch, opts.dataflow)]
    };
    let mut reports = Vec::new();
    for (arch, dataflow) in systems {
        let (report, overhead) = run_system(opts, arch, dataflow, &scenario)?;
        let out = if opts.all {
            format!("{}\n", report.summary())
        } else {
            detailed_summary(&report, overhead)
        };
        print_stdout(&out)?;
        reports.push(report);
    }

    if let Some(path) = &opts.json {
        let json =
            if opts.all { serde_json::to_string_pretty(&reports) } else { reports[0].to_json() }
                .map_err(|e| fail(format!("serializing report: {e}")))?;
        std::fs::write(path, json).map_err(|e| fail(format!("writing {path}: {e}")))?;
    }
    Ok(())
}
