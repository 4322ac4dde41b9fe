//! `transpim-perfbench` — host-time benchmark of the TransPIM simulator.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload decode-4k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client drives the simulator in a closed loop: the next request is
//! issued when the previous one completes. `--trace 0` measures host time
//! end to end; `--trace 1` makes the traced run, which times every call
//! into a crate's public functions in spans and reports per-layer figures.
//! Every request's outputs are checked (see `check.rs`); the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--write-reference` regenerates `reference.json`.

mod calib;
mod check;
mod metrics;
mod rng;
mod span;
mod stats;
mod workload;

use calib::{Calibrator, Timed};
use check::{sim_values, Checker, Reference};
use metrics::entry;
use span::Recorder;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use transpim::{Accelerator, SimReport};
use workload::{run_request, run_spanned, Counts, Kind, Plan, RequestOut, DEFAULT_SEED, GRID_JOBS};

const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
/// Directory (under the working directory) the spans are written to.
const SPANS_DIR: &str = ".perfbench_out";
/// Set-up is repeated at least this often, and for at least
/// `SETUP_MIN_S`, and its median reported.
const SETUP_ROUNDS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// Requests measured at least, however short `--seconds` is.
const MIN_REQUESTS: usize = 3;

const USAGE: &str = "usage: transpim-perfbench --workload <decode-4k|paper-grid|traced-lm|degraded> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       transpim-perfbench --write-reference";

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteReference,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} requires a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--write-reference" => return Ok(Command::WriteReference),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Command::Run(Args { kind, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "error: refusing to time a debug build (debug builds re-price every repeat); \
             build with --release"
        );
        return ExitCode::from(2);
    }
    let result = match command {
        Command::WriteReference => write_reference(),
        Command::Run(args) => run(&args, process_start),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn load_reference() -> Result<Reference, String> {
    let text =
        std::fs::read_to_string(REFERENCE).map_err(|e| format!("reading {REFERENCE}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {REFERENCE}: {e}"))
}

/// Simulated values of every fault-free cell, and of the degraded cells at
/// the default seed, from one request in cell order.
fn write_reference() -> Result<(), String> {
    let mut reference = Reference::new();
    for kind in Kind::ALL {
        let plan = Plan::new(kind, DEFAULT_SEED);
        let order: Vec<usize> = (0..plan.cells.len()).collect();
        let out = run_request(&plan, &order)?;
        for sim in &out.sims {
            reference.insert(plan.label(sim.cell), sim_values(&sim.report));
        }
    }
    let json = serde_json::to_string_pretty(&reference).map_err(|e| e.to_string())?;
    std::fs::write(REFERENCE, json + "\n").map_err(|e| format!("writing {REFERENCE}: {e}"))?;
    eprintln!("wrote {} reference cells to {REFERENCE}", reference.len());
    Ok(())
}

/// A workload ready to measure.
struct Bench {
    plan: Plan,
    checker: Checker,
    /// `traced-lm`: the untraced report its traced stats must equal.
    untraced: Option<SimReport>,
}

impl Bench {
    /// Configs, scenario, reference and one untimed warm-up request.
    fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        let plan = Plan::new(kind, seed);
        let untraced = (kind == Kind::TracedLm).then(|| {
            let c = &plan.cells[0];
            Accelerator::new(c.arch.clone()).simulate(&c.workload, c.dataflow)
        });
        let mut bench = Self { plan, checker: Checker::new(load_reference()?), untraced };
        let order = bench.plan.next_order();
        let out = run_request(&bench.plan, &order)?;
        bench.check(&out)?;
        Ok(bench)
    }

    fn check(&mut self, out: &RequestOut) -> Result<(), String> {
        let plan = &self.plan;
        if out.sims.len() != plan.cells.len() {
            return Err(format!("{} simulations for {} cells", out.sims.len(), plan.cells.len()));
        }
        for sim in &out.sims {
            let label = plan.label(sim.cell);
            self.checker.check(&label, &sim.report, &sim.json, plan.needs_reference())?;
            if plan.scenario.is_some() && sim.report.faults.is_none() {
                return Err(format!("{label}: degraded run without fault accounting"));
            }
        }
        if let Some(untraced) = &self.untraced {
            let traced = &out.sims[0].report;
            if traced.stats != untraced.stats || traced.scoped != untraced.scoped {
                return Err("traced statistics differ from the untraced run".into());
            }
        }
        if let Some(t) = &out.trace {
            if t.events == 0 || !t.trace_json.ends_with(']') || t.metrics.to_flat().is_empty() {
                return Err(format!(
                    "empty trace or metrics document: {} events, {} trace bytes, {} metrics keys",
                    t.events,
                    t.trace_json.len(),
                    t.metrics.to_flat().len()
                ));
            }
            self.checker.check_blob("trace", &t.trace_json)?;
            self.checker.check_blob("metrics", &t.metrics_json)?;
        }
        Ok(())
    }
}

/// Outcome of one request, with panics caught and counted as failures.
fn attempt<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            eprintln!("request failed: {what}: {e}");
            None
        }
        Err(_) => {
            eprintln!("request failed: {what}: panicked");
            None
        }
    }
}

/// Host peak resident memory so far (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The revision of a git checkout in the working directory, read from its
/// files; `unknown` elsewhere.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

/// The run metadata line, printed before the result.
fn print_meta(args: &Args, extra: &[(&str, String)]) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cpus", cpus.to_string()),
        ("git_revision", json_str(&git_revision())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("loop", json_str("closed, one client")),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("perfbench-meta {{{}}}", body.join(", "));
}

fn print_result(attempted: usize, failed: usize, metrics: &[String]) {
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let mut bench = Bench::setup(args.kind, args.seed)?;
    let first_ms = process_start.elapsed().as_secs_f64() * 1e3;
    if args.trace {
        return traced_run(args, &mut bench);
    }
    // Read before the calibration probe's threads allocate anything.
    let peak_rss_mb = peak_rss_mb()?;
    let mut calib = Calibrator::new(bench.plan.threads());
    let mut setup = vec![calib.before_first(first_ms)];
    while setup.len() < SETUP_ROUNDS
        || setup.iter().map(|t| t.raw_ms).sum::<f64>() < SETUP_MIN_S * 1e3
    {
        let (b, t) = calib.time(|| Bench::setup(args.kind, args.seed));
        bench = b?;
        setup.push(t);
    }
    untraced_run(args, &mut bench, &mut calib, &setup, peak_rss_mb)
}

fn untraced_run(
    args: &Args,
    bench: &mut Bench,
    calib: &mut Calibrator,
    setup: &[Timed],
    peak_rss_mb: f64,
) -> Result<(), String> {
    let (mut attempted, mut failed, mut sims) = (0, 0, 0);
    let (mut times, mut output_bytes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || attempted < MIN_REQUESTS {
        let order = bench.plan.next_order();
        attempted += 1;
        let (out, timed) =
            calib.time(|| attempt(args.kind.name(), || run_request(&bench.plan, &order)));
        match out.map(|o| (bench.check(&o), o)) {
            Some((Ok(()), o)) => {
                times.push(timed);
                sims += bench.plan.sims();
                output_bytes.push(o.output_bytes() as f64);
            }
            Some((Err(e), _)) => {
                eprintln!("request failed its checks: {e}");
                failed += 1;
            }
            None => failed += 1,
        }
    }
    if times.is_empty() {
        return Err("every request failed".into());
    }
    let field = |f: fn(&Timed) -> f64, of: &[Timed]| of.iter().map(f).collect::<Vec<f64>>();
    let (ms, raw_ms) = (field(|t| t.ms, &times), field(|t| t.raw_ms, &times));
    let (t, raw_t) = (tail(&ms), tail(&raw_ms));
    print_meta(
        args,
        &[
            ("requests", attempted.to_string()),
            ("sims_per_request", bench.plan.sims().to_string()),
            ("tail_percentile", t.percentile.to_string()),
            ("tail_samples", t.samples.to_string()),
            ("failed_frac", (failed as f64 / attempted as f64).to_string()),
            ("reference_probe_ms", calib::REFERENCE_PROBE_MS.to_string()),
            ("probe_ms_p50", median(&field(|t| t.probe_ms, &times)).to_string()),
            ("raw_request_ms_p50", median(&raw_ms).to_string()),
            ("raw_request_ms_tail", raw_t.value.to_string()),
            ("raw_setup_s", (median(&field(|t| t.raw_ms, setup)) * 1e-3).to_string()),
        ],
    );
    let values = [
        median(&field(|t| t.ms, setup)) * 1e-3,
        sims as f64 * 1e3 / ms.iter().sum::<f64>(),
        median(&ms),
        t.value,
        peak_rss_mb,
        median(&output_bytes) / 1e6,
    ];
    let metrics: Vec<String> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| entry(name, v, unit))
        .collect();
    print_result(attempted, failed, &metrics);
    Ok(())
}

/// One spanned request's per-layer values.
fn layer_values(rec: &Recorder, id: u64, c: &Counts, plain_ms: f64) -> BTreeMap<&'static str, f64> {
    let ms = |name: &str| rec.total_ms(id, name);
    let or_else = |name: &str, fallback: f64| if rec.has(id, name) { ms(name) } else { fallback };
    let price_cold = ms("transpim.price");
    let traced_price = or_else("obs.traced_price", price_cold);
    let price_degraded = or_else("fault.price_degraded", price_cold);
    let grid = or_else("par.grid", plain_ms);
    let serial = or_else("par.serial", ms("cell"));
    BTreeMap::from([
        ("dataflow.compile_ms", ms("dataflow.compile")),
        ("dataflow.steps", c.steps as f64),
        ("dataflow.unrolled_steps", c.unrolled_steps as f64),
        ("transpim.executor_new_ms", ms("transpim.executor_new")),
        ("transpim.price_cold_ms", price_cold),
        ("transpim.price_warm_ms", ms("transpim.price_warm")),
        ("transpim.price_ns_per_unrolled_step", price_cold * 1e6 / c.clean_unrolled_steps as f64),
        ("transpim.report_json_ms", ms("transpim.report_json")),
        ("transpim.report_bytes", c.report_bytes as f64),
        ("acu.ring_shapes", c.ring_shapes as f64),
        ("acu.ring_step_us", ms("acu.ring_step") * 1e3),
        ("acu.tree_shapes", c.tree_shapes as f64),
        ("acu.reduce_tree_us", ms("acu.reduce_tree") * 1e3),
        ("obs.traced_price_ms", traced_price),
        ("obs.trace_overhead_x", traced_price / price_cold),
        ("obs.trace_events", c.trace_events as f64),
        ("obs.trace_serialize_ms", ms("obs.trace_serialize")),
        ("obs.trace_bytes", c.trace_bytes as f64),
        ("obs.metrics_keys", c.metrics_keys as f64),
        ("obs.metrics_serialize_ms", ms("obs.metrics_serialize")),
        ("fault.session_new_ms", ms("fault.session_new")),
        ("fault.price_degraded_ms", price_degraded),
        ("fault.degraded_over_clean_x", price_degraded / price_cold),
        ("fault.injected", c.injected as f64),
        ("fault.corrected", c.corrected as f64),
        ("fault.uncorrectable", c.uncorrectable as f64),
        ("par.grid_ms", grid),
        ("par.serial_ms", serial),
        ("par.efficiency", serial / (GRID_JOBS as f64 * grid)),
    ])
}

/// Simulated values summed over a request's simulations.
fn sim_layer_values(out: &RequestOut) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let (mut latency_ns, mut cat_ns) = (0.0, [0.0; 4]);
    for sim in &out.sims {
        for (key, v) in sim_values(&sim.report) {
            if !key.ends_with("_share") {
                *sums.entry(format!("sim.{key}")).or_default() += v;
            }
        }
        latency_ns += sim.report.stats.latency_ns;
        for (sum, t) in cat_ns.iter_mut().zip(sim.report.stats.time_ns) {
            *sum += t;
        }
    }
    for c in transpim_hbm::stats::Category::ALL {
        let share = cat_ns[c.index()] / latency_ns;
        sums.insert(format!("sim.{}_share", check::category_key(c)), share);
    }
    sums
}

fn traced_run(args: &Args, bench: &mut Bench) -> Result<(), String> {
    let mut rec = Recorder::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut plain_ms = Vec::new();
    let mut spanned: Vec<(u64, Counts)> = Vec::new();
    let mut sim = BTreeMap::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || spanned.len() < MIN_REQUESTS {
        // A plain request, then the same work decomposed and spanned: the
        // gap between the two is the span overhead.
        let order = bench.plan.next_order();
        attempted += 1;
        let t = Instant::now();
        let out = attempt(args.kind.name(), || run_request(&bench.plan, &order));
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        match out.map(|o| bench.check(&o)) {
            Some(Ok(())) => plain_ms.push(elapsed_ms),
            Some(Err(e)) => {
                eprintln!("request failed its checks: {e}");
                failed += 1;
            }
            None => failed += 1,
        }

        let order = bench.plan.next_order();
        attempted += 1;
        let id = attempted as u64;
        rec.set_request(id);
        let out = attempt(args.kind.name(), || run_spanned(&bench.plan, &order, &mut rec));
        match out.map(|(o, c)| (bench.check(&o), o, c)) {
            Some((Ok(()), o, c)) => {
                sim = sim_layer_values(&o);
                spanned.push((id, c));
            }
            Some((Err(e), _, _)) => {
                eprintln!("request failed its checks: {e}");
                failed += 1;
            }
            None => failed += 1,
        }
    }
    if plain_ms.is_empty() || spanned.is_empty() {
        return Err("every request failed".into());
    }

    let plain = median(&plain_ms);
    let per_request: Vec<_> =
        spanned.iter().map(|(id, c)| layer_values(&rec, *id, c, plain)).collect();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for &(name, _) in metrics::LAYER {
        let samples: Vec<f64> = per_request.iter().filter_map(|m| m.get(name).copied()).collect();
        if !samples.is_empty() {
            values.insert(name.to_owned(), median(&samples));
        }
    }
    let e2e: Vec<f64> = spanned.iter().map(|(id, _)| rec.total_ms(*id, "e2e")).collect();
    values.insert("bench.span_overhead_pct".into(), 100.0 * (median(&e2e) - plain) / plain);
    values.extend(sim);

    let spans_file = format!("{SPANS_DIR}/spans-{}-seed{}.json", args.kind.name(), args.seed);
    let written = std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&spans_file, rec.to_json()));
    if let Err(e) = &written {
        eprintln!("warning: spans not written to {spans_file}: {e}");
    }
    print_meta(
        args,
        &[
            ("requests", attempted.to_string()),
            ("spanned_requests", spanned.len().to_string()),
            ("spans", rec.spans().len().to_string()),
            ("spans_file", json_str(if written.is_ok() { &spans_file } else { "" })),
            ("failed_frac", (failed as f64 / attempted as f64).to_string()),
        ],
    );
    let metrics: Vec<String> = metrics::per_layer()
        .iter()
        .map(|(name, unit)| entry(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    print_result(attempted, failed, &metrics);
    Ok(())
}
