//! Loop compression is an encoding, not a semantics change: a program
//! carrying `Step::Repeat` must price exactly like its unrolled expansion.
//! These tests pin that contract end-to-end for every default workload:
//! bit-for-bit statistics and report documents, phase aggregates that
//! cover every lump, and traces that differ from the unrolled ones only
//! where a collapsed repeat is summarized. They also pin that a traced
//! decode stays bounded by the compiled program, and re-pin the job-pool
//! determinism of `run_grid` now that the cells it prices are compressed.

use std::collections::BTreeMap;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::{DataflowKind, SimReport};
use transpim::Accelerator;
use transpim_bench::{run_grid, GridCell};
use transpim_dataflow::ir::Program;
use transpim_hbm::stats::{Category, ScopedStats, SimStats};
use transpim_obs::{ArgValue, ChromeEvent, ChromeTraceSink, FanoutSink, MetricsSink, SinkHandle};
use transpim_transformer::workload::Workload;

/// What a fully observed run of one program produced.
struct Observed {
    stats: (SimStats, ScopedStats),
    /// The Chrome trace's events, in document order.
    trace: Vec<ChromeEvent>,
    metrics: BTreeMap<String, f64>,
}

/// Price a program with a trace and a metrics sink attached.
fn observe(arch: &ArchConfig, prog: &Program) -> Observed {
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let sink = SinkHandle::new(FanoutSink::new(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    let stats = Executor::new(arch.clone()).run_with_sink(prog, sink);
    let trace = chrome.borrow().sorted_events();
    let metrics = metrics.borrow().to_flat();
    Observed { stats, trace, metrics }
}

fn is_phase(category: &str) -> bool {
    Category::ALL.iter().any(|c| c.label() == category)
}

/// One collapsed repeat of a compressed trace, in trace microseconds.
#[derive(Debug)]
struct Window {
    start: f64,
    end: f64,
}

impl Window {
    /// Whether `e` was emitted inside the window. Spans and instants mark
    /// where something starts, counters are sampled where a lump ends:
    /// an event at `start` belongs to the window unless it is a counter
    /// (that sample closes the iteration before the window), and an event
    /// at `end` belongs to it only if it is a counter (the sample closing
    /// the window's last lump, which the summary takes again).
    fn holds(&self, e: &ChromeEvent) -> bool {
        match e.ph.as_str() {
            "M" => false,
            "C" => self.start < e.ts && e.ts <= self.end,
            _ => self.start <= e.ts && e.ts < self.end,
        }
    }
}

/// The collapsed windows of a compressed trace, in time order. Each opens
/// at a `repeat` span and closes where its summary samples every
/// category's utilization: the first counter samples after its start.
fn windows(trace: &[ChromeEvent]) -> Vec<Window> {
    trace
        .iter()
        .filter(|e| e.ph == "X" && e.cat == "repeat")
        .map(|w| {
            let after = trace.partition_point(|e| e.ph == "M" || e.ts <= w.ts);
            let end = trace[after..].iter().find(|e| e.ph == "C").map(|e| e.ts);
            Window { start: w.ts, end: end.expect("a window closes with samples") }
        })
        .collect()
}

/// Whether one of the disjoint, time-ordered `windows` holds `e`: only the
/// last two that start by `e`'s timestamp can.
fn inside(windows: &[Window], e: &ChromeEvent) -> bool {
    let n = windows.partition_point(|w| w.start <= e.ts);
    windows[n.saturating_sub(2)..n].iter().any(|w| w.holds(e))
}

/// Check that `compressed` is `unrolled` with every collapsed window's
/// events replaced by that window's summary: the same events, in the same
/// order, outside the windows, and inside each window nothing but its
/// summary — the `repeat` span, phase spans carrying a lump `count`, and
/// one utilization sample per category at the window's end.
fn assert_trace_summarizes(compressed: &[ChromeEvent], unrolled: &[ChromeEvent], what: &str) {
    let windows = windows(compressed);
    let outside = |trace: &[ChromeEvent]| -> Vec<ChromeEvent> {
        trace.iter().filter(|e| !inside(&windows, e)).cloned().collect()
    };
    let (kept_c, kept_u) = (outside(compressed), outside(unrolled));
    assert_eq!(kept_c.len(), kept_u.len(), "{what}: events outside the windows");
    for (c, u) in kept_c.iter().zip(&kept_u) {
        assert_eq!(c, u, "{what}: traces differ outside the collapsed windows");
    }
    for w in &windows {
        let from = compressed.partition_point(|e| e.ph == "M" || e.ts < w.start);
        let to = compressed.partition_point(|e| e.ph == "M" || e.ts <= w.end);
        let summary: Vec<_> = compressed[from..to].iter().filter(|e| w.holds(e)).collect();
        let samples: Vec<_> = summary.iter().filter(|e| e.ph == "C").collect();
        assert_eq!(samples.len(), Category::ALL.len(), "{what}: window {w:?} samples");
        assert!(samples.iter().all(|e| e.ts == w.end && e.name.starts_with("util.")));
        for e in summary.iter().filter(|e| e.ph != "C") {
            let counted = matches!(e.args.get("count"), Some(ArgValue::Num(_)));
            assert!(
                e.ph == "X" && counted && (e.cat == "repeat" || is_phase(&e.cat)),
                "{what}: window {w:?} holds a non-summary event {e:?}"
            );
        }
    }
}

/// Check that the phase aggregates (`span.<category>.<scope>.*` for the
/// breakdown categories) agree: counts exactly, sums within 1e-9 relative.
fn assert_phase_aggregates_match(
    compressed: &BTreeMap<String, f64>,
    unrolled: &BTreeMap<String, f64>,
    what: &str,
) {
    let phases = |m: &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        m.iter()
            .filter(|(k, _)| k.split('.').nth(1).is_some_and(is_phase) && k.starts_with("span."))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    let (c, u) = (phases(compressed), phases(unrolled));
    assert!(!u.is_empty(), "{what}: no phase aggregates");
    assert_eq!(c.keys().collect::<Vec<_>>(), u.keys().collect::<Vec<_>>(), "{what}: keys");
    for (key, want) in &u {
        let got = c[key];
        if key.ends_with(".count") {
            assert_eq!(got, *want, "{what}: {key}");
        } else {
            assert!((got - want).abs() <= 1e-9 * want.abs(), "{what}: {key} {got} vs {want}");
        }
    }
}

/// Statistics, scoped statistics and report documents: byte for byte.
#[test]
fn compressed_and_unrolled_documents_are_byte_identical() {
    for w in Workload::paper_suite() {
        for df in DataflowKind::ALL {
            let arch = ArchConfig::new(ArchKind::TransPim);
            let acc = Accelerator::new(arch.clone());
            let prog = acc.compile(&w, df);
            let unrolled = prog.unroll();
            assert_eq!(prog.unrolled_len(), unrolled.len() as u64, "{df} {}", w.name);

            let (s_u, sc_u) = Executor::new(arch.clone()).run(&unrolled);
            // Report documents: the public API prices the compressed
            // program; a report rebuilt around the unrolled pricing must
            // serialize to the same bytes.
            let report_c = acc.simulate(&w, df);
            assert_eq!(report_c.stats, s_u, "{df} {}: stats diverged", w.name);
            assert_eq!(report_c.scoped, sc_u, "{df} {}: scoped stats diverged", w.name);
            let report_u = SimReport { stats: s_u, scoped: sc_u, ..report_c.clone() };
            assert_eq!(
                report_c.to_json().expect("serialize report"),
                report_u.to_json().expect("serialize report"),
                "{df} {}: report diverged",
                w.name
            );
        }
    }
}

/// The trace half of the contract, as a checked relation: a traced
/// compressed run has the untraced statistics, phase aggregates equal to
/// the unrolled run's (counts exactly, sums within 1e-9 relative), and a
/// trace equal to the unrolled trace with each collapsed window's events
/// replaced by its summary. A window runs from the end of a repeat's
/// iteration 0 to the end of its last iteration; a counter sample taken
/// exactly at a window's end belongs to the window (it closes the window's
/// last lump, and the summary takes it again), while a span or instant
/// starting there belongs to what follows (see [`Window::holds`]).
#[test]
fn compressed_traces_summarize_what_unrolled_traces_spell_out() {
    for w in Workload::paper_suite() {
        for df in DataflowKind::ALL {
            let what = format!("{df} {}", w.name);
            let arch = ArchConfig::new(ArchKind::TransPim);
            let prog = Accelerator::new(arch.clone()).compile(&w, df);
            let compressed = observe(&arch, &prog);
            let unrolled = observe(&arch, &prog.unroll());
            let untraced = Executor::new(arch.clone()).run(&prog);
            assert_eq!(compressed.stats, untraced, "{what}: tracing perturbed the stats");
            assert_eq!(compressed.stats, unrolled.stats, "{what}: traced stats diverged");
            assert_phase_aggregates_match(&compressed.metrics, &unrolled.metrics, &what);
            assert_trace_summarizes(&compressed.trace, &unrolled.trace, &what);
        }
    }
}

#[test]
fn traced_decode_is_bounded_by_the_compiled_program() {
    // Token-LM at decode 4096 unrolls to 32× the steps of decode 128; its
    // trace may grow by at most 250 events (it grows by 189).
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let events = |decode_len: usize| {
        let mut w = Workload::lm();
        w.decode_len = decode_len;
        let chrome = ChromeTraceSink::shared();
        let traced = acc.simulate_with_sink(
            &w,
            DataflowKind::Token,
            SinkHandle::from_shared(chrome.clone()),
        );
        let untraced = acc.simulate(&w, DataflowKind::Token);
        assert_eq!(traced.stats, untraced.stats, "decode {decode_len}: stats diverged");
        assert_eq!(traced.scoped, untraced.scoped, "decode {decode_len}: scoped diverged");
        let n = chrome.borrow().len();
        n
    };
    let (short, long) = (events(128), events(4096));
    assert!(long <= short + 250, "decode 4096 traced {long} events against {short} at decode 128");
}

#[test]
fn layer_decode_trace_grows_per_token_not_per_layer() {
    // Layer-LM decode compiles one repeat of one decoder layer per
    // token, so its trace grows with the decode length but not with
    // the layer count: at most 80 events per extra generated token (one
    // layer's events plus the repeat's summary), where spelling out all
    // 24 layers would take about 600.
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let events = |decode_len: usize| {
        let mut w = Workload::lm();
        w.decode_len = decode_len;
        let chrome = ChromeTraceSink::shared();
        let traced = acc.simulate_with_sink(
            &w,
            DataflowKind::Layer,
            SinkHandle::from_shared(chrome.clone()),
        );
        let untraced = acc.simulate(&w, DataflowKind::Layer);
        assert_eq!(traced.stats, untraced.stats, "decode {decode_len}: stats diverged");
        assert_eq!(traced.scoped, untraced.scoped, "decode {decode_len}: scoped diverged");
        let n = chrome.borrow().len();
        n
    };
    let (short, long) = (events(128), events(1024));
    let per_token = (long - short) as f64 / (1024 - 128) as f64;
    assert!(
        per_token <= 80.0,
        "{per_token:.1} trace events per extra token ({short} at decode 128, {long} at 1024)"
    );
}

#[test]
fn suite_grid_is_deterministic_across_job_counts() {
    // The compressed decode loops must not perturb the job pool's
    // determinism contract: jobs=1 and jobs=8 render identical report and
    // metrics documents for the full default suite.
    let grid = || {
        let mut cells = Vec::new();
        for w in Workload::paper_suite() {
            for df in DataflowKind::ALL {
                cells.push(GridCell::custom(ArchConfig::new(ArchKind::TransPim), df, &w));
            }
        }
        cells
    };
    let render = |jobs: usize| {
        let mut merged = MetricsSink::new();
        let mut doc = String::new();
        for output in run_grid(jobs, false, true, grid()) {
            doc.push_str(&output.report.to_json().expect("serialize report"));
            doc.push('\n');
            merged.merge(output.metrics.expect("metrics requested"));
        }
        doc.push_str(&merged.to_json_string().expect("serialize metrics"));
        doc
    };
    let serial = render(1);
    assert_eq!(serial, render(8), "jobs=8 diverged from jobs=1");
}

#[test]
fn gpt_decode_step_count_is_flat_in_decode_len() {
    // The acceptance bar for the compressed IR: the GPT decode program's
    // step count is O(layers), not O(decode_len × layers).
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let mut w = Workload::lm();
    let mut lens = Vec::new();
    for decode in [256usize, 1024, 4096] {
        w.decode_len = decode;
        let prog = acc.compile(&w, DataflowKind::Token);
        // The compiled length is dominated by the (uncompressed) prefill,
        // so the ratio floor grows with the decode length: ≥100× at 256
        // tokens, ≥1000× at 4096.
        let floor = if decode >= 4096 { 1000 } else { 100 };
        assert!(
            (prog.len() as u64) * floor < prog.unrolled_len(),
            "decode={decode}: expected ≥{floor}× step compression, got {} vs {}",
            prog.len(),
            prog.unrolled_len()
        );
        lens.push(prog.len());
    }
    let spread = lens.iter().max().unwrap() - lens.iter().min().unwrap();
    assert!(spread <= 8, "step count should not scale with decode_len: {lens:?}");
}
