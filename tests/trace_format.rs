//! Integration tests for the observability pipeline: the Chrome-trace
//! document a traced simulation emits must be well-formed (parseable,
//! time-ordered, categorized with the simulator's own labels), and
//! attaching a null sink must leave the simulation bit-for-bit unchanged.

use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::{DataflowKind, SimReport};
use transpim::{ChromeTraceSink, FanoutSink, MetricsSink, SinkHandle};
use transpim_hbm::stats::Category;
use transpim_transformer::workload::Workload;

fn small_workload() -> Workload {
    let mut w = Workload::imdb();
    w.model.encoder_layers = 2;
    w
}

/// Report and Chrome-trace document of one traced simulation.
fn simulate_traced(acc: &Accelerator, w: &Workload, df: DataflowKind) -> (SimReport, String) {
    let chrome = ChromeTraceSink::shared();
    let report = acc.simulate_with_sink(w, df, SinkHandle::from_shared(chrome.clone()));
    let trace = chrome.borrow().to_json_string().expect("trace serializes");
    (report, trace)
}

fn traced_json(kind: ArchKind) -> String {
    let acc = Accelerator::new(ArchConfig::new(kind));
    simulate_traced(&acc, &small_workload(), DataflowKind::Token).1
}

#[test]
fn chrome_trace_parses_and_is_time_ordered() {
    let trace = traced_json(ArchKind::TransPim);
    let events: Vec<serde_json::Value> =
        serde_json::from_str(&trace).expect("chrome trace is a JSON array");
    assert!(!events.is_empty());

    // Metadata records lead; real events follow in non-decreasing ts order
    // with non-negative durations.
    let mut last_ts = f64::NEG_INFINITY;
    let mut real_events = 0usize;
    for e in &events {
        let ph = e["ph"].as_str().expect("every event has a phase");
        if ph == "M" {
            assert_eq!(e["name"], "thread_name", "only track names are metadata");
            continue;
        }
        let ts = e["ts"].as_f64().expect("every event has a µs timestamp");
        assert!(ts >= last_ts, "ts must be non-decreasing: {ts} after {last_ts}");
        assert!(ts >= 0.0);
        last_ts = ts;
        if ph == "X" {
            let dur = e["dur"].as_f64().expect("complete events carry a duration");
            assert!(dur >= 0.0, "negative duration {dur}");
        }
        real_events += 1;
    }
    assert!(real_events > 0, "a real program must emit non-metadata events");
}

#[test]
fn phase_span_categories_match_the_breakdown_labels() {
    let trace = traced_json(ArchKind::TransPim);
    let events: Vec<serde_json::Value> = serde_json::from_str(&trace).unwrap();
    let known: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
    let mut seen_phase_cats = std::collections::BTreeSet::new();
    for e in &events {
        let (Some(ph), Some(cat)) = (e["ph"].as_str(), e["cat"].as_str()) else {
            continue;
        };
        match ph {
            // Phase spans use the breakdown labels; interior detail uses
            // "ring"; counters and metadata have their own categories.
            "X" | "i" => {
                assert!(known.contains(&cat) || cat == "ring", "unexpected category '{cat}'")
            }
            "C" => assert_eq!(cat, "counter"),
            "M" => assert_eq!(cat, "__metadata"),
            other => panic!("unexpected phase type '{other}'"),
        }
        if ph == "X" && known.contains(&cat) {
            seen_phase_cats.insert(cat.to_owned());
        }
    }
    // The token dataflow exercises movement, arithmetic and reduction.
    for want in ["data-movement", "arithmetic", "reduction"] {
        assert!(seen_phase_cats.contains(want), "no '{want}' phase span in the trace");
    }
}

#[test]
fn ring_hops_are_visible_per_hop() {
    let trace = traced_json(ArchKind::TransPim);
    let events: Vec<serde_json::Value> = serde_json::from_str(&trace).unwrap();
    let hops: Vec<_> = events
        .iter()
        .filter(|e| {
            e["ph"] == "X"
                && e["cat"] == "ring"
                && e["name"].as_str().is_some_and(|n| n.starts_with("hop "))
        })
        .collect();
    assert!(!hops.is_empty(), "per-hop ring events expected in a TransPIM trace");
    for h in &hops {
        assert!(h["args"]["slot"].as_f64().is_some(), "hops carry their schedule slot");
    }
}

#[test]
fn resource_utilization_counters_are_emitted() {
    let trace = traced_json(ArchKind::TransPim);
    let events: Vec<serde_json::Value> = serde_json::from_str(&trace).unwrap();
    let counters: Vec<_> = events.iter().filter(|e| e["ph"] == "C").collect();
    assert!(!counters.is_empty(), "utilization counters expected");
    // Per-category utilization curves are always present. A bank's
    // occupancy of a ring step is its hop span, not a counter of its own.
    assert!(
        counters.iter().any(|c| c["name"].as_str().is_some_and(|n| n.starts_with("util."))),
        "per-category 'util.*' counters expected"
    );
    assert!(
        !counters.iter().any(|c| c["name"].as_str().is_some_and(|n| n.starts_with("util.bank"))),
        "no per-bank occupancy counter expected"
    );
    for c in &counters {
        let (_, v) =
            c["args"].as_object().and_then(|o| o.iter().next()).expect("counters carry a value");
        let busy = v.as_f64().expect("busy fraction is numeric");
        assert!((0.0..=1.0).contains(&busy), "busy fraction {busy} out of range");
    }
}

#[test]
fn null_sink_runs_are_bit_identical_to_untraced_runs() {
    for kind in ArchKind::ALL {
        let acc = Accelerator::new(ArchConfig::new(kind));
        let w = small_workload();
        for df in DataflowKind::ALL {
            let plain = acc.simulate(&w, df);
            let nulled = acc.simulate_with_sink(&w, df, SinkHandle::null());
            assert_eq!(plain.stats, nulled.stats, "{kind:?}/{df:?} stats diverged");
            assert_eq!(plain.scoped, nulled.scoped, "{kind:?}/{df:?} scoped stats diverged");
            let (traced, _) = simulate_traced(&acc, &w, df);
            assert_eq!(plain.stats, traced.stats, "{kind:?}/{df:?} tracing perturbed stats");
        }
    }
}

#[test]
fn metrics_sink_aggregates_cover_every_emitting_category() {
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    // Fan out to both sinks in one run; the aggregates must agree with the
    // trace's phase spans.
    let sink = SinkHandle::new(FanoutSink::new(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    acc.simulate_with_sink(&small_workload(), DataflowKind::Token, sink);

    let flat = metrics.borrow().to_flat();
    for cat in ["data-movement", "arithmetic", "reduction"] {
        assert!(
            flat.keys().any(|k| k.starts_with(&format!("span.{cat}."))),
            "no aggregated spans for '{cat}'"
        );
    }
    let span_count: f64 = flat
        .iter()
        .filter(|(k, _)| k.starts_with("span.") && k.ends_with(".count"))
        .map(|(_, v)| *v)
        .sum();
    let chrome_spans = chrome.borrow().sorted_events().into_iter().filter(|e| e.ph == "X").count();
    assert_eq!(span_count as usize, chrome_spans, "metrics and trace disagree on span count");

    // CSV export round-trips the same keys.
    let csv = metrics.borrow().to_csv_string();
    assert!(csv.starts_with("metric,value\n"));
    assert_eq!(csv.lines().count(), flat.len() + 1);
}

#[test]
fn fanout_children_write_what_a_sink_attached_alone_writes() {
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let lm = Workload::lm();
    for df in [DataflowKind::Token, DataflowKind::Layer] {
        let run = |sink: SinkHandle| {
            acc.simulate_with_sink(&lm, df, sink);
        };
        let alone_chrome = ChromeTraceSink::shared();
        run(SinkHandle::from_shared(alone_chrome.clone()));
        let alone_metrics = MetricsSink::shared();
        run(SinkHandle::from_shared(alone_metrics.clone()));
        let trace = alone_chrome.borrow().to_json_string().unwrap();
        let metrics = alone_metrics.borrow().to_json_string().unwrap();

        // Either child order: each child sees the event the other saw.
        for chrome_first in [true, false] {
            let (chrome, metrics_sink) = (ChromeTraceSink::shared(), MetricsSink::shared());
            let mut children = vec![
                SinkHandle::from_shared(chrome.clone()),
                SinkHandle::from_shared(metrics_sink.clone()),
            ];
            if !chrome_first {
                children.reverse();
            }
            run(SinkHandle::new(FanoutSink::new(children)));
            let fanned_trace = chrome.borrow().to_json_string().unwrap();
            assert!(fanned_trace == trace, "{df:?}: fanned-out trace differs from a lone sink's");
            let fanned_metrics = metrics_sink.borrow().to_json_string().unwrap();
            assert_eq!(fanned_metrics, metrics, "{df:?}: fanned-out metrics differ");
        }
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The trace and metrics documents of the traced LM runs are pinned byte
/// for byte: the digests are those of the files `transpim-sim --workload
/// lm [--dataflow layer] --trace --metrics` writes. A change that moves
/// trace or metrics bytes on purpose updates them and says why.
#[test]
fn traced_lm_documents_match_their_pinned_digests() {
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let lm = Workload::lm();
    let pinned = [
        (DataflowKind::Token, (522_506, 0xe602_850c_7394_89c9), (6_135, 0xbfb6_f418_5b24_c07a)),
        (DataflowKind::Layer, (1_696_131, 0x8b99_3178_5173_885b), (5_672, 0x17b1_16e3_57b8_2a69)),
    ];
    for (df, trace_pin, metrics_pin) in pinned {
        let (chrome, metrics) = (ChromeTraceSink::shared(), MetricsSink::shared());
        let sink = SinkHandle::fanout(vec![
            SinkHandle::from_shared(chrome.clone()),
            SinkHandle::from_shared(metrics.clone()),
        ]);
        let report = acc.simulate_with_sink(&lm, df, sink);
        // The headline figures `transpim-sim --metrics` adds.
        let mut m = metrics.borrow_mut();
        m.push_metric("report.latency_ms", report.latency_ms());
        m.push_metric("report.energy_mj", report.stats.total_energy_pj() * 1e-9);
        m.push_metric("report.bytes_moved", report.stats.bytes_moved);
        m.push_metric("report.utilization", report.utilization());
        let trace = chrome.borrow().to_json_string().unwrap();
        let metrics = m.to_json_string().unwrap();
        let digest = |doc: &str| (doc.len(), fnv1a(doc.as_bytes()));
        assert_eq!(digest(&trace), trace_pin, "{df:?}: trace bytes moved");
        assert_eq!(digest(&metrics), metrics_pin, "{df:?}: metrics bytes moved");
    }
}
