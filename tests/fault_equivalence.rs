//! The fault subsystem must be invisible until used, and deterministic
//! when used:
//!
//! * **fault-free byte identity** — a plain simulation *is* a simulation
//!   under an empty scenario (`Accelerator::simulate_on` is the one entry
//!   point), so passing an empty scenario explicitly must produce a report,
//!   trace, and metrics document byte-identical to a plain simulation: not
//!   a single f64 perturbed, not a single extra event, and no `faults`
//!   field in the report;
//! * **determinism under faults** — the same seed and scenario produce
//!   byte-identical degraded reports at any job count, because each cell
//!   builds its own session and the flip stream is a pure function of
//!   `(seed, lump sequence)`.

use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::fault::{EccScheme, Fault, FaultScenario};
use transpim::report::DataflowKind;
use transpim::{ChromeTraceSink, FanoutSink, MetricsSink, SinkHandle};
use transpim_transformer::workload::Workload;

fn small_workload() -> Workload {
    let mut w = Workload::imdb();
    w.model.encoder_layers = 1;
    w
}

/// Report + trace + metrics of one observed simulation, as one string:
/// equality means byte-identical files on disk.
fn render(acc: &Accelerator, w: &Workload, scenario: Option<&FaultScenario>) -> String {
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let sink = SinkHandle::new(FanoutSink::new(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    let report = match scenario {
        Some(s) => {
            let mut exec = Executor::new(acc.arch().clone());
            acc.simulate_on(&mut exec, w, DataflowKind::Token, s, sink)
                .expect("scenario is correctable")
        }
        None => acc.simulate_with_sink(w, DataflowKind::Token, sink),
    };
    let mut doc = report.to_json().expect("serialize report");
    doc.push('\n');
    doc.push_str(&chrome.borrow().to_json_string().expect("serialize trace"));
    doc.push('\n');
    doc.push_str(&metrics.borrow().to_json_string().expect("serialize metrics"));
    doc
}

#[test]
fn disabled_injection_is_byte_identical_to_plain_simulation() {
    let w = small_workload();
    let empty = FaultScenario::empty(20220402);
    assert!(empty.is_empty());
    for kind in ArchKind::ALL {
        let acc = Accelerator::new(ArchConfig::new(kind));
        assert_eq!(
            render(&acc, &w, None),
            render(&acc, &w, Some(&empty)),
            "{kind}: empty scenario perturbed the output"
        );
    }
}

#[test]
fn empty_scenario_report_omits_fault_accounting() {
    let w = small_workload();
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let r = acc
        .simulate_degraded(&w, DataflowKind::Token, &FaultScenario::empty(1))
        .expect("empty scenario");
    assert!(r.faults.is_none());
    assert!(!r.to_json().expect("serialize").contains("faults"));
}

fn scenario_grid() -> Vec<FaultScenario> {
    let mut cells = Vec::new();
    for (seed, flips) in [(20220402u64, 2.0f64), (7, 16.0)] {
        let mut s = FaultScenario::empty(seed);
        s.ecc = EccScheme::Secded;
        s.faults = vec![
            Fault::FailedBank { bank: 3 },
            Fault::StuckBitPlanes { bank: 1, planes: 8 },
            Fault::DeadLink { group: 0 },
            Fault::DegradedLink { group: 2, factor: 0.5 },
            Fault::TransientFlips { per_gib: flips },
            Fault::BrokenDivider { bank: 5 },
        ];
        cells.push(s);
    }
    let mut parity = FaultScenario::empty(99);
    parity.ecc = EccScheme::Parity;
    parity.faults = vec![Fault::TransientFlips { per_gib: 8.0 }];
    cells.push(parity);
    cells
}

#[test]
fn degraded_reports_are_independent_of_job_count_and_rerun() {
    let w = small_workload();
    let render_all = |jobs: usize| -> Vec<String> {
        let pool_jobs: Vec<_> = scenario_grid()
            .into_iter()
            .map(|scenario| {
                let w = w.clone();
                move || {
                    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
                    acc.simulate_degraded(&w, DataflowKind::Token, &scenario)
                        .expect("scenario is correctable")
                        .to_json()
                        .expect("serialize report")
                }
            })
            .collect();
        transpim_par::run(jobs, pool_jobs)
    };
    let serial = render_all(1);
    assert_eq!(serial, render_all(8), "jobs=8 diverged from jobs=1");
    assert_eq!(serial, render_all(1), "rerun with the same seed diverged");
}

#[test]
fn degraded_runs_account_their_faults() {
    let w = small_workload();
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let clean = acc.simulate(&w, DataflowKind::Token);
    for scenario in scenario_grid() {
        let r = acc.simulate_degraded(&w, DataflowKind::Token, &scenario).expect("correctable");
        let f = r.faults.expect("non-empty scenario carries accounting");
        assert!(f.injected >= scenario.faults.len() as u64 - 1, "static faults counted");
        assert_eq!(f.uncorrectable, 0);
        assert_eq!(f.injected, f.detected);
        assert_eq!(f.detected, f.corrected);
        // The overhead is degraded minus fault-free.
        assert!(r.stats.latency_ns > clean.stats.latency_ns, "degradation has a cost");
    }
}
