//! Ring-broadcast edge cases under link degradation (Figure 9's fallback
//! from the dedicated neighbor link, 3T, to the shared channel bus, 8T):
//! tiny rings, odd bank counts, and pricing consistency between the
//! loop-compressed and unrolled forms of a degraded schedule.

use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::fault::{EccScheme, Fault, FaultScenario, FaultSession};
use transpim::SinkHandle;
use transpim_dataflow::ir::{BankRange, Emitter, Program, Step};
use transpim_hbm::stats::SimStats;

fn session(arch: &ArchConfig, faults: Vec<Fault>, ecc: EccScheme) -> FaultSession {
    let scenario = FaultScenario { seed: 20220402, ecc, faults };
    FaultSession::new(&scenario, arch.system_info()).expect("valid scenario")
}

fn ring_program(banks: u32, repeat: u64) -> Program {
    let mut p = Program::new();
    p.push(Step::RingBroadcast {
        banks: BankRange::new(0, banks),
        bytes_per_hop: 4096,
        repeat,
        parallel: 1,
    });
    p
}

/// Price `program` on a fresh TransPIM executor under `faults`.
fn price_degraded(program: &Program, faults: Vec<Fault>) -> SimStats {
    let arch = ArchConfig::new(ArchKind::TransPim);
    let mut sess = session(&arch, faults, EccScheme::None);
    let mut exec = Executor::new(arch);
    exec.apply_ring_faults(&sess);
    let (stats, _) =
        exec.run_degraded_with_sink(program, &mut sess, SinkHandle::null()).expect("correctable");
    stats
}

#[test]
fn dead_link_costs_more_than_healthy_for_every_ring_size() {
    // 2-bank ring (the smallest that moves anything) through odd counts:
    // killing the link under the ring must cost latency, and pricing must
    // be deterministic run to run.
    for banks in [2u32, 3, 5, 7, 8] {
        let p = ring_program(banks, 4);
        let healthy = price_degraded(&p, vec![]);
        let dead = price_degraded(&p, vec![Fault::DeadLink { group: 0 }]);
        assert!(
            dead.latency_ns > healthy.latency_ns,
            "{banks} banks: dead link did not slow the ring \
             ({} vs {} ns)",
            dead.latency_ns,
            healthy.latency_ns
        );
        let again = price_degraded(&p, vec![Fault::DeadLink { group: 0 }]);
        assert_eq!(dead, again, "{banks} banks: degraded pricing not deterministic");
    }
}

#[test]
fn degradation_is_monotone_in_severity() {
    // Healthy link < degraded link < slower degraded link <= dead link:
    // the fallback ladder must price in severity order, and a dead link is
    // bounded by the 8T shared-bus path, not unboundedly worse.
    let p = ring_program(8, 4);
    let healthy = price_degraded(&p, vec![]).latency_ns;
    let half = price_degraded(&p, vec![Fault::DegradedLink { group: 0, factor: 0.5 }]).latency_ns;
    let tenth = price_degraded(&p, vec![Fault::DegradedLink { group: 0, factor: 0.1 }]).latency_ns;
    let dead = price_degraded(&p, vec![Fault::DeadLink { group: 0 }]).latency_ns;
    assert!(healthy < half, "50% link must cost more than healthy");
    assert!(half < tenth, "10% link must cost more than 50%");
    assert!(healthy < dead, "dead link must cost more than healthy");
    // The 8T fallback is a fixed detour: it beats a sufficiently starved
    // dedicated link (factor chosen so the ring link is the bottleneck).
    let starved =
        price_degraded(&p, vec![Fault::DegradedLink { group: 0, factor: 0.001 }]).latency_ns;
    assert!(dead < starved, "8T fallback must beat a 0.1% dedicated link");
}

#[test]
fn dead_supersedes_degraded_on_the_same_link() {
    let p = ring_program(4, 2);
    let dead = price_degraded(&p, vec![Fault::DeadLink { group: 0 }]);
    let both = price_degraded(
        &p,
        vec![
            Fault::DegradedLink { group: 0, factor: 0.5 },
            Fault::DeadLink { group: 0 },
            Fault::DegradedLink { group: 0, factor: 0.25 },
        ],
    );
    assert_eq!(dead, both, "degradations on a dead link must be ignored");
}

#[test]
fn compressed_and_unrolled_degraded_schedules_price_identically() {
    // Under flips the loop-compressed program prices its flip-free
    // iterations as body × count and walks the ones that flip; it must
    // land on exactly the unrolled pricing, flips included (the flip
    // stream is a function of the lump sequence, which is identical).
    let ring = Step::RingBroadcast {
        banks: BankRange::new(0, 6),
        bytes_per_hop: 2048,
        repeat: 2,
        parallel: 1,
    };
    let mut compressed = Program::new();
    compressed.push_block_times(&mut vec![ring], 9);
    assert!(compressed.len() < 9, "the identical blocks must fold");
    let unrolled = compressed.unroll();

    let faults = || vec![Fault::DeadLink { group: 0 }, Fault::TransientFlips { per_gib: 256.0 }];
    let arch = ArchConfig::new(ArchKind::TransPim);
    let run = |program: &Program| {
        let mut sess = session(&arch, faults(), EccScheme::Secded);
        let mut exec = Executor::new(arch.clone());
        exec.apply_ring_faults(&sess);
        let (stats, scoped) = exec
            .run_degraded_with_sink(program, &mut sess, SinkHandle::null())
            .expect("correctable");
        (stats, scoped, sess.stats())
    };
    let c = run(&compressed);
    let u = run(&unrolled);
    assert_eq!(c.0, u.0, "stats diverged between compressed and unrolled");
    assert_eq!(c.1, u.1, "scoped stats diverged");
    assert_eq!(c.2, u.2, "fault accounting diverged");
}

#[test]
fn exhausted_hardware_surfaces_as_a_typed_error_not_a_panic() {
    use transpim::accelerator::Accelerator;
    use transpim::report::DataflowKind;
    use transpim::SimError;
    use transpim_transformer::workload::Workload;

    let mut w = Workload::imdb();
    w.model.encoder_layers = 1;
    let arch = ArchConfig::new(ArchKind::TransPim);
    let total = arch.hbm.geometry.total_banks();
    let acc = Accelerator::new(arch);
    let mut s = FaultScenario::empty(1);
    s.faults = (0..total).map(|bank| Fault::FailedBank { bank }).collect();
    let err = acc.simulate_degraded(&w, DataflowKind::Token, &s).expect_err("no pool left");
    assert!(matches!(err, SimError::Uncorrectable { .. }), "{err}");
    assert!(err.to_string().contains("no pool left"), "{err}");
}
