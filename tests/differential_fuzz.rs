//! Differential fuzz harness: randomized cross-checks between independent
//! implementations of the same semantics.
//!
//! Twelve checks, each over ≥128 generated cases (fixed seeds in CI via
//! `TRANSPIM_PROPTEST_SEED` in `scripts/check.sh`):
//!
//! 1. **banksim vs f32** — the bit-accurate Figure 8 datapath must agree
//!    with plain f32 attention within the documented fixed-point tolerance
//!    on random shapes and inputs, and its traced AAP count must equal the
//!    analytic closed-form prediction exactly.
//! 2. **Repeat compression vs unrolled** — `Program::push_block_times`
//!    output must unroll to exactly the blocks that were fed in, merging
//!    runs of equal blocks, and the program's O(1) push-time totals must
//!    equal the totals recomputed from the unrolled stream (pinning the
//!    body × count accounting, nested repeats included).
//! 3. **Token flow vs layer flow** — the two functional dataflow
//!    implementations reorganize the same math and must agree to within
//!    a few f32 ulps (shard boundaries reorder one reduction).
//! 4. **Executor pricing jobs=1 vs jobs=N** — the job pool must render
//!    byte-identical reports (and observability documents) at any width.
//! 5. **Degraded vs fault-free pricing** — a correctable fault scenario
//!    that preserves the program shape (no failed banks, no link faults)
//!    must never error, draw nothing uncorrectable, or price below the
//!    fault-free run.
//! 6. **Uncorrectable faults** — an unprotected flip storm must surface as
//!    a typed `SimError::Uncorrectable`, never a panic or silent success.
//! 7. **Lump order and scope split** — the engine's statistics must not
//!    depend on the order lumps are recorded in: the exact tally is what
//!    lets a repeat price as body × count and keeps every job count
//!    byte-identical. Nor may they depend on how lumps split into scopes:
//!    the total derived from the scope tallies must equal, bit for bit and
//!    out-of-range error included, that of one scope recording the same
//!    lumps with every repeat unrolled.
//! 8. **Degraded compression vs unrolled** — under any fault scenario, a
//!    program with plain, scope-changing and nested repeats must price
//!    exactly as its unrolled form: statistics, fault
//!    accounting, and an uncorrectable error's message and time. Flip-free
//!    repeat iterations price as body × count; the flipping ones are
//!    walked.
//! 9. **Flip threshold vs float draw** — the integer predicate
//!    `h >> 11 < flip_threshold(expected)` must say exactly whether the
//!    float draw `drawn_flips` flips, for random, tiny, dyadic, near-1 and
//!    above-1 expectations and for hashes at the threshold; and the
//!    session's scan of logged thresholds must predict, iteration by
//!    iteration, what `observe_transfer` then draws.
//! 10. **Chrome writer vs reference writer** — the Chrome sink, which
//!     renders each record on receipt and sorts an index on export, must
//!     write byte for byte what the buffered writer it replaced writes
//!     (records cloned, stably sorted, and written field by field), for
//!     generated event streams with timestamp ties, metadata, labels,
//!     empty and repeated argument keys, names that need escaping, and
//!     special numbers; also when the stream is split across sinks that
//!     are absorbed in order.
//! 11. **Matvec products** — every `PointwiseMul` the compilers follow
//!     with a `Reduce` multiplies exactly the reduced vectors times their
//!     length: system-wide in every Token step and every Layer encoder
//!     step, and per bank in the Token encoder, whose shards hold whole
//!     tokens. A work expression that drops or gains a factor fails it.
//! 12. **Streamed vs compiled** — `Accelerator::simulate_on` prices each
//!     step as the compiler emits it, without building the program; it
//!     must write byte for byte the report, trace and metrics (or return
//!     the error) that pricing the dumped program writes, for both
//!     dataflows on every architecture, with and without the pipelined
//!     ring, fault-free, under SECDED with flips and a failed bank, and
//!     under unprotected flips. A generated stream of repeated blocks
//!     (merged repeats, ring + multiply pairs) must price as the program
//!     it builds.

use proptest::prelude::*;
use transpim::accelerator::Accelerator;
use transpim::banksim::{attention_row, attention_row_reference, predicted_aaps, tolerance};
use transpim::exec::Executor;
use transpim::fault::session::{drawn_flips, flip_threshold};
use transpim::fault::{EccScheme, Fault, FaultScenario, FaultSession, FaultStats, FlipOutcome};
use transpim::report::DataflowKind;
use transpim::SimError;
use transpim::SinkHandle;
use transpim::{ChromeTraceSink, MetricsSink, SimReport, Sink};
use transpim_bench::fuzz::{arch_for, sized_step, small_workload, SIZED_STEP_KINDS};
use transpim_bench::{run_grid, GridCell};
use transpim_dataflow::functional::encoder_layer_sharded;
use transpim_dataflow::ir::{Emitter, Program, Step};
use transpim_dataflow::layer_functional::encoder_layer_layerflow;
use transpim_hbm::engine::Engine;
use transpim_hbm::stats::{Category, OutOfRange, ScopedStats, SimStats};
use transpim_obs::{ArgValue, CounterEvent, InstantEvent, SpanEvent, TrackId};
use transpim_transformer::matrix::Matrix;
use transpim_transformer::model::{ModelConfig, ModelWeights};
use transpim_transformer::softmax::SoftmaxKind;
use transpim_transformer::workload::Workload;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// (1) banksim vs f32 reference + analytic AAP count
// ---------------------------------------------------------------------------

fn random_unit_rows(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<Vec<f32>> {
    (0..rows).map(|_| (0..cols).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn banksim_attention_matches_f32_within_tolerance(
        n in 1usize..64,
        d in 1usize..64,
        seed in 0u64..(1u64 << 32),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_unit_rows(&mut rng, 1, d).remove(0);
        let keys = random_unit_rows(&mut rng, n, d);
        let values = random_unit_rows(&mut rng, n, d);

        let hw = attention_row(&q, &keys, &values);
        let reference = attention_row_reference(&q, &keys, &values);
        let tol = tolerance(n);
        for (dim, (&h, &r)) in hw.output.iter().zip(&reference).enumerate() {
            prop_assert!(
                (h - r).abs() <= tol,
                "n={n} d={d} dim {dim}: hw {h} vs ref {r} exceeds tolerance {tol}"
            );
        }

        // The functional run and the analytic cost model must agree on the
        // exact in-array command count for every shape.
        prop_assert_eq!(hw.aaps, predicted_aaps(n, d), "AAP count drifted for n={}, d={}", n, d);

        // Sanity on the probability row: a (fixed-point) distribution.
        let psum: f32 = hw.probs.iter().sum();
        prop_assert!((psum - 1.0).abs() <= tol, "n={n}: prob sum {psum}");
    }
}

// ---------------------------------------------------------------------------
// (2) Repeat compression: unroll equivalence + body × count totals
// ---------------------------------------------------------------------------

/// One generated step spec: variant selector, sizes and structural fields.
type StepSpec = (u8, u64, u64, u64, u32, u32);

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>())
}

fn spec_step(spec: &StepSpec) -> Step {
    let (kind, s0, s1, s2, w0, w1) = *spec;
    sized_step(kind, [s0, s1, s2], [w0, w1])
}

fn totals(p: &Program) -> (u64, u64, u64) {
    (p.host_bytes(), p.internal_movement_bytes(), p.total_mul_elems())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn repeat_compression_is_an_exact_encoding(
        segments in proptest::collection::vec(
            (proptest::collection::vec(step_spec(), 1..4), 0u64..12, 0u8..4),
            1..5,
        ),
    ) {
        // Each segment pushes one block `times` times. Shape 0 pushes the
        // previous block again, so runs of equal blocks must merge; shape 1
        // nests the new block in an inner repeat after a head step.
        let mut prog = Program::new();
        let mut explicit = Program::new();
        let mut block: Vec<Step> = Vec::new();
        for (specs, times, shape) in &segments {
            if *shape != 0 || block.is_empty() {
                block = specs.iter().map(spec_step).collect();
                if *shape == 1 {
                    block = vec![spec_step(&specs[0]), Step::repeat(3, block)];
                }
            }
            for _ in 0..*times {
                explicit.extend(block.iter().cloned());
            }
            prog.push_block_times(&mut block.clone(), *times);
        }

        // The compressed program denotes exactly the pushed blocks…
        let unrolled = prog.unroll();
        prop_assert_eq!(&unrolled, &explicit.unroll());
        prop_assert_eq!(prog.unrolled_len(), explicit.unrolled_len());
        // …and its push-time totals equal the totals recomputed from the
        // unrolled stream.
        prop_assert_eq!(totals(&prog), totals(&explicit));
        prop_assert_eq!(totals(&prog), totals(&unrolled));
        // Equal blocks pushed in a row are one repeat.
        for pair in prog.steps().windows(2) {
            if let [Step::Repeat { body: a, .. }, Step::Repeat { body: b, .. }] = pair {
                prop_assert_ne!(a, b, "adjacent repeats of one block did not merge");
            }
        }
    }

    #[test]
    fn repeat_push_block_times_matches_explicit_blocks(
        specs in proptest::collection::vec(step_spec(), 1..4),
        times in 1u64..200,
        kind in 0u8..SIZED_STEP_KINDS,
    ) {
        let block: Vec<Step> = specs.iter().map(spec_step).collect();

        // Pre-counted identical blocks…
        let mut prog = Program::new();
        prog.push_block_times(&mut block.clone(), times);
        // …then a single tail step.
        let tail = sized_step(kind, [7, 7, 7], [kind as u32, 3]);
        prog.push_block_times(&mut vec![tail.clone()], 1);

        let mut expected = Program::new();
        for _ in 0..times {
            for s in &block {
                expected.push(s.clone());
            }
        }
        expected.push(tail);

        let unrolled = prog.unroll();
        prop_assert_eq!(unrolled.steps(), expected.steps());
        prop_assert_eq!(totals(&prog), totals(&expected));
    }
}

// ---------------------------------------------------------------------------
// (3) Token flow vs layer flow functional numerics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn token_and_layer_flow_encoders_agree(
        enc_layers in 1usize..3,
        heads in 1usize..4,
        dh in 1usize..5,
        d_ff in 1usize..9,
        seq in 1usize..10,
        banks_token in 1usize..7,
        banks_layer in 1usize..7,
        seed in 0u64..10_000,
    ) {
        let d = heads * dh;
        let cfg = ModelConfig {
            name: "fuzz-enc".into(),
            encoder_layers: enc_layers,
            decoder_layers: 0,
            d_model: d,
            heads,
            d_ff,
            cross_attention: false,
        };
        let weights = ModelWeights::random(&cfg, seed);
        let input = Matrix::from_fn(seq, d, |r, c| {
            (((r * 131 + c * 17 + seed as usize) % 97) as f32 / 97.0 - 0.5) * 1.2
        });

        for kind in [SoftmaxKind::Exact, SoftmaxKind::HardwareTaylor] {
            let mut token = input.clone();
            let mut layer = input.clone();
            for w in &weights.encoder {
                token = encoder_layer_sharded(&token, w, heads, kind, banks_token);
                layer = encoder_layer_layerflow(&layer, w, heads, kind, banks_layer);
            }
            // Same per-row math, but the shard boundaries reorder the
            // Σ_j probs·V accumulation over the sequence dimension, so
            // different bank counts drift by a few f32 ulps (observed
            // ~6e-8 per layer on unit-scale values). 1e-5 gives ~100×
            // headroom while still catching any real math divergence.
            let diff = token.max_abs_diff(&layer);
            prop_assert!(
                diff <= 1e-5,
                "token flow ({banks_token} banks) vs layer flow ({banks_layer} banks) \
                 diverged by {diff} ({kind:?})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (4) Executor pricing: jobs=1 vs jobs=N
// ---------------------------------------------------------------------------

/// (arch, enc, dec, heads, dh, seq, decode, batch); d_ff is derived.
type CellSpec = (u8, usize, usize, usize, usize, usize, usize, usize);

fn spec_cells(specs: &[CellSpec]) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for &(arch, enc, dec, heads, dh, seq, decode, batch) in specs {
        let w = small_workload(enc, dec, heads, dh, 4 * heads * dh, seq, decode, batch);
        for df in DataflowKind::ALL {
            cells.push(GridCell::custom(arch_for(arch), df, &w));
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grid_pricing_is_job_count_invariant(
        specs in proptest::collection::vec(
            (0u8..4, 1usize..3, 0usize..3, 1usize..4, 1usize..4, 1usize..9, 0usize..5, 1usize..3),
            1..4,
        ),
        jobs in 2usize..9,
        want_obs in any::<bool>(),
    ) {
        let serial = run_grid(1, want_obs, want_obs, spec_cells(&specs));
        let pooled = run_grid(jobs, want_obs, want_obs, spec_cells(&specs));
        prop_assert_eq!(serial.len(), pooled.len());
        for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
            prop_assert_eq!(
                s.report.to_json().expect("serialize report"),
                p.report.to_json().expect("serialize report"),
                "cell {}: report diverged between jobs=1 and jobs={}", i, jobs
            );
            if want_obs {
                let (sm, pm) = (s.metrics.as_ref().unwrap(), p.metrics.as_ref().unwrap());
                prop_assert_eq!(
                    sm.to_json_string().expect("metrics"),
                    pm.to_json_string().expect("metrics"),
                    "cell {}: metrics diverged", i
                );
                let (st, pt) = (s.trace.as_ref().unwrap(), p.trace.as_ref().unwrap());
                prop_assert_eq!(
                    st.to_json_string().expect("trace"),
                    pt.to_json_string().expect("trace"),
                    "cell {}: trace diverged", i
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (5) + (6) Fault injection: error budget and typed failure
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn correctable_faults_stay_within_error_budget(
        arch in 0u8..4,
        df_idx in 0usize..2,
        (enc, heads, dh, seq) in (1usize..3, 1usize..4, 1usize..4, 1usize..9),
        stuck in proptest::collection::vec((0u32..2048, 1u32..32), 0..3),
        dividers in proptest::collection::vec(0u32..2048, 0..3),
        per_gib in 0.0f64..64.0,
        secded in any::<bool>(),
        seed in 0u64..(1u64 << 32),
    ) {
        // Shape-preserving faults only: no failed banks (re-sharding
        // changes the program) and no link faults (rerouting changes lump
        // latencies at the source). Every lump then prices at least as
        // high as fault-free — the error budget.
        let mut scenario = FaultScenario::empty(seed);
        scenario.ecc = if secded { EccScheme::Secded } else { EccScheme::Parity };
        scenario.faults = stuck
            .iter()
            .map(|&(bank, planes)| Fault::StuckBitPlanes { bank, planes })
            .chain(dividers.iter().map(|&bank| Fault::BrokenDivider { bank }))
            .collect();
        scenario.faults.push(Fault::TransientFlips { per_gib });

        let w = small_workload(enc, 0, heads, dh, 4 * heads * dh, seq, 0, 1);
        let df = DataflowKind::ALL[df_idx % DataflowKind::ALL.len()];
        let acc = Accelerator::new(arch_for(arch));
        let base = acc.simulate(&w, df);
        let degraded = acc
            .simulate_degraded(&w, df, &scenario)
            .expect("correctable scenario must not error");
        let f = degraded.faults.clone().expect("non-empty scenario carries accounting");

        prop_assert_eq!(f.uncorrectable, 0, "nothing here is uncorrectable");
        prop_assert!(
            degraded.stats.latency_ns >= base.stats.latency_ns,
            "degradation must never speed the machine up: {} < {}",
            degraded.stats.latency_ns,
            base.stats.latency_ns
        );
    }

    #[test]
    fn uncorrectable_faults_surface_as_sim_error(
        (enc, heads, dh) in (1usize..3, 1usize..4, 1usize..4),
        seq in 8usize..64,
        per_gib in 2e9f64..4e9,
        seed in 0u64..(1u64 << 32),
    ) {
        // A flip storm with no ECC: every inter-bank transfer of even a few
        // bytes draws at least one flip, and with `EccScheme::None` the
        // first one must surface as a typed error — never a panic, never a
        // silently corrupted report. Token dataflow with seq >= 8 shards
        // across banks, so ring traffic is guaranteed.
        let mut scenario = FaultScenario::empty(seed);
        scenario.ecc = EccScheme::None;
        scenario.faults = vec![Fault::TransientFlips { per_gib }];

        let w = small_workload(enc, 0, heads, dh, 4 * heads * dh, seq, 0, 1);
        let acc = Accelerator::new(arch_for(0)); // TransPIM: ring broadcasts present
        let err = acc
            .simulate_degraded(&w, DataflowKind::Token, &scenario)
            .expect_err("unprotected flip storm must fail");
        prop_assert!(matches!(err, SimError::Uncorrectable { .. }), "{}", err);
    }
}

// ---------------------------------------------------------------------------
// (7) Statistics accounting: lump order
// ---------------------------------------------------------------------------

const SCOPES: [&str; 4] = ["init", "enc.fc", "dec.attn", "dec.ffn"];

/// (scope, category, latency mantissa, latency exponent, energy, bytes,
/// sort key).
type LumpSpec = (usize, usize, f64, i32, f64, f64, u64);

fn record(lumps: &[LumpSpec], latency_scale: f64) -> (SimStats, ScopedStats) {
    let mut e = Engine::new();
    e.set_latency_scale(latency_scale);
    for &(scope, category, mantissa, exponent, energy_pj, bytes, _) in lumps {
        e.set_scope(SCOPES[scope]);
        e.lump(Category::ALL[category], mantissa * 10f64.powi(exponent), energy_pj, bytes);
    }
    e.into_stats().expect("every lump is inside the tally range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lump_order_is_irrelevant(
        mut lumps in proptest::collection::vec(
            (0usize..4, 0usize..4, 0.0f64..1.0, -6i32..9, 0.0f64..1e9, 0.0f64..1e7, any::<u64>()),
            1..64,
        ),
        latency_scale in 1.0f64..1.1,
    ) {
        let first = record(&lumps, latency_scale);
        lumps.sort_by_key(|l| l.6);
        prop_assert_eq!(first, record(&lumps, latency_scale));
    }

    #[test]
    fn engine_total_is_the_exact_sum_of_its_scopes(
        segments in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0usize..4, 0usize..4, 0.0f64..1.0, -12i32..52, 0.0f64..1e9, 0.0f64..1e7),
                    1..8,
                ),
                1u64..6,
            ),
            1..6,
        ),
        huge_exponent in 63i32..66,
        latency_scale in 1.0f64..1.1,
    ) {
        // One lump in sixteen is huge (below 2^63, 2^64 or 2^65 ns), a few
        // per case, so in-range totals and every kind of overflow occur:
        // one lump out of range, one scope's sum, or only the sum of the
        // scopes.
        let latency = |mantissa: f64, exponent: i32| {
            mantissa * 2f64.powi(if exponent < 48 { exponent } else { huge_exponent })
        };
        let mut scoped = Engine::new();
        scoped.set_latency_scale(latency_scale);
        let mut single = Engine::new();
        single.set_latency_scale(latency_scale);
        for (body, count) in &segments {
            let record_body = |e: &mut Engine| {
                for &(scope, category, mantissa, exponent, energy_pj, bytes) in body {
                    e.set_scope(SCOPES[scope]);
                    e.lump(Category::ALL[category], latency(mantissa, exponent), energy_pj, bytes);
                }
            };
            // The executor's protocol: a body that ends in another scope
            // than it started in is marked again after one iteration.
            let mut mark = scoped.mark();
            record_body(&mut scoped);
            let mut rest = count - 1;
            if rest > 0 && !scoped.in_scope_of(&mark) {
                scoped.repeat_since(mark, 0);
                mark = scoped.mark();
                record_body(&mut scoped);
                rest -= 1;
            }
            scoped.repeat_since(mark, rest);
            for _ in 0..*count {
                for &(_, category, mantissa, exponent, energy_pj, bytes) in body {
                    let l = latency(mantissa, exponent);
                    single.lump(Category::ALL[category], l, energy_pj, bytes);
                }
            }
        }
        prop_assert_eq!(total_bits(scoped), total_bits(single));
    }
}

/// The bits of an engine's total statistics, or its range error.
fn total_bits(e: Engine) -> Result<Vec<u64>, OutOfRange> {
    let (s, _) = e.into_stats()?;
    let fields = [[s.latency_ns, s.bytes_moved].as_slice(), &s.time_ns, &s.energy_pj].concat();
    Ok(fields.into_iter().map(f64::to_bits).collect())
}

// ---------------------------------------------------------------------------
// (8) Degraded pricing: compressed vs unrolled
// ---------------------------------------------------------------------------

/// One generated program segment: kind (plain steps, a repeat, a repeat
/// whose body is one step and a nested repeat), the body's steps each with
/// a scope selector (below 3 opens a scope before the step), and the
/// repeat counts.
type SegmentSpec = (u8, Vec<(StepSpec, u8)>, u64, u64);

/// The steps of a segment body.
fn segment_body(specs: &[(StepSpec, u8)]) -> Vec<Step> {
    let mut body = Vec::new();
    for (spec, scope) in specs {
        if let Some(label) = SCOPES.get(usize::from(*scope)) {
            body.push(Step::scope(*label));
        }
        body.push(spec_step(spec));
    }
    body
}

fn segment_steps((kind, specs, count, outer): &SegmentSpec) -> Vec<Step> {
    match kind % 3 {
        0 => segment_body(specs),
        1 => vec![Step::repeat(*count, segment_body(specs))],
        _ => {
            let inner = Step::repeat(*count, segment_body(specs));
            let body = [segment_body(&specs[..1]), vec![inner]].concat();
            vec![Step::repeat(*outer, body)]
        }
    }
}

/// Price `program` under `scenario`: the statistics or the error, and the
/// session's accounting either way.
fn price_under(
    arch: &transpim::arch::ArchConfig,
    program: &Program,
    scenario: &FaultScenario,
) -> (Result<(SimStats, ScopedStats), SimError>, FaultStats) {
    let mut session = FaultSession::new(scenario, arch.system_info()).expect("valid scenario");
    let mut exec = Executor::new(arch.clone());
    exec.apply_ring_faults(&session);
    let priced = exec.run_degraded_with_sink(program, &mut session, SinkHandle::null());
    (priced, session.stats())
}

/// Flip rates per GiB: none; rare; about one per fuzz-sized transfer, so
/// iteration 0 often flips; and at least one per byte, so every moving
/// lump flips.
const FLIP_RATES: [f64; 4] = [0.0, 1.0, 1024.0, (1u64 << 30) as f64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn degraded_compression_is_an_exact_encoding(
        arch in 0u8..4,
        segments in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((step_spec(), 0u8..8), 1..4), 1u64..24, 1u64..5),
            1..4,
        ),
        (rate, ecc) in (0usize..4, 0u8..3),
        stuck in proptest::collection::vec((any::<u32>(), 1u32..16), 0..3),
        dividers in proptest::collection::vec(any::<u32>(), 0..3),
        dead in proptest::collection::vec(0u32..8, 0..3),
        seed in any::<u64>(),
    ) {
        let arch = arch_for(arch);
        let sys = arch.system_info();
        let mut program = Program::new();
        program.extend(segments.iter().flat_map(segment_steps));
        let mut scenario = FaultScenario::empty(seed);
        scenario.ecc = [EccScheme::Secded, EccScheme::Parity, EccScheme::None][usize::from(ecc)];
        scenario.faults = stuck
            .iter()
            .map(|&(bank, planes)| Fault::StuckBitPlanes { bank: bank % sys.total_banks, planes })
            .chain(dividers.iter().map(|&bank| Fault::BrokenDivider { bank: bank % sys.total_banks }))
            .chain(dead.iter().map(|&group| Fault::DeadLink { group }))
            .chain((rate > 0).then(|| Fault::TransientFlips { per_gib: FLIP_RATES[rate] }))
            .collect();

        let (compressed, compressed_faults) = price_under(&arch, &program, &scenario);
        let (unrolled, unrolled_faults) = price_under(&arch, &program.unroll(), &scenario);
        prop_assert_eq!(compressed, unrolled);
        prop_assert_eq!(compressed_faults, unrolled_faults);
    }
}

// ---------------------------------------------------------------------------
// (9) Flip predicate: integer threshold vs float draw
// ---------------------------------------------------------------------------

/// An expected flip count of class `class`, from raw bits: uniform in
/// [0, 1); tiny, down to subnormals; dyadic (k / 2^m, where the threshold
/// is exact and the float comparison is on the edge); within a few ulps
/// below 1, or 1; or at least 1.
fn expected_flips(class: u8, bits: u64, scale: u32) -> f64 {
    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
    match class % 5 {
        0 => unit,
        1 => unit / 2f64.powi((scale % 1080) as i32),
        2 => (bits % (1 << 20)) as f64 / 2f64.powi(20 + (scale % 40) as i32),
        3 => f64::from_bits(1f64.to_bits() - bits % 8),
        _ => 1.0 + unit * 2f64.powi((scale % 70) as i32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flip_threshold_matches_drawn_flips(
        class in 0u8..5,
        bits in any::<u64>(),
        scale in any::<u32>(),
        hash in any::<u64>(),
        low in 0u64..(1 << 11),
    ) {
        let expected = expected_flips(class, bits, scale);
        let threshold = flip_threshold(expected);
        prop_assert!(threshold <= 1 << 53);
        // A random hash, and the hashes whose variate is the threshold and
        // one below it, with random low bits the variate drops.
        let mut hashes = vec![hash];
        if threshold < 1 << 53 {
            hashes.push(threshold << 11 | low);
        }
        if threshold > 0 {
            hashes.push((threshold - 1) << 11 | low);
        }
        for h in hashes {
            prop_assert_eq!(
                h >> 11 < threshold,
                drawn_flips(h, expected) > 0,
                "expected {:e} ({:#x}), threshold {}, hash {:#x}",
                expected,
                expected.to_bits(),
                threshold,
                h
            );
        }
    }

    #[test]
    fn clean_scan_matches_observed_draws(
        (class, bits, scale) in (0u8..5, any::<u64>(), any::<u32>()),
        bytes in proptest::collection::vec(1u64..(1 << 32), 0..6),
        seed in any::<u64>(),
    ) {
        // A rate that makes a transfer of 1 GiB expect `expected_flips`.
        let per_gib = expected_flips(class, bits, scale);
        let faults = vec![Fault::TransientFlips { per_gib }];
        let scenario = FaultScenario { seed, ecc: EccScheme::Secded, faults };
        let sys = arch_for(0).system_info();
        let mut s = FaultSession::new(&scenario, sys).expect("valid scenario");
        let iterations = 24;
        // Walk the iterations; after each, the scan of its logged
        // thresholds says whether the next one is flip-free, and the first
        // one's scan how many in a row are.
        let (mut predicted, mut clean_next, mut first_flip) = (0, true, iterations);
        for i in 0..=iterations {
            let mark = s.mark();
            let flipped = bytes
                .iter()
                .map(|&b| s.observe_transfer(b as f64))
                .fold(false, |any, o| any | (o != FlipOutcome::None));
            if i == 0 {
                predicted = s.clean_iterations(&mark, iterations);
            } else {
                prop_assert_eq!(clean_next, !flipped, "iteration {}", i);
                if flipped && first_flip == iterations {
                    first_flip = i - 1;
                }
            }
            clean_next = s.clean_iterations(&mark, 1) == 1;
            s.repeat_since(mark, 0);
        }
        prop_assert_eq!(predicted, first_flip);
    }
}

// ---------------------------------------------------------------------------
// (10) Chrome writer vs the reference writer
// ---------------------------------------------------------------------------

/// The buffered trace writer the Chrome sink replaced: every record kept
/// as a `ChromeEvent`, cloned and stably sorted on export (metadata
/// first, then `ts`, then `tid`), and written field by field with a
/// per-character string escaper and `Display` for numbers.
mod reference_chrome {
    use std::collections::BTreeMap;
    use std::fmt::Write;
    use transpim_obs::{ArgValue, ChromeEvent, CounterEvent, InstantEvent, SpanEvent, TrackId};

    #[derive(Default)]
    pub struct Writer {
        events: Vec<ChromeEvent>,
    }

    fn args_map(args: &[(&str, ArgValue)]) -> BTreeMap<String, ArgValue> {
        args.iter()
            .map(|(key, value)| match value {
                ArgValue::Label(id) => (key.to_string(), ArgValue::Num(*id as f64)),
                value => (key.to_string(), value.clone()),
            })
            .collect()
    }

    fn event(name: &str, cat: &str, ph: &str, ts: f64, dur: Option<f64>, tid: u64) -> ChromeEvent {
        let (name, cat, ph) = (name.to_owned(), cat.to_owned(), ph.to_owned());
        ChromeEvent { name, cat, ph, ts, dur, pid: 1, tid, args: BTreeMap::new() }
    }

    impl Writer {
        pub fn span(&mut self, e: &SpanEvent<'_>) {
            let ts = e.start_ns / 1000.0;
            let mut r = event(&e.name, &e.category, "X", ts, Some(e.dur_ns / 1000.0), e.track.0);
            r.args = args_map(e.args);
            self.events.push(r);
        }

        pub fn instant(&mut self, e: &InstantEvent<'_>) {
            let mut r = event(&e.name, &e.category, "i", e.ts_ns / 1000.0, None, e.track.0);
            r.args = args_map(e.args);
            self.events.push(r);
        }

        pub fn counter(&mut self, e: &CounterEvent<'_>) {
            let mut r = event(&e.name, "counter", "C", e.ts_ns / 1000.0, None, e.track.0);
            r.args.insert(e.series.to_string(), ArgValue::Num(e.value));
            self.events.push(r);
        }

        pub fn track_name(&mut self, track: TrackId, name: &str) {
            let mut r = event("thread_name", "__metadata", "M", 0.0, None, track.0);
            r.args.insert("name".to_owned(), ArgValue::Str(name.to_owned()));
            self.events.push(r);
        }

        pub fn to_json_string(&self) -> String {
            let mut events = self.events.clone();
            events.sort_by(|a, b| {
                let meta = |e: &ChromeEvent| u8::from(e.ph != "M");
                meta(a)
                    .cmp(&meta(b))
                    .then(a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal))
                    .then(a.tid.cmp(&b.tid))
            });
            let mut out = String::from("[");
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(e, &mut out);
            }
            out.push(']');
            out
        }
    }

    fn write_json(e: &ChromeEvent, out: &mut String) {
        out.push_str("{\"name\":");
        write_str(out, &e.name);
        out.push_str(",\"cat\":");
        write_str(out, &e.cat);
        out.push_str(",\"ph\":");
        write_str(out, &e.ph);
        out.push_str(",\"ts\":");
        write_f64(out, e.ts);
        if let Some(dur) = e.dur {
            out.push_str(",\"dur\":");
            write_f64(out, dur);
        }
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.pid, e.tid);
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, key);
                out.push(':');
                match value {
                    ArgValue::Num(n) => write_f64(out, *n),
                    ArgValue::Label(id) => write_f64(out, *id as f64),
                    ArgValue::Str(s) => write_str(out, s),
                }
            }
            out.push('}');
        }
        out.push('}');
    }

    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }
}

/// Names, categories and argument keys: plain, empty, and ones that need
/// escaping (quotes, backslashes, control characters) or are non-ASCII.
const TEXTS: [&str; 12] = [
    "fc",
    "enc.attn",
    "hop 3->4",
    "",
    "quote\"d",
    "back\\slash",
    "line\nbreak\r\t",
    "\u{1}ctl\u{8}\u{c}\u{1f}",
    "µs ✓ 日本",
    "count",
    "bytes",
    "\u{7f}del",
];

/// Timestamps in ns, with ties, zeros of both signs, integral and
/// fractional values and infinities. NaN is left out: the reference
/// writer's sort is not an order once a timestamp is NaN.
fn timestamp_ns(pick: u8, bits: u64) -> f64 {
    match pick % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => 1000.0 * f64::from((bits % 4) as u32),
        3 => 1234.5678,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => (bits >> 11) as f64 / 7.0,
        _ => -((bits % 1000) as f64) / 3.0,
    }
}

/// Numbers: integral, fractional, zeros of both signs, around 2^53, large,
/// non-finite, and arbitrary bit patterns.
fn number(pick: u8, bits: u64) -> f64 {
    let two_53 = 9_007_199_254_740_992.0;
    match pick % 16 {
        0 => 0.0,
        1 => -0.0,
        2 => (bits % 10_000) as f64,
        3 => (bits % 10_000) as f64 / 8.0,
        4 => (bits >> 11) as f64 / 3.0,
        5 => two_53 - 1.0,
        6 => two_53,
        7 => two_53 + 2.0,
        8 => -(two_53 - 1.0),
        9 => 1e21,
        10 => 1e300,
        11 => f64::NAN,
        12 => f64::INFINITY,
        13 => -1e-7,
        _ => f64::from_bits(bits),
    }
}

/// One generated record: `(kind, name, category, track, (ts pick, dur
/// pick, bits), args)`, each argument `(key, value kind, pick, bits)`.
type RecordSpec = (u8, usize, usize, u64, (u8, u8, u64), Vec<(usize, u8, u8, u64)>);

fn arg_value(kind: u8, pick: u8, bits: u64) -> ArgValue {
    match kind % 3 {
        0 => ArgValue::Num(number(pick, bits)),
        1 => ArgValue::Label(if pick < 128 { bits } else { bits % 64 }),
        _ => ArgValue::Str(TEXTS[bits as usize % TEXTS.len()].to_owned()),
    }
}

/// Feed `spec` to the sink under test and to the reference writer.
fn feed(spec: &RecordSpec, sink: &mut ChromeTraceSink, reference: &mut reference_chrome::Writer) {
    let (kind, name, cat, track, (ts_pick, dur_pick, bits), args) = spec;
    let (name, cat, track) = (TEXTS[*name], TEXTS[*cat], TrackId(*track));
    let ts = timestamp_ns(*ts_pick, *bits);
    let args: Vec<(&str, ArgValue)> =
        args.iter().map(|&(key, vk, pick, b)| (TEXTS[key], arg_value(vk, pick, b))).collect();
    match kind % 4 {
        0 => {
            let dur = number(*dur_pick, bits.rotate_left(7));
            let e = SpanEvent::new(name, cat, track, ts, dur).with_args(&args);
            sink.span(&e);
            reference.span(&e);
        }
        1 => {
            let e = InstantEvent::new(name, cat, track, ts).with_args(&args);
            sink.instant(&e);
            reference.instant(&e);
        }
        2 => {
            // A counter carries one sample: the generated arguments are
            // not used.
            let e = CounterEvent::sample(name, track, ts, cat, number(*dur_pick, *bits));
            sink.counter(&e);
            reference.counter(&e);
        }
        _ => {
            sink.track_name(track, name);
            reference.track_name(track, name);
        }
    }
}

fn record_spec() -> impl Strategy<Value = RecordSpec> {
    (
        0u8..4,
        0usize..TEXTS.len(),
        0usize..TEXTS.len(),
        0u64..4,
        (any::<u8>(), any::<u8>(), any::<u64>()),
        proptest::collection::vec((0usize..TEXTS.len(), 0u8..3, any::<u8>(), any::<u64>()), 0..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chrome_writer_matches_reference_writer(
        records in proptest::collection::vec(record_spec(), 0..40),
        cuts in proptest::collection::vec(0usize..40, 0..4),
    ) {
        let mut whole = ChromeTraceSink::new();
        let mut reference = reference_chrome::Writer::default();
        for r in &records {
            feed(r, &mut whole, &mut reference);
        }
        let expected = reference.to_json_string();
        prop_assert_eq!(whole.to_json_string().expect("renders"), expected.clone());

        // The same stream split into chunks, one sink per chunk, absorbed
        // in order.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(records.len())).collect();
        cuts.sort_unstable();
        let mut merged = ChromeTraceSink::new();
        let mut from = 0;
        for to in cuts.into_iter().chain([records.len()]) {
            let mut chunk = ChromeTraceSink::new();
            let mut ignored = reference_chrome::Writer::default();
            for r in &records[from..to] {
                feed(r, &mut chunk, &mut ignored);
            }
            merged.absorb(chunk);
            from = to;
        }
        prop_assert_eq!(merged.len(), records.len());
        prop_assert_eq!(merged.to_json_string().expect("renders"), expected);
    }
}

// ---------------------------------------------------------------------------
// (11) Matvec products: multiplies = reduced vectors × vector length
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matvec_products_are_conserved(
        enc in 0usize..3,
        dec in 1usize..3,
        heads in 1usize..4,
        dh in 1usize..5,
        d_ff in 1usize..9,
        seq in 1usize..65,
        decode in 2usize..6,
        batch in 1usize..3,
        banks in 1u32..17,
    ) {
        let w = small_workload(enc, dec, heads, dh, d_ff, seq, decode, batch);
        for df in DataflowKind::ALL {
            let program = df.compile(&w, banks).unroll();
            let token = df == DataflowKind::Token;
            let (mut scope, mut pairs) = ("", 0);
            for pair in program.steps().windows(2) {
                if let Step::Scope(s) = &pair[0] {
                    scope = s;
                }
                let (
                    Step::PointwiseMul { elems_per_bank, total_elems, .. },
                    Step::Reduce { vec_len, vectors_per_bank, total_vectors, .. },
                ) = (&pair[0], &pair[1])
                else {
                    continue;
                };
                let (len, encoder) = (u64::from(*vec_len), scope.starts_with("enc."));
                pairs += 1;
                // The Layer decoder's partial-sum reductions and both
                // decoders' per-bank matvec splits round up per bank, so
                // they are not products of their multiplies.
                if token || encoder {
                    prop_assert_eq!(
                        *total_elems,
                        total_vectors * len,
                        "{:?} {}: total multiplies vs {} vectors of {}",
                        df, scope, total_vectors, len
                    );
                }
                if token && encoder {
                    prop_assert_eq!(
                        *elems_per_bank,
                        vectors_per_bank * len,
                        "{:?} {}: per-bank multiplies vs {} vectors of {}",
                        df, scope, vectors_per_bank, len
                    );
                }
            }
            prop_assert!(pairs > 0, "{:?}: no multiply→reduce pair", df);
        }
    }
}

// ---------------------------------------------------------------------------
// (12) Streamed simulation vs the compiled program
// ---------------------------------------------------------------------------

/// The three fault cases: none; a seeded SECDED scenario with flips and
/// static faults, whose failed bank re-shards the program; unprotected
/// flips, which fail the run at the first flip.
fn fault_case(case: u8, seed: u64, rate: usize, total_banks: u32) -> FaultScenario {
    let flips = Fault::TransientFlips { per_gib: FLIP_RATES[rate] };
    let bank = |shift: u32| (seed >> shift) as u32 % total_banks;
    match case % 3 {
        0 => FaultScenario::empty(seed),
        1 => FaultScenario {
            seed,
            ecc: EccScheme::Secded,
            faults: vec![
                flips,
                Fault::FailedBank { bank: bank(0) },
                Fault::StuckBitPlanes { bank: bank(16), planes: 1 + bank(32) % 15 },
                Fault::BrokenDivider { bank: bank(48) },
                Fault::DeadLink { group: bank(8) % 8 },
            ],
        },
        _ => FaultScenario { seed, ecc: EccScheme::None, faults: vec![flips] },
    }
}

/// What `run` returns on a null sink, or on a trace and metrics sink
/// together with the bytes of both documents.
fn observed<T>(traced: bool, run: impl FnOnce(SinkHandle) -> T) -> (T, String, String) {
    if !traced {
        return (run(SinkHandle::null()), String::new(), String::new());
    }
    let chrome = ChromeTraceSink::shared();
    let metrics = MetricsSink::shared();
    let out = run(SinkHandle::fanout(vec![
        SinkHandle::from_shared(chrome.clone()),
        SinkHandle::from_shared(metrics.clone()),
    ]));
    let trace = chrome.borrow().to_json_string().expect("trace serializes");
    let metrics = metrics.borrow().to_json_string().expect("metrics serialize");
    (out, trace, metrics)
}

/// [`Accelerator::simulate_on`] with the program built first: the dump's
/// steps, priced by [`Executor::run_degraded_with_sink`].
fn simulate_compiled(
    acc: &Accelerator,
    w: &Workload,
    df: DataflowKind,
    scenario: &FaultScenario,
    sink: SinkHandle,
) -> Result<SimReport, SimError> {
    let arch = acc.arch();
    let mut session = FaultSession::new(scenario, arch.system_info())?;
    let program = acc.compile_degraded(w, df, &session);
    let mut exec = Executor::new(arch.clone());
    exec.apply_ring_faults(&session);
    let (stats, scoped) = exec.run_degraded_with_sink(&program, &mut session, sink)?;
    Ok(SimReport {
        system: arch.system_label(df.label()),
        arch: arch.kind,
        dataflow: df,
        workload: w.name.clone(),
        stats,
        scoped,
        total_ops: w.total_ops(),
        batch: w.batch,
        faults: (!session.is_empty()).then(|| session.stats()),
    })
}

/// A generated block stream: each block pushed `times` times. Shape 0
/// pushes the previous block again, so it merges into the repeat before
/// it; shape 1 is a new block; shape 2 a ring broadcast and the multiply
/// the pipelined ring fuses with it.
type BlockSpec = (Vec<StepSpec>, u64, u8);

fn push_blocks(specs: &[BlockSpec], out: &mut impl Emitter) {
    let mut block: Vec<Step> = Vec::new();
    for (steps, times, shape) in specs {
        if *shape != 0 || block.is_empty() {
            let (_, s0, s1, s2, w0, w1) = steps[0];
            block = match shape {
                2 => vec![
                    sized_step(8, [s0, s1, s2], [w0, w1]),
                    sized_step(0, [s1, s2, s0], [w1, w0]),
                ],
                _ => steps.iter().map(spec_step).collect(),
            };
        }
        out.push_block_times(&mut block.clone(), *times);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_simulation_prices_the_compiled_program(
        (arch, pipelined, df_idx) in (0u8..4, any::<bool>(), 0usize..2),
        (enc, dec, heads, dh) in (0usize..3, 0usize..3, 1usize..4, 1usize..4),
        (seq, decode, batch) in (1usize..65, 0usize..9, 1usize..4),
        blocks in proptest::collection::vec(
            (proptest::collection::vec(step_spec(), 1..4), 1u64..6, 0u8..3),
            1..5,
        ),
        (case, rate, seed) in (0u8..3, 1usize..4, any::<u64>()),
    ) {
        // At most two layers, at least one.
        let (enc, dec) = match (enc, dec) {
            (0, 0) => (1, 0),
            (e, d) if e + d > 2 => (1, 1),
            layers => layers,
        };
        let arch = arch_for(arch).with_pipelined_ring(pipelined);
        let scenario = fault_case(case, seed, rate, arch.system_info().total_banks);
        let w = small_workload(enc, dec, heads, dh, 4 * heads * dh, seq, decode, batch);
        let df = DataflowKind::ALL[df_idx];
        let acc = Accelerator::new(arch.clone());
        let json = |r: Result<SimReport, SimError>| r.map(|r| r.to_json().expect("report"));
        for traced in [false, true] {
            // The simulation streams the compiled steps into the pricer…
            let streamed = observed(traced, |sink| {
                let mut exec = Executor::new(arch.clone());
                json(acc.simulate_on(&mut exec, &w, df, &scenario, sink))
            });
            let compiled =
                observed(traced, |sink| json(simulate_compiled(&acc, &w, df, &scenario, sink)));
            prop_assert_eq!(&streamed, &compiled, "{} {} traced {}", arch.kind, df, traced);

            // …and a generated stream of repeated blocks prices as the
            // program it builds: merged repeats, fused ring pairs and all.
            let priced = |stream: bool, sink| {
                let mut session =
                    FaultSession::new(&scenario, arch.system_info()).expect("valid scenario");
                let mut exec = Executor::new(arch.clone());
                exec.apply_ring_faults(&session);
                let priced = if stream {
                    exec.run_streamed(&mut session, sink, |out| push_blocks(&blocks, out))
                } else {
                    let program = Program::build(|p| push_blocks(&blocks, p));
                    exec.run_degraded_with_sink(&program, &mut session, sink)
                };
                (priced, session.stats())
            };
            let streamed = observed(traced, |sink| priced(true, sink));
            let compiled = observed(traced, |sink| priced(false, sink));
            prop_assert_eq!(&streamed, &compiled, "{} blocks traced {}", arch.kind, traced);
        }
    }
}
