//! Serialization round-trips for every public data-structure type: configs,
//! workloads, programs, and reports must survive JSON (the CLI's
//! `--json`/`--dump-ir`/`file:` interfaces depend on it).

use proptest::prelude::*;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::DataflowKind;
use transpim::Accelerator;
use transpim_bench::fuzz::{arch_for, sized_step, small_workload, SIZED_STEP_KINDS};
use transpim_dataflow::ir::{Program, Step};
use transpim_dataflow::token_flow;
use transpim_hbm::config::HbmConfig;
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn hbm_config_roundtrips() {
    let mut cfg = HbmConfig::default();
    cfg.geometry.stacks = 4;
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn arch_config_roundtrips_all_kinds() {
    for kind in ArchKind::ALL {
        let a = ArchConfig::new(kind).with_acu(8, 2).with_stacks(2);
        assert_eq!(roundtrip(&a), a);
    }
}

#[test]
fn workloads_and_models_roundtrip() {
    for w in Workload::paper_suite() {
        assert_eq!(roundtrip(&w), w);
    }
    for m in ModelConfig::zoo() {
        assert_eq!(roundtrip(&m), m);
    }
}

#[test]
fn compiled_programs_roundtrip() {
    let mut w = Workload::imdb();
    w.model.encoder_layers = 1;
    let prog = token_flow::compile(&w, 256);
    let back = roundtrip(&prog);
    assert_eq!(back, prog);
    assert_eq!(back.len(), prog.len());
    assert_eq!(back.host_bytes(), prog.host_bytes());
}

#[test]
fn reports_roundtrip_with_scoped_stats() {
    let mut w = Workload::imdb();
    w.model.encoder_layers = 1;
    let r = Accelerator::new(ArchConfig::new(ArchKind::TransPim)).simulate(&w, DataflowKind::Token);
    let back = roundtrip(&r);
    // Floats may lose an ulp through JSON text; compare semantically.
    assert_eq!(back.system, r.system);
    assert_eq!(back.total_ops, r.total_ops);
    assert!((back.stats.latency_ns - r.stats.latency_ns).abs() < 1e-6 * r.stats.latency_ns);
    let (a, b) = (back.scoped.get("enc.fc").unwrap(), r.scoped.get("enc.fc").unwrap());
    assert!((a.latency_ns - b.latency_ns).abs() < 1e-6 * b.latency_ns);
    assert!((a.total_energy_pj() - b.total_energy_pj()).abs() < 1e-6 * b.total_energy_pj());
}

/// A step spec tuple for the property below: (kind, size, size, structural,
/// structural).
type SpecTuple = (u8, u64, u64, u32, u32);

fn spec_strategy() -> impl Strategy<Value = SpecTuple> {
    (0u8..SIZED_STEP_KINDS, any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>())
}

fn steps(specs: &[SpecTuple]) -> Vec<Step> {
    specs
        .iter()
        .map(|&(kind, s0, s1, w0, w1)| sized_step(kind, [s0, s1, s0 ^ s1], [w0, w1]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random programs — flat steps, a `Step::Repeat`, and a *nested*
    /// repeat — survive JSON byte-for-byte, keep their push-time totals,
    /// and keep the documented `{"steps":[...]}` wire shape.
    #[test]
    fn random_programs_roundtrip_and_keep_wire_shape(
        flat in proptest::collection::vec(spec_strategy(), 0..6),
        rep_body in proptest::collection::vec(spec_strategy(), 1..4),
        inner_body in proptest::collection::vec(spec_strategy(), 1..3),
        rep_count in 1u64..20,
        inner_count in 1u64..20,
    ) {
        let mut prog = Program::new();
        prog.extend(steps(&flat));
        prog.push(Step::repeat(rep_count, steps(&rep_body)));
        // Nested: an outer repeat whose body contains an inner repeat.
        let nested = Step::repeat(inner_count, steps(&inner_body));
        prog.push(Step::repeat(rep_count, vec![nested]));

        let json = serde_json::to_string(&prog).expect("serialize");
        let back: Program = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back, &prog);
        // Deserialization recomputes the push-time totals; they must match
        // the originals.
        prop_assert_eq!(back.host_bytes(), prog.host_bytes());
        prop_assert_eq!(back.internal_movement_bytes(), prog.internal_movement_bytes());
        prop_assert_eq!(back.total_mul_elems(), prog.total_mul_elems());
        prop_assert_eq!(back.unrolled_len(), prog.unrolled_len());

        // Wire shape: a single-key object {"steps": [...]} with one entry
        // per top-level step — the contract `--dump-ir` consumers parse.
        let value: serde_json::Value = serde_json::from_str(&json).expect("parse");
        let obj = value.as_object().expect("program must serialize as an object");
        prop_assert_eq!(obj.len(), 1, "unexpected extra top-level keys");
        let steps = obj.get("steps").expect("steps key").as_array().expect("steps array");
        prop_assert_eq!(steps.len(), prog.len());
    }

    /// Random simulation reports survive JSON: the serialized text is a
    /// fixed point (parse → re-serialize is identical), so report files
    /// are stable artifacts.
    #[test]
    fn random_reports_roundtrip(
        arch in 0u8..4,
        enc in 1usize..3,
        dec in 0usize..2,
        heads in 1usize..3,
        dh in 1usize..4,
        seq in 1usize..8,
        decode in 0usize..4,
        dataflow_token in any::<bool>(),
    ) {
        let w = small_workload(enc, dec, heads, dh, 2 * heads * dh, seq, decode, 1);
        let df = if dataflow_token { DataflowKind::Token } else { DataflowKind::Layer };
        let r = Accelerator::new(arch_for(arch)).simulate(&w, df);

        let json = serde_json::to_string(&r).expect("serialize");
        let back: transpim::report::SimReport = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(&back.system, &r.system);
        prop_assert_eq!(back.total_ops, r.total_ops);
        let json2 = serde_json::to_string(&back).expect("re-serialize");
        prop_assert_eq!(json, json2, "report JSON must be a serialization fixed point");
    }
}

#[test]
fn workload_file_format_is_stable() {
    // The exact JSON shape the CLI's `file:` loader documents.
    let json = r#"{
        "name": "custom",
        "model": {
            "name": "bert-base", "encoder_layers": 12, "decoder_layers": 0,
            "d_model": 768, "heads": 12, "d_ff": 3072, "cross_attention": false
        },
        "seq_len": 256, "decode_len": 0, "batch": 2
    }"#;
    let w: Workload = serde_json::from_str(json).expect("documented format parses");
    assert_eq!(w.seq_len, 256);
    assert_eq!(w.model.heads, 12);
}
