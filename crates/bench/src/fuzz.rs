//! Deterministic input builders for the differential fuzz harness
//! (`tests/differential_fuzz.rs`).
//!
//! Property strategies generate plain integers; the functions here map them
//! onto valid domain values — arbitrary sized [`Step`]s, tiny but
//! structurally complete [`Workload`]s, and architecture picks — so the
//! strategies stay simple and every generated
//! input is well-formed by construction. Everything is a pure function of
//! its arguments: the same generated integers always denote the same
//! domain value, which keeps shrunk counterexamples meaningful.

use transpim::arch::{ArchConfig, ArchKind};
use transpim_dataflow::ir::{BankRange, Step};
use transpim_transformer::model::ModelConfig;
use transpim_transformer::workload::Workload;

/// Number of step kinds [`sized_step`] can build: every [`Step`] variant
/// with size fields (all but `Scope` and `Repeat`, which the harness
/// exercises separately).
pub const SIZED_STEP_KINDS: u8 = 15;

/// Build one sized step from generated integers. `kind` selects the
/// variant (mod [`SIZED_STEP_KINDS`]); `sizes` feed the work fields and
/// `structural` the others (widths, bank ranges, parallelism), reduced to
/// ranges the total accounting cannot overflow at fuzz scale, repeats
/// included (sizes < 2²⁰, counts ≤ 64).
pub fn sized_step(kind: u8, sizes: [u64; 3], structural: [u32; 2]) -> Step {
    let s = [sizes[0] % (1 << 20), sizes[1] % (1 << 20), sizes[2] % (1 << 20)];
    let bits = 1 + structural[0] % 16;
    let bits2 = 1 + structural[1] % 16;
    let banks = 1 + structural[1] % 64;
    let range = BankRange::new(structural[0] % 32, 2 + structural[1] % 15);
    let parallel = 1 + structural[0] % 4;
    match kind % SIZED_STEP_KINDS {
        0 => Step::PointwiseMul {
            elems_per_bank: s[0],
            total_elems: s[1],
            a_bits: bits,
            b_bits: bits2,
        },
        1 => Step::PointwiseAdd { elems_per_bank: s[0], total_elems: s[1], bits },
        2 => Step::Exp {
            elems_per_bank: s[0],
            total_elems: s[1],
            bits,
            order: 1 + structural[1] % 6,
        },
        3 => Step::Reduce {
            vec_len: (s[0] % (1 << 16)) as u32,
            bits,
            vectors_per_bank: s[1],
            total_vectors: s[2],
        },
        4 => Step::Recip { per_bank: s[0], total: s[1] },
        5 => Step::Replicate {
            value_bits: bits,
            copies: (s[0] % (1 << 10)) as u32,
            count_per_bank: s[1],
            total_count: s[2],
        },
        6 => Step::HostBroadcast { bytes: s[0], banks },
        7 => Step::HostScatter { total_bytes: s[0] },
        8 => Step::RingBroadcast {
            banks: range,
            bytes_per_hop: s[0],
            repeat: s[1] % (1 << 10),
            parallel,
        },
        9 => Step::OneToAll { src: range.start, banks: range, bytes: s[0], parallel },
        10 => Step::PairwiseReduceTree { banks: range, bytes: s[0], bits, elems: s[1], parallel },
        11 => Step::BroadcastDup { bytes: s[0], banks },
        12 => Step::IntraBankCopy { bytes_per_bank: s[0], total_bytes: s[1] },
        13 => Step::ShuffleAll { total_bytes: s[0] },
        _ => Step::MemTouch { bytes_per_bank: s[0], total_bytes: s[1] },
    }
}

/// A structurally complete workload small enough to compile and price in
/// well under a millisecond, from generated shape integers. Decoding is
/// only requested when there are decoder layers; cross-attention is wired
/// whenever both stacks exist.
#[allow(clippy::too_many_arguments)]
pub fn small_workload(
    enc_layers: usize,
    dec_layers: usize,
    heads: usize,
    dh: usize,
    d_ff: usize,
    seq: usize,
    decode: usize,
    batch: usize,
) -> Workload {
    assert!(enc_layers + dec_layers > 0, "model needs at least one layer");
    assert!(heads > 0 && dh > 0 && d_ff > 0 && seq > 0 && batch > 0, "empty workload dimension");
    let model = ModelConfig {
        name: format!("fuzz-e{enc_layers}d{dec_layers}h{heads}x{dh}"),
        encoder_layers: enc_layers,
        decoder_layers: dec_layers,
        d_model: heads * dh,
        heads,
        d_ff,
        cross_attention: enc_layers > 0 && dec_layers > 0,
    };
    Workload {
        name: format!("fuzz-L{seq}g{decode}b{batch}"),
        model,
        seq_len: seq,
        decode_len: if dec_layers > 0 { decode } else { 0 },
        batch,
    }
}

/// One of the four modeled architectures, by index (mod 4).
pub fn arch_for(idx: u8) -> ArchConfig {
    let kind = match idx % 4 {
        0 => ArchKind::TransPim,
        1 => ArchKind::TransPimNb,
        2 => ArchKind::OriginalPim,
        _ => ArchKind::Nbp,
    };
    ArchConfig::new(kind)
}
