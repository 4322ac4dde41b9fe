//! `decode_scaling` — wall-clock measurement of the decoder fast path.
//!
//! Times compile + price of the GPT decode workload at growing generation
//! lengths, twice per length: through the loop-compressed program the
//! compiler emits (`Step::Repeat` decode loop) and through its explicit
//! unrolled expansion (the shape the simulator used to walk). Verifies the
//! two price bitwise-identically, prints a table, and writes the
//! measurements to `results/BENCH_decode.json`.
//!
//! ```bash
//! cargo run --release -p transpim-bench --bin decode_scaling
//! cargo run --release -p transpim-bench --bin decode_scaling -- --reps 9
//! ```

use std::time::Instant;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim_bench::{note, rule, write_json};
use transpim_dataflow::token_flow;
use transpim_transformer::workload::Workload;

const DECODE_LENS: [usize; 3] = [256, 1024, 4096];
const BANKS: u32 = 2048;

#[derive(serde::Serialize)]
struct Row {
    decode_len: usize,
    compressed_steps: usize,
    unrolled_steps: u64,
    compressed_ms: f64,
    unrolled_ms: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct Doc {
    benchmark: String,
    reps: usize,
    rows: Vec<Row>,
    speedup_at_4096: f64,
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).filter(|&r| r >= 1).unwrap_or_else(
                    || {
                        note("error: --reps needs a positive integer");
                        std::process::exit(2);
                    },
                );
            }
            other => {
                note(format!("error: unknown option '{other}'"));
                eprintln!("usage: decode_scaling [--reps N]");
                std::process::exit(2);
            }
        }
    }
    let arch = ArchConfig::new(ArchKind::TransPim);
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14} {:>9}",
        "decode_len", "steps(comp)", "steps(unroll)", "comp ms", "unroll ms", "speedup"
    );
    rule(80);

    let mut rows = Vec::new();
    for decode in DECODE_LENS {
        let mut w = Workload::lm();
        w.decode_len = decode;

        // Sanity first, timing after: the two encodings must price the
        // same statistics before their wall clocks are worth comparing.
        let prog = token_flow::compile(&w, BANKS);
        let unrolled = prog.unroll();
        let (stats_c, _) = Executor::new(arch.clone()).run(&prog);
        let (stats_u, _) = Executor::new(arch.clone()).run(&unrolled);
        assert_eq!(stats_c, stats_u, "decode={decode}: compressed pricing diverged");

        let compressed_ms = time_ms(reps, || {
            let p = token_flow::compile(&w, BANKS);
            let mut ex = Executor::new(arch.clone());
            std::hint::black_box(ex.run(&p));
        });
        let unrolled_ms = time_ms(reps, || {
            let p = token_flow::compile(&w, BANKS).unroll();
            let mut ex = Executor::new(arch.clone());
            std::hint::black_box(ex.run(&p));
        });

        let row = Row {
            decode_len: decode,
            compressed_steps: prog.len(),
            unrolled_steps: prog.unrolled_len(),
            compressed_ms,
            unrolled_ms,
            speedup: unrolled_ms / compressed_ms,
        };
        println!(
            "{:>10} {:>14} {:>14} {:>14.3} {:>14.3} {:>8.1}x",
            row.decode_len,
            row.compressed_steps,
            row.unrolled_steps,
            row.compressed_ms,
            row.unrolled_ms,
            row.speedup
        );
        rows.push(row);
    }

    let speedup_at_4096 = rows.last().map_or(0.0, |r| r.speedup);
    let doc = Doc {
        benchmark: format!(
            "GPT decode compile+price, compressed vs unrolled, decode_len in {DECODE_LENS:?} (best of {reps})"
        ),
        reps,
        rows,
        speedup_at_4096,
    };
    write_json("BENCH_decode", &doc);
}
