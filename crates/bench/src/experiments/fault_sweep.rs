//! Fault sweep: throughput of Token-TransPIM under graceful degradation
//! as banks fail and ring links die.
//!
//! Two sweeps on one workload:
//!
//! * **failed banks** — tokens re-shard over the surviving pool, so
//!   throughput should decay roughly in proportion to the banks lost
//!   (the token dataflow has no single point of failure);
//! * **dead ring links** — broadcast traffic in the affected bank groups
//!   falls back to the shared channel bus (Figure 9's 8T path instead of
//!   3T), so a handful of dead links costs far less than losing the ring
//!   entirely.
//!
//! The injection seed is pinned, so reruns are byte-identical.

use super::{json, Json};
use crate::chart::bar_chart;
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::fault::{Fault, FaultScenario};
use transpim::report::{DataflowKind, SimReport};
use transpim_transformer::workload::Workload;

#[derive(Serialize)]
struct Row {
    sweep: &'static str,
    amount: u32,
    latency_ms: f64,
    throughput_gops: f64,
    relative_throughput: f64,
    overhead_latency_ms: f64,
    injected: u64,
    corrected: u64,
}

const FAILED_BANKS: [u32; 5] = [0, 64, 256, 512, 1024];
const DEAD_LINKS: [u32; 5] = [0, 8, 32, 128, 256];

const SEED: u64 = 20220402;

/// Fail `n` banks spread evenly across the system (worst case for token
/// sharding is irrelevant — any `n` banks shrink the pool identically —
/// but spreading keeps the scenario realistic).
fn failed_bank_scenario(n: u32, total: u32) -> FaultScenario {
    let mut s = FaultScenario::empty(SEED);
    let stride = (total / n.max(1)).max(1);
    s.faults = (0..n).map(|i| Fault::FailedBank { bank: (i * stride) % total }).collect();
    s
}

fn dead_link_scenario(n: u32) -> FaultScenario {
    let mut s = FaultScenario::empty(SEED);
    s.faults = (0..n).map(|g| Fault::DeadLink { group: g }).collect();
    s
}

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    // A long sequence (8 tokens/bank when healthy) so the re-sharded pool
    // shrinks smoothly — short sequences quantize to whole tokens per bank
    // and hide small losses behind one ceil() step.
    let mut w = Workload::synthetic_pegasus(16384);
    w.decode_len = 0;
    w.model.encoder_layers = 2; // keep the sweep snappy; shape is layer-independent
    let arch = ArchConfig::new(ArchKind::TransPim);
    let total_banks = arch.hbm.geometry.total_banks();
    let acc = Accelerator::new(arch);
    let mut rows: Vec<Row> = FAILED_BANKS
        .iter()
        .map(|&n| ("failed-banks", n, failed_bank_scenario(n, total_banks)))
        .chain(DEAD_LINKS.iter().map(|&n| ("dead-links", n, dead_link_scenario(n))))
        .map(|(sweep, amount, scenario)| {
            let r = acc
                .simulate_degraded(&w, DataflowKind::Token, &scenario)
                .unwrap_or_else(|e| panic!("{sweep} x{amount}: {e}"));
            let f = r.faults.clone().unwrap_or_default();
            Row {
                sweep,
                amount,
                latency_ms: r.latency_ms(),
                throughput_gops: r.throughput_gops(),
                // Both filled against the 0-fault cell below.
                relative_throughput: f64::NAN,
                overhead_latency_ms: f64::NAN,
                injected: f.injected,
                corrected: f.corrected,
            }
        })
        .collect();

    // Overhead is degraded minus fault-free: it covers re-sharding and
    // rerouting, which change the program rather than single lumps.
    for sweep in ["failed-banks", "dead-links"] {
        let (base_gops, base_ms) = rows
            .iter()
            .find(|r| r.sweep == sweep && r.amount == 0)
            .map_or((f64::NAN, f64::NAN), |r| (r.throughput_gops, r.latency_ms));
        let mut bars = Vec::new();
        for r in rows.iter_mut().filter(|r| r.sweep == sweep) {
            r.relative_throughput = r.throughput_gops / base_gops;
            r.overhead_latency_ms = r.latency_ms - base_ms;
            bars.push((format!("{} {}", sweep, r.amount), r.throughput_gops));
        }
        writeln!(out, "{}", bar_chart(&format!("throughput (GOP/s) vs {sweep}"), &bars, 48))?;
    }

    // Shape checks echoed for EXPERIMENTS.md: losing half the banks costs
    // about half the throughput; a few dead links cost only the affected
    // groups' 8T fallback.
    let rel = |sweep: &str, amount: u32| {
        rows.iter()
            .find(|r| r.sweep == sweep && r.amount == amount)
            .map(|r| r.relative_throughput)
            .unwrap_or(f64::NAN)
    };
    writeln!(
        out,
        "1024/2048 failed banks -> {:.2}x throughput; 256/512 dead links -> {:.2}x",
        rel("failed-banks", 1024),
        rel("dead-links", 256)
    )?;
    Ok(vec![json("fault_sweep", &rows)])
}
