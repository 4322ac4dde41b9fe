//! Ablation: the ring-broadcast schedule (Figure 9 generalized).
//!
//! Sweeps ring size and bank-group organization and reports the scheduler's
//! slot count against the two bounds the paper discusses: the per-group
//! serialization floor (`banks_per_group − 1` intra-group hops share one
//! link) and full shared-bus serialization (`N` hops). Also prices the
//! decoder's pairwise reduction tree across ring sizes.

use super::{json, Json};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::exec::Executor;
use transpim::report::SimReport;
use transpim_dataflow::ir::BankRange;

#[derive(Serialize)]
struct RingRow {
    banks: u32,
    buffered_slots: u32,
    buffered_ns: f64,
    unbuffered_slots: u32,
    unbuffered_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct TreeRow {
    banks: u32,
    latency_ns: f64,
    per_level_ns: f64,
}

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Ablation: ring-broadcast scheduling (2 KB per hop)")?;
    writeln!(
        out,
        "{:>8} {:>16} {:>18} {:>10}",
        "banks", "buffered (slots)", "unbuffered (slots)", "gain"
    )?;
    let bytes = 2048u64;
    let mut ring_rows = Vec::new();
    for banks in [8u32, 32, 128, 512, 2048] {
        let range = BankRange::new(0, banks);
        let mut buf = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut nb = Executor::new(ArchConfig::new(ArchKind::TransPimNb));
        let b = buf.ring_step_cost(range, bytes);
        let n = nb.ring_step_cost(range, bytes);
        let row = RingRow {
            banks,
            buffered_slots: b.slots,
            buffered_ns: b.latency_ns,
            unbuffered_slots: n.slots,
            unbuffered_ns: n.latency_ns,
            speedup: n.latency_ns / b.latency_ns,
        };
        writeln!(
            out,
            "{:>8} {:>9.0} ns ({:>2}) {:>11.0} ns ({:>3}) {:>9.1}x",
            banks,
            row.buffered_ns,
            row.buffered_slots,
            row.unbuffered_ns,
            row.unbuffered_slots,
            row.speedup
        )?;
        // The paper's Figure 9 example: 8 banks in 2 groups take 3 slots
        // buffered and 8 unbuffered.
        if banks == 8 {
            assert_eq!(row.buffered_slots, 3, "Figure 9 buffered schedule");
            assert_eq!(row.unbuffered_slots, 8, "Figure 9 unbuffered schedule");
        }
        ring_rows.push(row);
    }

    writeln!(out, "\nDecoder partial-sum reduction tree (2 KB partial sums):")?;
    writeln!(out, "{:>8} {:>14} {:>14}", "banks", "tree latency", "per level")?;
    let mut tree_rows = Vec::new();
    for banks in [8u32, 64, 512, 2048] {
        let range = BankRange::new(0, banks);
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let r = ex.reduce_tree_cost(range, bytes);
        let levels = 32 - banks.leading_zeros();
        let row = TreeRow {
            banks,
            latency_ns: r.latency_ns,
            per_level_ns: r.latency_ns / f64::from(levels.max(1)),
        };
        writeln!(out, "{:>8} {:>11.0} ns {:>11.0} ns", banks, row.latency_ns, row.per_level_ns)?;
        tree_rows.push(row);
    }
    writeln!(
        out,
        "\nBuffered ring steps stay near the per-group floor as rings grow (the\n\
         Figure 9 schedule scales \"with the same time complexity\"); without the\n\
         broadcast units every hop serializes on the shared channel buses."
    )?;
    Ok(vec![json("ablation_ring", &ring_rows), json("ablation_tree", &tree_rows)])
}
