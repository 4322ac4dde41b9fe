//! Table II: area and power overhead of the TransPIM hardware, from the
//! analytic model seeded with the paper's synthesis results.

use super::{json, rule, Json};
use serde::Serialize;
use std::fmt::{self, Write};
use transpim::report::SimReport;
use transpim_acu::area::{table2, AreaModel};

#[derive(Serialize)]
struct Overhead {
    p_sub: u32,
    p_add: u32,
    overhead_mm2: f64,
    overhead_percent: f64,
    unit_power_mw_per_bank: f64,
    adder_tree_share: f64,
}

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    writeln!(out, "Table II: overhead breakdown of TransPIM")?;
    rule(out, 64)?;
    writeln!(out, "{:<16} {:>12} {:>10}", "unit/bank", "area (um^2)", "power (mW)")?;
    for (name, area, power) in [
        ("adder tree", table2::ADDER_TREE_UM2, table2::ADDER_TREE_MW),
        ("divider", table2::DIVIDER_UM2, table2::DIVIDER_MW),
        ("data buffer", table2::DATA_BUFFER_UM2, table2::DATA_BUFFER_MW),
        ("ring broadcast", table2::RING_BROADCAST_UM2, table2::RING_BROADCAST_MW),
        ("others", table2::OTHERS_UM2, table2::OTHERS_MW),
    ] {
        writeln!(out, "{name:<16} {area:>12.1} {power:>10.1}")?;
    }
    rule(out, 64)?;

    let mut rows = Vec::new();
    for (p_sub, p_add) in [(16u32, 4u32), (8, 4), (64, 4), (16, 1), (16, 16)] {
        let m = AreaModel::new(p_sub, p_add);
        let row = Overhead {
            p_sub,
            p_add,
            overhead_mm2: m.overhead_mm2(),
            overhead_percent: 100.0 * m.overhead_fraction(),
            unit_power_mw_per_bank: m.unit_power_mw(),
            adder_tree_share: m.adder_tree_share(),
        };
        writeln!(out, "P_sub={:<3} P_add={:<3} overhead {:>6.2} mm^2 ({:>5.2}% of {:.2} mm^2 8GB HBM2), adder-tree share {:>4.1}%",
            p_sub,
            p_add,
            row.overhead_mm2,
            row.overhead_percent,
            table2::HBM_8GB_MM2,
            100.0 * row.adder_tree_share
        )?;
        rows.push(row);
    }

    let reference = AreaModel::new(16, 4);
    writeln!(out, "\nreference design point: {:.2} mm^2 = {:.1}% overhead (paper: 2.15 mm^2, 4.0%), within the 25% density threshold: {}",
        reference.overhead_mm2(),
        100.0 * reference.overhead_fraction(),
        reference.within_density_threshold()
    )?;
    Ok(vec![json("table2_overhead", &rows)])
}
