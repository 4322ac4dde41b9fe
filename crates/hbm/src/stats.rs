//! Accounting types: operation categories, latency/energy/bandwidth counters.
//!
//! The phase engine accumulates into a private exact `Tally` and converts
//! to the f64 [`SimStats`]/[`ScopedStats`] view once, at the end of a run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Breakdown categories used throughout the paper's evaluation (Figure 11):
/// data movement (loading and intra-memory copies), non-reduction arithmetic,
/// reductions, and other operations (plain reads and stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Data loading and intra-memory copies (host loads, ring broadcast,
    /// buffer copies, RowClone).
    DataMovement,
    /// Non-reduction arithmetic (point-wise PIM ops, NBP MACs, exponent
    /// Taylor series).
    Arithmetic,
    /// Vector reductions (ACU adder trees, PIM shift-add reduction, NBP
    /// adder tree) and the Softmax normalization division.
    Reduction,
    /// Plain memory reads and stores of results.
    Other,
}

impl Category {
    /// All categories, in the order the paper's Figure 11 stacks them.
    pub const ALL: [Category; 4] =
        [Category::DataMovement, Category::Arithmetic, Category::Reduction, Category::Other];

    /// Stable index for array-based accumulation.
    pub fn index(self) -> usize {
        match self {
            Category::DataMovement => 0,
            Category::Arithmetic => 1,
            Category::Reduction => 2,
            Category::Other => 3,
        }
    }

    /// Whether this category counts as "computation" for the resource
    /// utilization metric of Section V-C.
    pub fn is_compute(self) -> bool {
        matches!(self, Category::Arithmetic | Category::Reduction)
    }

    /// Stable display label, also used as the trace-event category string.
    pub fn label(self) -> &'static str {
        match self {
            Category::DataMovement => "data-movement",
            Category::Arithmetic => "arithmetic",
            Category::Reduction => "reduction",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated simulation statistics.
///
/// `latency_ns` is wall-clock makespan; the per-category times partition it
/// (every engine phase is attributed to exactly one category), so
/// `time_by_category` sums to `latency_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Total makespan in nanoseconds.
    pub latency_ns: f64,
    /// Makespan attributed to each [`Category`] (indexed by
    /// [`Category::index`]).
    pub time_ns: [f64; 4],
    /// Energy in picojoules attributed to each [`Category`].
    pub energy_pj: [f64; 4],
    /// Total bytes read or written inside the memory system (for the
    /// Figure 12 average-bandwidth metric).
    pub bytes_moved: f64,
}

impl SimStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy across categories, in picojoules.
    pub fn total_energy_pj(&self) -> f64 {
        self.energy_pj.iter().sum()
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.total_energy_pj() * 1e-12
    }

    /// Latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.latency_ns * 1e-9
    }

    /// Average power in watts (energy / latency).
    ///
    /// Returns 0 for an empty run.
    pub fn average_power_w(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.total_energy_j() / self.latency_s()
        }
    }

    /// Average memory bandwidth usage in GB/s (Figure 12 metric: bytes read
    /// and written divided by latency).
    pub fn average_bandwidth_gbs(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.bytes_moved / self.latency_ns
        }
    }

    /// Fraction of time spent on computation (Section V-C utilization).
    pub fn compute_utilization(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            return 0.0;
        }
        Category::ALL
            .iter()
            .filter(|c| c.is_compute())
            .map(|c| self.time_ns[c.index()])
            .sum::<f64>()
            / self.latency_ns
    }

    /// Fraction of time per category.
    pub fn time_fraction(&self, category: Category) -> f64 {
        if self.latency_ns <= 0.0 {
            0.0
        } else {
            self.time_ns[category.index()] / self.latency_ns
        }
    }
}

impl Add for SimStats {
    type Output = SimStats;
    fn add(mut self, rhs: SimStats) -> SimStats {
        self += rhs;
        self
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, rhs: SimStats) {
        self.latency_ns += rhs.latency_ns;
        self.bytes_moved += rhs.bytes_moved;
        for i in 0..4 {
            self.time_ns[i] += rhs.time_ns[i];
            self.energy_pj[i] += rhs.energy_pj[i];
        }
    }
}

/// Per-scope statistics (e.g., per Transformer layer kind) for the layer-wise
/// breakdown of Figure 11(b). Keys are caller-chosen labels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScopedStats {
    scopes: BTreeMap<String, SimStats>,
}

impl ScopedStats {
    /// Empty scoped statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics for one scope, if any phases were recorded under it.
    pub fn get(&self, scope: &str) -> Option<&SimStats> {
        self.scopes.get(scope)
    }

    /// Iterate over `(scope, stats)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimStats)> {
        self.scopes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of all scopes.
    pub fn total(&self) -> SimStats {
        self.scopes.values().copied().fold(SimStats::new(), |a, b| a + b)
    }
}

impl FromIterator<(String, SimStats)> for ScopedStats {
    fn from_iter<I: IntoIterator<Item = (String, SimStats)>>(iter: I) -> Self {
        Self { scopes: iter.into_iter().collect() }
    }
}

/// One tally unit is 2^-64 ns, pJ or byte.
const UNITS_PER_ONE: f64 = 18_446_744_073_709_551_616.0; // 2^64

/// `x` in tally units. A normal `x` is `m · 2^(e - 1075)` for its 53-bit
/// mantissa `m` and biased exponent `e`, so in units it is `m · 2^(e - 1011)`:
/// a bit shift, exact for every `x` ≥ 2^-12 (its last mantissa bit is then
/// worth at least 2^-64). Finer bits of smaller values are truncated.
///
/// `None` if `x` is negative, not finite, or ≥ 2^64 — outside what a tally
/// holds.
fn to_units(x: f64) -> Option<u128> {
    if !(0.0..UNITS_PER_ONE).contains(&x) {
        return None;
    }
    let bits = x.to_bits();
    let shift = ((bits >> 52) & 0x7ff) as i32 - 1011;
    let m = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    Some(match shift {
        0.. => m << shift,
        -52..=-1 => m >> -shift,
        // Zero, subnormals and anything below 2^-64.
        _ => 0,
    })
}

/// The nearest f64 to `u` tally units.
pub(crate) fn from_units(u: u128) -> f64 {
    u as f64 / UNITS_PER_ONE
}

/// A simulated value or total left the tally range: 2^64 ns (about 584
/// simulated years), pJ, bytes or fault events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange;

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("simulated totals exceed the tally range of 2^64 ns, pJ, bytes or fault events")
    }
}

impl std::error::Error for OutOfRange {}

/// `a + b`, saturating and raising `out_of_range` when the total leaves
/// the tally range.
fn add_units(a: u128, b: u128, out_of_range: &mut bool) -> u128 {
    a.checked_add(b).unwrap_or_else(|| {
        *out_of_range = true;
        u128::MAX
    })
}

/// One lump in tally units: converted once, recorded in several tallies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lump {
    category: usize,
    time: u128,
    energy: u128,
    bytes: u128,
    /// Whether every value was inside the tally range; one that was not is
    /// recorded as zero and marks each tally it enters.
    in_range: bool,
}

impl Lump {
    /// A lump of `category`.
    pub(crate) fn new(category: Category, latency_ns: f64, energy_pj: f64, bytes: f64) -> Self {
        let (time, energy, bytes) = (to_units(latency_ns), to_units(energy_pj), to_units(bytes));
        Self {
            category: category.index(),
            in_range: time.is_some() && energy.is_some() && bytes.is_some(),
            time: time.unwrap_or(0),
            energy: energy.unwrap_or(0),
            bytes: bytes.unwrap_or(0),
        }
    }
}

/// Exact statistics accumulator: time, energy, bytes moved and lumps
/// recorded per [`Category`], as `u128` counts of 2^-64 ns, pJ and bytes
/// (lumps are plain counts).
///
/// Integer addition is associative, so a tally does not depend on the order
/// its lumps arrive in, and a repeated body adds exactly as body × count
/// ([`Tally::repeat_since`]). Each field holds totals below 2^64 ns, pJ
/// or bytes: 2^64 ns is about 584 simulated years. A value or total
/// outside that range saturates and sets a sticky flag instead of
/// panicking, and [`Tally::to_stats`] reports it once, at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Tally {
    time: [u128; 4],
    energy: [u128; 4],
    bytes: [u128; 4],
    lumps: [u128; 4],
    out_of_range: bool,
}

/// What one [`Category`] recorded between two snapshots of a [`Tally`]
/// (see [`Tally::since`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CategoryDelta {
    /// Time, in tally units, so deltas can be laid end to end exactly.
    pub(crate) time: u128,
    /// Energy, in pJ.
    pub(crate) energy_pj: f64,
    /// Bytes moved.
    pub(crate) bytes: f64,
    /// Lumps recorded.
    pub(crate) lumps: u64,
}

impl Tally {
    /// Record one lump.
    pub(crate) fn record(&mut self, lump: &Lump) {
        let c = lump.category;
        let flag = &mut self.out_of_range;
        *flag |= !lump.in_range;
        self.time[c] = add_units(self.time[c], lump.time, flag);
        self.energy[c] = add_units(self.energy[c], lump.energy, flag);
        self.bytes[c] = add_units(self.bytes[c], lump.bytes, flag);
        self.lumps[c] += 1;
    }

    /// Whether any lump was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.lumps == [0; 4]
    }

    /// What `category` recorded since the snapshot `before`.
    pub(crate) fn since(&self, before: &Tally, category: Category) -> CategoryDelta {
        let c = category.index();
        CategoryDelta {
            time: self.time[c] - before.time[c],
            energy_pj: from_units(self.energy[c] - before.energy[c]),
            bytes: from_units(self.bytes[c] - before.bytes[c]),
            lumps: (self.lumps[c] - before.lumps[c]) as u64,
        }
    }

    /// Add what was recorded since the snapshot `before` another `times`
    /// times. Fields the body left unchanged are skipped.
    pub(crate) fn repeat_since(&mut self, before: &Tally, times: u64) {
        let mut flag = self.out_of_range;
        let fields = [&mut self.time, &mut self.energy, &mut self.bytes, &mut self.lumps];
        let befores = [&before.time, &before.energy, &before.bytes, &before.lumps];
        for (xs, bs) in fields.into_iter().zip(befores) {
            for (x, &b) in xs.iter_mut().zip(bs) {
                let delta = *x - b;
                if delta != 0 {
                    let repeated = delta.checked_mul(u128::from(times)).unwrap_or_else(|| {
                        flag = true;
                        u128::MAX
                    });
                    *x = add_units(*x, repeated, &mut flag);
                }
            }
        }
        self.out_of_range = flag;
    }

    /// Total time recorded, in tally units (saturating: a total past the
    /// range fails [`Tally::to_stats`]).
    pub(crate) fn time_units(&self) -> u128 {
        self.time.iter().fold(0, |a, &b| a.saturating_add(b))
    }

    /// Total time recorded: the makespan, in ns.
    pub(crate) fn latency_ns(&self) -> f64 {
        from_units(self.time_units())
    }

    /// Time recorded under `category`, in ns.
    pub(crate) fn time_ns(&self, category: Category) -> f64 {
        from_units(self.time[category.index()])
    }

    /// The f64 view.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if a recorded value, or a total, ever left the tally
    /// range.
    pub(crate) fn to_stats(self) -> Result<SimStats, OutOfRange> {
        let mut flag = self.out_of_range;
        let time = self.time.iter().fold(0, |a, &b| add_units(a, b, &mut flag));
        let bytes = self.bytes.iter().fold(0, |a, &b| add_units(a, b, &mut flag));
        if flag {
            return Err(OutOfRange);
        }
        Ok(SimStats {
            latency_ns: from_units(time),
            time_ns: self.time.map(from_units),
            energy_pj: self.energy.map(from_units),
            bytes_moved: from_units(bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(lumps: &[(Category, f64, f64, f64)]) -> Tally {
        let mut t = Tally::default();
        for &(c, l, e, b) in lumps {
            t.record(&Lump::new(c, l, e, b));
        }
        t
    }

    #[test]
    fn record_partitions_latency() {
        let s = tally(&[
            (Category::DataMovement, 10.0, 100.0, 64.0),
            (Category::Arithmetic, 30.0, 300.0, 0.0),
            (Category::Reduction, 10.0, 50.0, 0.0),
        ])
        .to_stats()
        .unwrap();
        assert_eq!(s.latency_ns, 50.0);
        assert_eq!(s.time_ns.iter().sum::<f64>(), s.latency_ns);
        assert_eq!(s.total_energy_pj(), 450.0);
        assert!((s.compute_utilization() - 0.8).abs() < 1e-12);
        assert!((s.average_bandwidth_gbs() - 64.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn power_is_energy_over_time() {
        let s = tally(&[(Category::Arithmetic, 1e9, 5e12, 0.0)]).to_stats().unwrap(); // 1 s, 5 J
        assert!((s.average_power_w() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_dont_divide_by_zero() {
        let s = SimStats::new();
        assert_eq!(s.average_power_w(), 0.0);
        assert_eq!(s.average_bandwidth_gbs(), 0.0);
        assert_eq!(s.compute_utilization(), 0.0);
        assert!(Tally::default().is_empty());
        assert_eq!(Tally::default().to_stats(), Ok(s));
    }

    #[test]
    fn scoped_total_matches_sum() {
        let fc = SimStats { latency_ns: 8.0, time_ns: [0.0, 5.0, 3.0, 0.0], ..SimStats::new() };
        let attn = SimStats { latency_ns: 7.0, time_ns: [7.0, 0.0, 0.0, 0.0], ..SimStats::new() };
        let s: ScopedStats =
            [("fc".to_owned(), fc), ("attn".to_owned(), attn)].into_iter().collect();
        assert_eq!(s.total().latency_ns, 15.0);
        assert_eq!(s.get("fc").unwrap().latency_ns, 8.0);
        assert!(s.get("nope").is_none());
        assert_eq!(s.iter().map(|(k, _)| k).collect::<Vec<_>>(), ["attn", "fc"]);
    }

    #[test]
    fn conversion_is_exact_from_two_to_the_minus_twelve() {
        let units = |x| to_units(x).unwrap();
        let tiny = 2f64.powi(-12);
        assert_eq!(units(0.0), 0);
        assert_eq!(units(tiny), 1 << 52);
        assert_eq!(from_units(units(tiny)), tiny);
        // A subnormal is below the tally's resolution.
        assert_eq!(units(f64::MIN_POSITIVE / 4.0), 0);
        assert_eq!(from_units(units(1e18)), 1e18);
        // Finer bits than 2^-64 are truncated, never rounded up.
        assert_eq!(units(1.5 * 2f64.powi(-64)), 1);
        assert_eq!(units(2f64.powi(-65)), 0);
        assert_eq!(units(-0.0), 0);
        assert_eq!(units(2f64.powi(63)), 1 << 127);
        // Random values in [2^-12, 2^40] round-trip bit for bit.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 2f64.powf(-12.0 + 52.0 * (x >> 11) as f64 / (1u64 << 53) as f64);
            assert_eq!(from_units(units(v)), v, "{v} did not round-trip");
        }
    }

    #[test]
    fn values_outside_the_range_are_rejected() {
        for x in [-1.0, f64::NAN, f64::INFINITY, UNITS_PER_ONE] {
            assert_eq!(to_units(x), None, "{x}");
        }
        assert_eq!(to_units(UNITS_PER_ONE - 4096.0), Some(u128::MAX - (1 << 64) * 4096 + 1));
    }

    #[test]
    fn an_out_of_range_lump_fails_the_run_once_at_the_end() {
        let mut t = tally(&[(Category::Other, 1.0, 2.0, 3.0)]);
        t.record(&Lump::new(Category::Arithmetic, 1.0, UNITS_PER_ONE, 0.0));
        // Sticky: later in-range lumps do not clear it.
        t.record(&Lump::new(Category::Other, 1.0, 2.0, 3.0));
        assert_eq!(t.to_stats(), Err(OutOfRange));
    }

    #[test]
    fn total_overflow_is_caught() {
        // Each lump is in range; their sum is not.
        let big = UNITS_PER_ONE / 2.0;
        assert_eq!(tally(&[(Category::Other, big, 0.0, 0.0); 2]).to_stats(), Err(OutOfRange));
        // The same for the sum over categories.
        let split = [(Category::Other, big, 0.0, 0.0), (Category::Arithmetic, big, 0.0, 0.0)];
        assert_eq!(tally(&split).to_stats(), Err(OutOfRange));
        // And for bytes.
        let split = [(Category::Other, 0.0, 0.0, big), (Category::Arithmetic, 0.0, 0.0, big)];
        assert_eq!(tally(&split).to_stats(), Err(OutOfRange));
    }

    #[test]
    fn repeat_overflow_is_caught() {
        let before = Tally::default();
        let mut t = tally(&[(Category::Other, 2f64.powi(40), 0.0, 0.0)]);
        t.repeat_since(&before, 1 << 30);
        assert_eq!(t.to_stats(), Err(OutOfRange));
        // A multiplication that overflows u128 outright.
        let mut t = tally(&[(Category::Other, 2f64.powi(40), 0.0, 0.0)]);
        t.repeat_since(&before, u64::MAX);
        assert_eq!(t.to_stats(), Err(OutOfRange));
    }

    #[test]
    fn repeat_since_multiplies_the_recorded_delta() {
        let mut t = tally(&[(Category::Arithmetic, 3.25, 1.5, 0.0)]);
        let before = t;
        let lump = Lump::new(Category::Reduction, 0.1, 0.2, 8.0);
        t.record(&lump);
        t.repeat_since(&before, 9);
        let mut want = tally(&[(Category::Arithmetic, 3.25, 1.5, 0.0)]);
        for _ in 0..10 {
            want.record(&lump);
        }
        assert_eq!(t, want);
    }
}
