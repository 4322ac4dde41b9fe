//! Run-time fault sessions: a validated scenario bound to a concrete
//! system, with deterministic flip draws and degradation accounting.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use transpim_pim::ecc::EccScheme;

use crate::scenario::{Fault, FaultError, FaultScenario};

/// The slice of the machine geometry a session validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemInfo {
    pub total_banks: u32,
    pub total_groups: u32,
    pub subarrays_per_bank: u32,
}

/// Degraded-mode accounting attached to a `SimReport`: fault events and
/// the static fault inventory. What degradation costs is not tallied here;
/// it is the degraded run's latency and energy minus the fault-free run's,
/// which also covers re-sharding around failed banks and rerouting around
/// dead links.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Individual fault events injected (static faults + drawn flips).
    pub injected: u64,
    /// Events the machine noticed (BIST for static faults, ECC for flips).
    pub detected: u64,
    /// Events absorbed by a degradation policy or ECC correction.
    pub corrected: u64,
    /// Events no policy could absorb (the run surfaces a `SimError`).
    pub uncorrectable: u64,
    /// Static fault inventory, for the report reader.
    pub failed_banks: u32,
    pub stuck_planes: u32,
    pub dead_links: u32,
    pub degraded_links: u32,
    pub broken_dividers: u32,
}

/// What happened to the flips drawn on one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipOutcome {
    /// No flip on this transfer.
    None,
    /// SECDED repaired the flips in place; price a per-flip correction.
    Corrected(u64),
    /// Parity detected the flips; price one bounded retry of the transfer.
    Retry(u64),
    /// Unprotected flips: the run must surface an error.
    Uncorrectable(u64),
}

/// A snapshot of a [`FaultSession`]'s draw counter and injected count, taken before pricing a repeat-body iteration and closed by
/// [`FaultSession::repeat_since`].
#[derive(Debug)]
#[must_use = "a mark keeps the draw log open until FaultSession::repeat_since closes it"]
pub struct Mark {
    draws: u64,
    injected: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const BYTES_PER_GIB: f64 = (1u64 << 30) as f64;

/// 2^53: the draw's uniform variate has 53 bits.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// Flips drawn on a transfer that expects `expected` flips, from its draw
/// hash `h`: the integer part always, plus one more with probability equal
/// to the fractional part, decided by the uniform variate
/// `(h >> 11) · 2^-53`. The reference for [`flip_threshold`]; a count of
/// 2^64 or more saturates.
pub fn drawn_flips(h: u64, expected: f64) -> u64 {
    let base = expected.floor();
    let u = (h >> 11) as f64 / DRAW_SCALE;
    (base as u64).saturating_add(u64::from(u < expected - base))
}

/// The integer form of "does a draw flip": a draw with hash `h` on a
/// transfer that expects `expected` flips flips iff `h >> 11 <
/// flip_threshold(expected)`, which is exactly [`drawn_flips`]` > 0`. At
/// `expected` ≥ 1 the threshold is 2^53, above every 53-bit variate.
/// Below 1, `u < expected` for the variate `u = (h >> 11) · 2^-53` is
/// `h >> 11 < expected · 2^53`: scaling by 2^53 is exact, and an integer
/// is below a real iff it is below the real's ceiling. The one flip
/// predicate, shared by [`FaultSession::observe_transfer`] and
/// [`FaultSession::clean_iterations`].
pub fn flip_threshold(expected: f64) -> u64 {
    if expected >= 1.0 {
        1 << 53
    } else {
        // Zero, subnormal or in (0, 1): the ceiling is in 0..=2^53. A NaN
        // maps to 0, as the float comparison never flips on it.
        (expected * DRAW_SCALE).ceil() as u64
    }
}

/// Add `n` events to a counter, saturating and raising `out_of_range` past
/// `u64::MAX`.
fn count(counter: &mut u64, n: u64, out_of_range: &mut bool) {
    *counter = counter.checked_add(n).unwrap_or_else(|| {
        *out_of_range = true;
        u64::MAX
    });
}

/// A validated fault scenario bound to a machine, ready to be consulted by
/// the executor while pricing a program.
///
/// The session is deliberately *not* shared between runs: each simulated
/// cell builds its own session from the scenario, so the flip stream is a
/// pure function of `(seed, lump sequence)` and results are independent of
/// job count and scheduling order.
#[derive(Debug, Clone)]
pub struct FaultSession {
    seed: u64,
    draws: u64,
    ecc: EccScheme,
    flip_per_gib: f64,
    /// [`FaultSession::ecc_overhead_fraction`], fixed by the scheme.
    ecc_tax: f64,
    /// [`FaultSession::pim_slowdown`], fixed once the faults are known.
    slowdown: f64,
    /// [`FaultSession::broken_divider_fraction`], fixed likewise.
    broken_fraction: f64,
    failed_banks: BTreeSet<u32>,
    stuck: BTreeMap<u32, u32>,
    dead_links: BTreeSet<u32>,
    degraded_links: BTreeMap<u32, f64>,
    broken_dividers: BTreeSet<u32>,
    sys: SystemInfo,
    empty: bool,
    injected: u64,
    detected: u64,
    corrected: u64,
    uncorrectable: u64,
    /// Whether an event count left its range: sticky, checked once per run
    /// ([`FaultSession::in_range`]).
    out_of_range: bool,
    /// Whether draws are logged: from [`FaultSession::mark`] until
    /// [`FaultSession::repeat_since`] closes the mark.
    logging: bool,
    /// The [`flip_threshold`] of each draw since the open mark; the buffer
    /// is reused from mark to mark.
    log: Vec<u64>,
    track_named: bool,
}

impl FaultSession {
    /// Validate `scenario` against `sys` and build a session.
    ///
    /// # Errors
    ///
    /// [`FaultError::Invalid`] when a fault references hardware outside the
    /// geometry or carries a nonsensical parameter;
    /// [`FaultError::Uncorrectable`] when the static faults alone already
    /// exceed every degradation policy (every bank failed, or every
    /// subarray of a bank stuck).
    pub fn new(scenario: &FaultScenario, sys: SystemInfo) -> Result<Self, FaultError> {
        if sys.total_banks == 0 || sys.subarrays_per_bank == 0 {
            return Err(FaultError::Invalid("degenerate system geometry".into()));
        }
        let mut s = Self {
            seed: splitmix64(scenario.seed),
            draws: 0,
            ecc: scenario.ecc,
            flip_per_gib: 0.0,
            ecc_tax: scenario.ecc.overhead_fraction(),
            slowdown: 1.0,
            broken_fraction: 0.0,
            failed_banks: BTreeSet::new(),
            stuck: BTreeMap::new(),
            dead_links: BTreeSet::new(),
            degraded_links: BTreeMap::new(),
            broken_dividers: BTreeSet::new(),
            sys,
            empty: scenario.is_empty(),
            injected: 0,
            detected: 0,
            corrected: 0,
            uncorrectable: 0,
            out_of_range: false,
            logging: false,
            log: Vec::new(),
            track_named: false,
        };
        for fault in &scenario.faults {
            match *fault {
                Fault::FailedBank { bank } => {
                    s.check_bank(bank)?;
                    s.failed_banks.insert(bank);
                }
                Fault::StuckBitPlanes { bank, planes } => {
                    s.check_bank(bank)?;
                    if planes == 0 {
                        return Err(FaultError::Invalid(format!(
                            "StuckBitPlanes on bank {bank} with zero planes"
                        )));
                    }
                    let total = s.stuck.entry(bank).or_insert(0);
                    *total = total.saturating_add(planes);
                    if *total >= sys.subarrays_per_bank {
                        return Err(FaultError::Uncorrectable(format!(
                            "all {} subarrays of bank {bank} have stuck bit-planes",
                            sys.subarrays_per_bank
                        )));
                    }
                }
                Fault::DeadLink { group } => {
                    s.check_group(group)?;
                    s.degraded_links.remove(&group);
                    s.dead_links.insert(group);
                }
                Fault::DegradedLink { group, factor } => {
                    s.check_group(group)?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(FaultError::Invalid(format!(
                            "DegradedLink factor {factor} outside (0, 1]"
                        )));
                    }
                    if !s.dead_links.contains(&group) {
                        // Two degradations on one link compound.
                        let f = s.degraded_links.entry(group).or_insert(1.0);
                        *f *= factor;
                    }
                }
                Fault::TransientFlips { per_gib } => {
                    if !(per_gib.is_finite() && per_gib >= 0.0) {
                        return Err(FaultError::Invalid(format!(
                            "TransientFlips rate {per_gib} must be finite and non-negative"
                        )));
                    }
                    s.flip_per_gib += per_gib;
                }
                Fault::BrokenDivider { bank } => {
                    s.check_bank(bank)?;
                    s.broken_dividers.insert(bank);
                }
            }
        }
        if s.failed_banks.len() as u32 >= sys.total_banks {
            return Err(FaultError::Uncorrectable(format!(
                "all {} banks failed; no pool left to re-shard onto",
                sys.total_banks
            )));
        }
        // Static faults are found by power-on self-test: each is injected,
        // detected, and — since the session built — absorbed by a policy.
        let static_faults = (s.failed_banks.len()
            + s.stuck.len()
            + s.dead_links.len()
            + s.degraded_links.len()
            + s.broken_dividers.len()) as u64;
        s.injected = static_faults;
        s.detected = static_faults;
        s.corrected = static_faults;
        // Banks run in lockstep, so the bank with the most fenced-off
        // subarrays gates every phase.
        let worst = s.stuck.values().copied().max().unwrap_or(0);
        if worst > 0 {
            s.slowdown =
                f64::from(sys.subarrays_per_bank) / f64::from(sys.subarrays_per_bank - worst);
        }
        s.broken_fraction = s.broken_dividers.len() as f64 / f64::from(sys.total_banks);
        Ok(s)
    }

    fn check_bank(&self, bank: u32) -> Result<(), FaultError> {
        if bank >= self.sys.total_banks {
            return Err(FaultError::Invalid(format!(
                "bank {bank} out of range ({} banks)",
                self.sys.total_banks
            )));
        }
        Ok(())
    }

    fn check_group(&self, group: u32) -> Result<(), FaultError> {
        if group >= self.sys.total_groups {
            return Err(FaultError::Invalid(format!(
                "group {group} out of range ({} groups)",
                self.sys.total_groups
            )));
        }
        Ok(())
    }

    /// True when the originating scenario perturbs nothing; such a session
    /// leaves every priced lump untouched.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    pub fn ecc(&self) -> EccScheme {
        self.ecc
    }

    /// Per-transfer bandwidth tax of the ECC check bits.
    pub fn ecc_overhead_fraction(&self) -> f64 {
        self.ecc_tax
    }

    pub fn failed_banks(&self) -> &BTreeSet<u32> {
        &self.failed_banks
    }

    pub fn failed_bank_count(&self) -> u32 {
        self.failed_banks.len() as u32
    }

    pub fn dead_links(&self) -> &BTreeSet<u32> {
        &self.dead_links
    }

    pub fn degraded_links(&self) -> &BTreeMap<u32, f64> {
        &self.degraded_links
    }

    pub fn broken_dividers(&self) -> &BTreeSet<u32> {
        &self.broken_dividers
    }

    /// Fraction of banks whose ACU divider is broken.
    pub fn broken_divider_fraction(&self) -> f64 {
        self.broken_fraction
    }

    /// Latency multiplier (>= 1) for in-memory arithmetic: banks run in
    /// lockstep, so the bank with the most fenced-off subarrays gates every
    /// phase — work serializes over its surviving subarrays.
    pub fn pim_slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Deterministically draw transient flips for a transfer of `bytes`
    /// and classify them under the session's ECC scheme. Event counts past
    /// `u64::MAX` saturate and fail [`FaultSession::in_range`].
    pub fn observe_transfer(&mut self, bytes: f64) -> FlipOutcome {
        if self.flip_per_gib <= 0.0 || bytes <= 0.0 {
            return FlipOutcome::None;
        }
        let expected = bytes * self.flip_per_gib / BYTES_PER_GIB;
        let threshold = flip_threshold(expected);
        if self.logging {
            self.log.push(threshold);
        }
        self.draws = self.draws.wrapping_add(1);
        let h = splitmix64(self.seed ^ self.draws);
        if h >> 11 >= threshold {
            return FlipOutcome::None;
        }
        let flips = drawn_flips(h, expected);
        // A count of 2^64 flips or more saturated in the draw.
        self.out_of_range |= expected >= 2f64.powi(64);
        let flag = &mut self.out_of_range;
        count(&mut self.injected, flips, flag);
        // Flips on distinct transfers land in distinct words, so each is a
        // single-bit-per-word event for the ECC capability check.
        if self.ecc.can_correct(1) {
            count(&mut self.detected, flips, flag);
            count(&mut self.corrected, flips, flag);
            FlipOutcome::Corrected(flips)
        } else if self.ecc.can_detect(1) {
            count(&mut self.detected, flips, flag);
            count(&mut self.corrected, flips, flag); // absorbed by the bounded retry
            FlipOutcome::Retry(flips)
        } else {
            count(&mut self.uncorrectable, flips, flag);
            FlipOutcome::Uncorrectable(flips)
        }
    }

    /// Whether every event count stayed below 2^64.
    pub fn in_range(&self) -> bool {
        !self.out_of_range
    }

    /// Snapshot the session before pricing a repeat-body iteration, and
    /// start logging each draw's [`flip_threshold`] until
    /// [`FaultSession::repeat_since`] closes the mark. Marking again
    /// restarts the log.
    pub fn mark(&mut self) -> Mark {
        self.logging = true;
        self.log.clear();
        Mark { draws: self.draws, injected: self.injected }
    }

    /// Whether a draw since `mark` flipped.
    pub fn flipped_since(&self, mark: &Mark) -> bool {
        self.injected != mark.injected
    }

    /// How many of the next iterations, up to `max`, draw no flip, when
    /// each iteration draws exactly the transfers drawn since `mark`, in
    /// order. A pure scan of the logged thresholds: one hash and one
    /// integer compare per draw, nothing priced. A body that draws nothing
    /// never flips.
    pub fn clean_iterations(&self, mark: &Mark, max: u64) -> u64 {
        debug_assert!(self.logging && self.log.len() as u64 == self.draws.wrapping_sub(mark.draws));
        if self.log.is_empty() {
            return max;
        }
        let mut draw = self.draws;
        for i in 0..max {
            for &threshold in &self.log {
                draw = draw.wrapping_add(1);
                if splitmix64(self.seed ^ draw) >> 11 < threshold {
                    return i;
                }
            }
        }
        max
    }

    /// Close `mark`, accounting the draws since it another `times` times:
    /// one more flip-free iteration's draws per time. `times` = 0 only closes the mark.
    /// [`FaultSession::clean_iterations`] says how many next iterations
    /// are flip-free.
    ///
    /// # Panics
    ///
    /// If `times` > 0 and a draw since `mark` flipped: only a flip-free
    /// iteration repeats without repricing.
    pub fn repeat_since(&mut self, mark: Mark, times: u64) {
        self.logging = false;
        if times == 0 {
            return;
        }
        assert!(!self.flipped_since(&mark), "a repeated iteration must draw no flip");
        let per_iteration = self.draws.wrapping_sub(mark.draws);
        self.draws = self.draws.wrapping_add(per_iteration.wrapping_mul(times));
    }

    /// Returns true exactly once, for naming the fault trace track lazily
    /// (so fault-free traces stay byte-identical).
    pub fn mark_fault_track_named(&mut self) -> bool {
        if self.track_named {
            return false;
        }
        self.track_named = true;
        true
    }

    /// Snapshot the accounting for a `SimReport`.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected,
            detected: self.detected,
            corrected: self.corrected,
            uncorrectable: self.uncorrectable,
            failed_banks: self.failed_banks.len() as u32,
            stuck_planes: self.stuck.values().sum(),
            dead_links: self.dead_links.len() as u32,
            degraded_links: self.degraded_links.len() as u32,
            broken_dividers: self.broken_dividers.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemInfo {
        SystemInfo { total_banks: 32, total_groups: 8, subarrays_per_bank: 64 }
    }

    fn session(faults: Vec<Fault>, ecc: EccScheme) -> Result<FaultSession, FaultError> {
        FaultSession::new(&FaultScenario { seed: 7, ecc, faults }, sys())
    }

    #[test]
    fn out_of_range_faults_are_invalid() {
        for fault in [
            Fault::FailedBank { bank: 32 },
            Fault::StuckBitPlanes { bank: 99, planes: 1 },
            Fault::DeadLink { group: 8 },
            Fault::BrokenDivider { bank: 1000 },
        ] {
            let err = session(vec![fault], EccScheme::None).expect_err("must be rejected");
            assert!(matches!(err, FaultError::Invalid(_)), "{err}");
        }
        let err = session(vec![Fault::DegradedLink { group: 0, factor: 0.0 }], EccScheme::None)
            .expect_err("zero factor rejected");
        assert!(matches!(err, FaultError::Invalid(_)));
    }

    #[test]
    fn exhausted_hardware_is_uncorrectable_at_build() {
        let all = (0..32).map(|b| Fault::FailedBank { bank: b }).collect();
        let err = session(all, EccScheme::None).expect_err("no pool left");
        assert!(matches!(err, FaultError::Uncorrectable(_)));
        let err = session(vec![Fault::StuckBitPlanes { bank: 0, planes: 64 }], EccScheme::None)
            .expect_err("whole bank stuck");
        assert!(matches!(err, FaultError::Uncorrectable(_)));
    }

    #[test]
    fn slowdown_is_gated_by_the_worst_bank() {
        let s = session(
            vec![
                Fault::StuckBitPlanes { bank: 0, planes: 16 },
                Fault::StuckBitPlanes { bank: 1, planes: 32 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        assert!((s.pim_slowdown() - 2.0).abs() < 1e-12); // 64 / (64 - 32)
    }

    #[test]
    fn flip_stream_is_deterministic_and_ecc_dependent() {
        let faults = vec![Fault::TransientFlips { per_gib: 8.0 }];
        let mut a = session(faults.clone(), EccScheme::Secded).expect("valid");
        let mut b = session(faults.clone(), EccScheme::Secded).expect("valid");
        let seq_a: Vec<_> = (0..64).map(|_| a.observe_transfer((512u64 << 20) as f64)).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.observe_transfer((512u64 << 20) as f64)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same draws");
        assert!(seq_a.iter().any(|o| matches!(o, FlipOutcome::Corrected(_))));
        assert!(!seq_a.iter().any(|o| matches!(o, FlipOutcome::Uncorrectable(_))));

        let mut none = session(faults, EccScheme::None).expect("valid");
        let outcomes: Vec<_> =
            (0..64).map(|_| none.observe_transfer((512u64 << 20) as f64)).collect();
        assert!(outcomes.iter().any(|o| matches!(o, FlipOutcome::Uncorrectable(_))));
    }

    #[test]
    fn static_faults_are_counted_as_detected_and_corrected() {
        let s = session(
            vec![
                Fault::FailedBank { bank: 3 },
                Fault::DeadLink { group: 2 },
                Fault::DegradedLink { group: 1, factor: 0.5 },
                Fault::BrokenDivider { bank: 9 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        let stats = s.stats();
        assert_eq!(stats.injected, 4);
        assert_eq!(stats.detected, 4);
        assert_eq!(stats.corrected, 4);
        assert_eq!(stats.uncorrectable, 0);
        assert_eq!(stats.failed_banks, 1);
        assert_eq!(stats.dead_links, 1);
        assert_eq!(stats.degraded_links, 1);
        assert_eq!(stats.broken_dividers, 1);
    }

    /// Transfer sizes of one repeat-body iteration, from a xorshift state:
    /// tiny, mid-sized, just under and at or over one GiB.
    fn iteration_bytes(x: &mut u64) -> Vec<f64> {
        let mut next = || {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        let n = 1 + next() % 5;
        (0..n)
            .map(|_| {
                let r = next();
                (match r % 4 {
                    0 => 1 + r % 16,
                    1 => 1 + r % (1 << 24),
                    2 => (1 << 30) - r % 64,
                    _ => (1 << 30) + r % (1 << 31),
                }) as f64
            })
            .collect()
    }

    #[test]
    fn clean_iterations_agrees_with_observe_transfer() {
        // Expected flips per draw: exactly 0 (a subnormal rate underflows),
        // tiny, near 1 and at least 1, at rates that make each class occur.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let max = 64;
        for per_gib in [f64::from_bits(1), 1e-3, 0.5, 1.0, 3.0] {
            for seed in 0..40 {
                let faults = vec![Fault::TransientFlips { per_gib }];
                let scenario = FaultScenario { seed, ecc: EccScheme::Secded, faults };
                let mut s = FaultSession::new(&scenario, sys()).expect("valid");
                let bytes = iteration_bytes(&mut x);
                // Walk iterations 0..=max draw by draw. After each, the scan
                // of its log must say whether the next one is flip-free, and
                // iteration 0's scan how many in a row are.
                let (mut predicted, mut clean_next, mut first_flip) = (0, true, max);
                for i in 0..=max {
                    let mark = s.mark();
                    // Draw every transfer: a flip must not skip later draws.
                    let outcomes: Vec<_> = bytes.iter().map(|&b| s.observe_transfer(b)).collect();
                    assert_eq!(s.log.len(), bytes.len(), "one log entry per draw");
                    let flipped = outcomes.iter().any(|&o| o != FlipOutcome::None);
                    if i == 0 {
                        predicted = s.clean_iterations(&mark, max);
                    } else {
                        assert_eq!(clean_next, !flipped, "rate {per_gib}, seed {seed}, iter {i}");
                        if flipped && first_flip == max {
                            first_flip = i - 1;
                        }
                    }
                    clean_next = s.clean_iterations(&mark, 1) == 1;
                    s.repeat_since(mark, 0);
                }
                assert_eq!(predicted, first_flip, "rate {per_gib}, seed {seed}");
            }
        }
    }

    #[test]
    fn repeat_since_equals_walking_the_clean_iterations() {
        let faults = vec![Fault::TransientFlips { per_gib: 0.05 }];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for seed in 0..40 {
            let scenario = FaultScenario { seed, ecc: EccScheme::Parity, faults: faults.clone() };
            let mut walked = FaultSession::new(&scenario, sys()).expect("valid");
            let mut repeated = walked.clone();
            let bytes = iteration_bytes(&mut x);
            let iteration = |s: &mut FaultSession| {
                for &b in &bytes {
                    s.observe_transfer(b);
                }
            };
            let mark = repeated.mark();
            iteration(&mut repeated);
            if repeated.flipped_since(&mark) {
                continue;
            }
            let clean = repeated.clean_iterations(&mark, 1000);
            repeated.repeat_since(mark, clean);
            for _ in 0..=clean {
                iteration(&mut walked);
            }
            assert_eq!(repeated.stats(), walked.stats(), "seed {seed}");
            // Both sessions continue with the same draw.
            for &b in bytes.iter().cycle().take(64) {
                assert_eq!(repeated.observe_transfer(b), walked.observe_transfer(b));
            }
        }
    }

    #[test]
    fn event_counts_past_u64_saturate_and_fail_once_at_the_end() {
        let flips = |per_gib| vec![Fault::TransientFlips { per_gib }];
        let gib = (1u64 << 30) as f64;
        // 1e19 flips per draw: each count fits, the second draw's sum does
        // not. 1e21 and 1e25 per draw: the draw's own count does not.
        for (per_gib, draws) in [(1e19, 2), (1e21, 1), (1e25, 1)] {
            let mut s = session(flips(per_gib), EccScheme::Parity).expect("valid");
            for _ in 0..draws {
                assert!(matches!(s.observe_transfer(gib), FlipOutcome::Retry(_)));
            }
            let stats = s.stats();
            assert_eq!(
                (stats.injected, stats.detected, stats.corrected),
                (u64::MAX, u64::MAX, u64::MAX)
            );
            assert!(!s.in_range(), "rate {per_gib}");
            // Sticky: later draws neither wrap nor clear it.
            s.observe_transfer(gib);
            assert_eq!(s.stats().injected, u64::MAX);
            assert!(!s.in_range());
        }
        let mut s = session(flips(1e18), EccScheme::Parity).expect("valid");
        s.observe_transfer(gib);
        assert_eq!((s.stats().injected, s.in_range()), (1_000_000_000_000_000_000, true));
    }

    #[test]
    #[should_panic(expected = "must draw no flip")]
    fn repeat_since_rejects_an_iteration_that_flipped() {
        let mut s = session(vec![Fault::TransientFlips { per_gib: 8.0 }], EccScheme::Secded)
            .expect("valid");
        let mark = s.mark();
        s.observe_transfer((1u64 << 30) as f64); // 8 expected flips: always flips
        s.repeat_since(mark, 1);
    }

    #[test]
    fn dead_link_supersedes_degraded_link() {
        let s = session(
            vec![
                Fault::DegradedLink { group: 2, factor: 0.5 },
                Fault::DeadLink { group: 2 },
                Fault::DegradedLink { group: 2, factor: 0.25 },
            ],
            EccScheme::None,
        )
        .expect("valid");
        assert!(s.dead_links().contains(&2));
        assert!(s.degraded_links().is_empty());
    }
}
