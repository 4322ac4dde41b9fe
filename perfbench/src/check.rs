//! Output checks. A request fails when any of its reports breaks one:
//!
//! * every value is finite and non-negative;
//! * the category times sum to the latency, and the scope totals sum to
//!   the global statistics, both within [`REL_TOL`];
//! * the report's JSON parses back to an equal report;
//! * a degraded run carries fault accounting with nothing uncorrectable;
//! * every repeat of a request is bit-identical to its first run;
//! * the simulated values match the committed reference within
//!   [`REL_TOL`].

use std::collections::{BTreeMap, HashMap};
use transpim::SimReport;
use transpim_hbm::stats::{Category, SimStats};

/// Relative tolerance of the sum and reference checks.
pub const REL_TOL: f64 = 1e-9;

/// Simulated-machine values of one report, keyed by metric-name suffix
/// (`latency_ms`, `energy_mj`, `bytes_moved`, `<category>_share`,
/// `<scope>.<category>_ms`).
pub type SimValues = BTreeMap<String, f64>;

/// Reference values keyed by request-cell label.
pub type Reference = BTreeMap<String, SimValues>;

/// Metric-name form of a category label (`data-movement` → `data_movement`).
pub fn category_key(c: Category) -> String {
    c.label().replace('-', "_")
}

/// The simulated values of `r`.
pub fn sim_values(r: &SimReport) -> SimValues {
    let s = &r.stats;
    let mut v = SimValues::new();
    v.insert("latency_ms".into(), s.latency_ns * 1e-6);
    v.insert("energy_mj".into(), s.total_energy_pj() * 1e-9);
    v.insert("bytes_moved".into(), s.bytes_moved);
    for c in Category::ALL {
        v.insert(format!("{}_share", category_key(c)), s.time_fraction(c));
    }
    for (scope, st) in r.scoped.iter() {
        for c in Category::ALL {
            v.insert(format!("{scope}.{}_ms", category_key(c)), st.time_ns[c.index()] * 1e-6);
        }
    }
    v
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn check_stats(what: &str, s: &SimStats) -> Result<(), String> {
    let all = [s.latency_ns, s.bytes_moved].into_iter().chain(s.time_ns).chain(s.energy_pj);
    if let Some(bad) = all.into_iter().find(|x| !(x.is_finite() && *x >= 0.0)) {
        return Err(format!("{what}: value {bad} is not finite and non-negative"));
    }
    let sum: f64 = s.time_ns.iter().sum();
    if !close(sum, s.latency_ns) {
        return Err(format!(
            "{what}: category times sum to {sum} ns, latency is {} ns",
            s.latency_ns
        ));
    }
    Ok(())
}

/// Checks that need only the report and its JSON.
pub fn check_report(label: &str, r: &SimReport, json: &str) -> Result<(), String> {
    check_stats(label, &r.stats)?;
    for (scope, st) in r.scoped.iter() {
        check_stats(&format!("{label} scope {scope}"), st)?;
    }
    let t = r.scoped.total();
    let s = &r.stats;
    let pairs = [(t.latency_ns, s.latency_ns), (t.bytes_moved, s.bytes_moved)]
        .into_iter()
        .chain(t.time_ns.into_iter().zip(s.time_ns))
        .chain(t.energy_pj.into_iter().zip(s.energy_pj));
    for (scoped, global) in pairs {
        if !close(scoped, global) {
            return Err(format!("{label}: scope totals {scoped} differ from global {global}"));
        }
    }
    let back: SimReport = serde_json::from_str(json)
        .map_err(|e| format!("{label}: report JSON does not parse: {e}"))?;
    if &back != r {
        return Err(format!("{label}: report JSON does not round-trip"));
    }
    if let Some(f) = &r.faults {
        if f.uncorrectable != 0 {
            return Err(format!("{label}: {} uncorrectable faults", f.uncorrectable));
        }
    }
    Ok(())
}

/// `actual` against `expected`, key by key, within [`REL_TOL`].
pub fn check_reference(
    label: &str,
    actual: &SimValues,
    expected: &SimValues,
) -> Result<(), String> {
    if actual.len() != expected.len() || actual.keys().ne(expected.keys()) {
        return Err(format!("{label}: simulated value keys differ from the reference"));
    }
    for (key, (a, e)) in actual.keys().zip(actual.values().zip(expected.values())) {
        if !close(*a, *e) {
            return Err(format!("{label}: sim.{key} = {a}, reference {e}"));
        }
    }
    Ok(())
}

/// Per-run checking state: first outputs per cell label, and the
/// reference.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Reference,
    first: HashMap<String, String>,
    first_blobs: HashMap<String, u64>,
}

impl Checker {
    pub fn new(reference: Reference) -> Self {
        Self { reference, ..Self::default() }
    }

    /// Every check on one report. `needs_reference` makes a label missing
    /// from the reference a failure.
    pub fn check(
        &mut self,
        label: &str,
        r: &SimReport,
        json: &str,
        needs_reference: bool,
    ) -> Result<(), String> {
        check_report(label, r, json)?;
        match self.first.get(label) {
            Some(first) if first != json => {
                return Err(format!("{label}: output differs from the first run of this request"))
            }
            Some(_) => {}
            None => {
                self.first.insert(label.to_owned(), json.to_owned());
            }
        }
        match self.reference.get(label) {
            Some(expected) => check_reference(label, &sim_values(r), expected),
            None if needs_reference => Err(format!("{label}: missing from the reference")),
            None => Ok(()),
        }
    }

    /// A large output (trace, metrics document) must repeat bit for bit;
    /// only its hash is kept.
    pub fn check_blob(&mut self, label: &str, text: &str) -> Result<(), String> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        text.hash(&mut h);
        let hash = h.finish();
        match self.first_blobs.insert(label.to_owned(), hash) {
            Some(first) if first != hash => {
                Err(format!("{label}: output differs from the first run of this request"))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim::{Accelerator, ArchConfig, ArchKind, DataflowKind};
    use transpim_transformer::workload::Workload;

    fn small_report() -> SimReport {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        Accelerator::new(ArchConfig::new(ArchKind::TransPim)).simulate(&w, DataflowKind::Token)
    }

    #[test]
    fn a_real_report_passes_every_check() {
        let r = small_report();
        let json = r.to_json().expect("serializes");
        let mut reference = Reference::new();
        reference.insert("x".into(), sim_values(&r));
        let mut checker = Checker::new(reference);
        checker.check("x", &r, &json, true).expect("first run passes");
        checker.check("x", &r, &json, true).expect("identical repeat passes");
    }

    #[test]
    fn a_one_in_a_million_perturbation_of_one_sim_value_is_rejected() {
        let r = small_report();
        let expected = sim_values(&r);
        for key in expected.keys() {
            let mut actual = expected.clone();
            let v = actual.get_mut(key).expect("key");
            if *v == 0.0 {
                continue;
            }
            *v *= 1.0 + 1e-6;
            assert!(check_reference("x", &actual, &expected).is_err(), "{key} perturbation passed");
        }
        assert!(check_reference("x", &expected, &expected).is_ok());
    }

    #[test]
    fn a_broken_category_sum_is_rejected() {
        let mut r = small_report();
        r.stats.time_ns[Category::Arithmetic.index()] *= 1.0 + 1e-6;
        let json = r.to_json().expect("serializes");
        let err = check_report("x", &r, &json).expect_err("broken sum must fail");
        assert!(err.contains("category times"), "{err}");
    }

    #[test]
    fn broken_scope_totals_and_negative_values_are_rejected() {
        let mut r = small_report();
        r.stats.bytes_moved *= 1.0 + 1e-6;
        let json = r.to_json().expect("serializes");
        assert!(check_report("x", &r, &json).unwrap_err().contains("scope totals"));

        let mut r = small_report();
        r.stats.energy_pj[0] = -1.0;
        let json = r.to_json().expect("serializes");
        assert!(check_report("x", &r, &json).unwrap_err().contains("non-negative"));
    }

    #[test]
    fn a_repeat_that_differs_from_the_first_run_is_rejected() {
        let r = small_report();
        let json = r.to_json().expect("serializes");
        let mut checker = Checker::new(Reference::new());
        checker.check("x", &r, &json, false).expect("first run passes");
        let mut other = r.clone();
        other.total_ops += 1;
        let other_json = other.to_json().expect("serializes");
        assert!(checker.check("x", &other, &other_json, false).is_err());
        assert!(checker.check("y", &r, &json, true).unwrap_err().contains("missing"));
        checker.check_blob("t", "abc").expect("first blob");
        assert!(checker.check_blob("t", "abd").is_err());
    }
}
