//! `results_diff` — compare two `results/` directories value by value.
//!
//! ```bash
//! cargo run --release -p transpim-bench --bin results_diff -- results /tmp/fresh/results
//! ```
//!
//! Every `*.json` file must exist in both directories. Strings, booleans,
//! keys and array lengths must match exactly; integers too. Other numbers
//! may differ by 1e-9 relative, which absorbs last-digit f64 drift but no
//! change to the model. Exits 1 and lists every mismatch otherwise.
//! `scripts/check.sh` runs it against a fresh `scripts/regen_results.sh`
//! output (the results-freshness stage).

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

/// Relative tolerance for non-integer numbers.
const REL_TOL: f64 = 1e-9;

fn numbers_agree(a: f64, b: f64) -> bool {
    let integral = |x: f64| x.fract() == 0.0 && x.abs() < 2f64.powi(53);
    if integral(a) && integral(b) {
        return a == b;
    }
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Append a line to `out` for every place where `fresh` differs from
/// `committed`, naming the JSON path.
fn diff(path: &str, committed: &Value, fresh: &Value, out: &mut Vec<String>) {
    match (committed, fresh) {
        (Value::Number(a), Value::Number(b)) if numbers_agree(*a, *b) => {}
        (Value::Array(a), Value::Array(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                diff(&format!("{path}[{i}]"), x, y, out);
            }
        }
        (Value::Object(a), Value::Object(b)) => {
            let keys: BTreeSet<&String> = a.iter().chain(b.iter()).map(|(k, _)| k).collect();
            for k in keys {
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) => diff(&format!("{path}.{k}"), x, y, out),
                    (x, y) => {
                        out.push(format!("{path}.{k}: present {} vs {}", x.is_some(), y.is_some()))
                    }
                }
            }
        }
        (a, b) if a == b => {}
        (a, b) => out.push(format!("{path}: committed {} vs fresh {}", short(a), short(b))),
    }
}

fn short(v: &Value) -> String {
    let s = serde_json::to_string(v).unwrap_or_default();
    match s.char_indices().nth(60) {
        Some((end, _)) => format!("{}…", &s[..end]),
        None => s,
    }
}

fn json_files(dir: &Path) -> Result<BTreeSet<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names = BTreeSet::new();
    for entry in entries {
        let name = entry.map_err(|e| e.to_string())?.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") {
            names.insert(name);
        }
    }
    Ok(names)
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(committed: &Path, fresh: &Path) -> Result<Vec<String>, String> {
    let (old, new) = (json_files(committed)?, json_files(fresh)?);
    let mut out = Vec::new();
    for name in old.union(&new) {
        if !(old.contains(name) && new.contains(name)) {
            out.push(format!(
                "{name}: only in {}",
                if old.contains(name) { "committed" } else { "fresh" }
            ));
            continue;
        }
        let before = out.len();
        diff("", &read(&committed.join(name))?, &read(&fresh.join(name))?, &mut out);
        for line in &mut out[before..] {
            *line = format!("{name}{line}");
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: results_diff <COMMITTED_DIR> <FRESH_DIR>");
        return ExitCode::from(2);
    };
    match run(Path::new(committed), Path::new(fresh)) {
        Ok(mismatches) if mismatches.is_empty() => ExitCode::SUCCESS,
        Ok(mismatches) => {
            for m in &mismatches {
                eprintln!("{m}");
            }
            eprintln!("{} value(s) differ between {committed} and {fresh}", mismatches.len());
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mismatches(a: &str, b: &str) -> Vec<String> {
        let mut out = Vec::new();
        diff("", &serde_json::from_str(a).unwrap(), &serde_json::from_str(b).unwrap(), &mut out);
        out
    }

    #[test]
    fn floats_drift_within_tolerance_integers_and_strings_do_not() {
        assert!(mismatches(r#"{"x": 1.0000000000001, "n": 3}"#, r#"{"n": 3, "x": 1.0}"#).is_empty());
        assert_eq!(mismatches(r#"{"x": 1.5}"#, r#"{"x": 1.5000001}"#).len(), 1);
        assert_eq!(mismatches(r#"[4]"#, r#"[5]"#).len(), 1);
        assert_eq!(mismatches(r#"{"s": "a"}"#, r#"{"s": "b"}"#).len(), 1);
        assert_eq!(mismatches(r#"{"s": "a"}"#, r#"{"t": "a"}"#).len(), 2);
        assert_eq!(
            mismatches(r#"[1.0, 2.0]"#, r#"[1.0]"#),
            vec![": committed [1.0,2.0] vs fresh [1.0]"]
        );
    }
}
