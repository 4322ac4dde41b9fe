//! `transpim-sim` rejects invalid flags with exit code 2 and a one-line
//! diagnostic naming what is wrong, before any simulation work starts —
//! it never prints a report for an invalid machine, and never panics or
//! aborts on an oversized workload. A workload that fits the memory but
//! whose simulated totals leave the statistics' range exits 2 as well, and
//! so does a fault scenario whose event counts pass 2^64, and `--all`
//! stops at the first system that fails. A reader that closes stdout early
//! does not make it panic either.

use std::process::{Command, Stdio};

/// Exit code and stderr of `transpim-sim args`.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_transpim-sim"))
        .args(args)
        .output()
        .expect("transpim-sim runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_rejected(args: &[&str], names: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: ") && first.contains(names), "{args:?}: {first}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn zero_design_knobs_name_the_field() {
    assert_rejected(&["--p-sub", "0"], "acu.p_sub");
    assert_rejected(&["--p-add", "0"], "acu.p_add");
    assert_rejected(&["--stacks", "0"], "geometry.stacks");
    assert_rejected(&["--all", "--p-add", "0"], "acu.p_add");
}

#[test]
fn oversized_workloads_are_an_error_not_a_crash() {
    // Each needs terabytes of activations; the default 8 stacks hold 64 GiB.
    assert_rejected(&["--seq-len", "4294967295"], "--seq-len 4294967295");
    assert_rejected(&["--batch", "4294967295"], "--batch 4294967295");
    assert_rejected(&["--workload", "lm", "--decode", "4294967295"], "--decode 4294967295");
}

/// `args` fit the memory (a capacity warning may come first) but their
/// simulated totals do not fit the statistics: exit 2 with a typed error.
fn assert_out_of_range(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    let error = stderr.lines().find(|l| l.starts_with("error: ")).unwrap_or_default();
    assert!(error.contains("tally range"), "{args:?}: {stderr}");
}

#[test]
fn long_decode_beyond_the_tally_range_is_an_error_not_a_crash() {
    assert_out_of_range(&["--workload", "lm", "--decode", "10000000"]);
}

#[test]
fn long_layer_prompt_beyond_the_tally_range_is_an_error_not_a_crash() {
    assert_out_of_range(&["--workload", "pubmed", "--seq-len", "4000000", "--dataflow", "layer"]);
}

#[test]
fn all_systems_stop_at_the_first_tally_range_error() {
    // `--all` runs each system the way a single run does, so the first
    // system that leaves the range ends the run with the same error.
    assert_out_of_range(&["--workload", "pubmed", "--seq-len", "4000000", "--all"]);
}

#[test]
fn removed_options_are_unknown() {
    assert_rejected(&["--jobs", "2"], "unknown option '--jobs'");
}

#[test]
fn flip_counts_beyond_u64_are_an_error_not_a_wrapped_count() {
    // Parity absorbs every flip with a retry, so only the counts can fail.
    let dir = std::env::temp_dir().join(format!("transpim-cli-flips-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for per_gib in ["1e21", "1e25"] {
        let path = dir.join(format!("flips-{per_gib}.json"));
        let scenario = format!(
            r#"{{"seed":1,"ecc":"Parity","faults":[{{"TransientFlips":{{"per_gib":{per_gib}}}}}]}}"#
        );
        std::fs::write(&path, scenario).expect("scenario file");
        let path = path.to_str().expect("utf-8 temp path");
        assert_out_of_range(&["--workload", "imdb", "--faults", path]);
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn capacity_warning_is_one_single_spaced_line() {
    // RoBERTa at L = 16384 on one stack overflows its banks but still runs.
    let (code, stderr) = run(&["--workload", "roberta:16384", "--stacks", "1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let warning = stderr.lines().find(|l| l.starts_with("warning: ")).expect("a capacity warning");
    assert!(warning.contains("MiB bank (weights"), "{warning}");
    assert!(!warning.contains("  "), "runs of spaces: {warning}");
}

/// A fresh temporary directory for one test's files.
fn temp_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("transpim-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Stdout of a `transpim-sim args` run that must succeed.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_transpim-sim"))
        .args(args)
        .output()
        .expect("transpim-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Latency (ns) and energy (pJ) of a `--json` report.
fn latency_and_energy(path: &std::path::Path) -> (f64, f64) {
    let text = std::fs::read_to_string(path).expect("report written");
    let report: transpim::SimReport = serde_json::from_str(&text).expect("report parses");
    (report.stats.latency_ns, report.stats.total_energy_pj())
}

#[test]
fn fault_overhead_is_degraded_minus_fault_free() {
    // A failed bank re-shards the tokens and a dead link reroutes the
    // ring: both change the program, not single lumps, and both cost.
    let dir = temp_dir("overhead");
    let clean = dir.join("clean.json");
    stdout_of(&["--workload", "imdb", "--json", clean.to_str().expect("utf-8")]);
    let (clean_ns, clean_pj) = latency_and_energy(&clean);
    for (name, fault) in
        [("bank", r#"{"FailedBank":{"bank":3}}"#), ("link", r#"{"DeadLink":{"group":0}}"#)]
    {
        let scenario = dir.join(format!("{name}.scenario.json"));
        std::fs::write(&scenario, format!(r#"{{"seed":0,"faults":[{fault}]}}"#))
            .expect("scenario file");
        let report = dir.join(format!("{name}.json"));
        let metrics = dir.join(format!("{name}.metrics.json"));
        let stdout = stdout_of(&[
            "--workload",
            "imdb",
            "--faults",
            scenario.to_str().expect("utf-8"),
            "--json",
            report.to_str().expect("utf-8"),
            "--metrics",
            metrics.to_str().expect("utf-8"),
        ]);
        let (ns, pj) = latency_and_energy(&report);
        let (overhead_ns, overhead_pj) = (ns - clean_ns, pj - clean_pj);
        assert!(overhead_ns > 0.0, "{name}: degraded {ns} ns vs fault-free {clean_ns} ns");
        let line = format!(
            "  degradation overhead: {:.3} ms, {:.3} mJ",
            overhead_ns * 1e-6,
            overhead_pj * 1e-9
        );
        assert!(stdout.lines().any(|l| l == line), "{name}: no {line:?} in\n{stdout}");
        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        let m: serde_json::Value = serde_json::from_str(&text).expect("metrics parse");
        assert_eq!(m["fault.overhead_latency_ns"].as_f64(), Some(overhead_ns), "{name}");
        assert_eq!(m["fault.overhead_energy_pj"].as_f64(), Some(overhead_pj), "{name}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn dump_ir_under_failed_banks_writes_the_priced_program() {
    // The priced program re-shards over the healthy banks, so the dump
    // must too; a dead link leaves the program as it is.
    let dir = temp_dir("dump-ir");
    let dump = |name: &str, fault: Option<&str>| {
        let ir = dir.join(format!("{name}.ir.json"));
        let mut args = vec!["--workload", "imdb", "--dump-ir", ir.to_str().expect("utf-8")];
        let scenario = dir.join(format!("{name}.scenario.json"));
        if let Some(fault) = fault {
            std::fs::write(&scenario, format!(r#"{{"seed":0,"faults":[{fault}]}}"#))
                .expect("scenario file");
            args.extend(["--faults", scenario.to_str().expect("utf-8")]);
        }
        stdout_of(&args);
        std::fs::read_to_string(&ir).expect("IR written")
    };
    let clean = dump("clean", None);
    let failed = dump("bank", Some(r#"{"FailedBank":{"bank":3}}"#));
    assert_ne!(failed, clean, "the dump ignored the failed bank");
    assert_eq!(dump("link", Some(r#"{"DeadLink":{"group":0}}"#)), clean);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn dump_ir_under_all_writes_one_suffixed_file_per_system() {
    let dir = temp_dir("dump-ir-all");
    let ir = dir.join("ir.json");
    let stdout =
        stdout_of(&["--workload", "imdb", "--all", "--dump-ir", ir.to_str().expect("utf-8")]);
    assert_eq!(stdout.lines().count(), 8, "one summary line per system:\n{stdout}");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let mut want: Vec<String> = ["layer", "token"]
        .iter()
        .flat_map(|df| {
            ["transpim", "transpim-nb", "originalpim", "nbp"]
                .map(|arch| format!("ir.{df}-{arch}.json"))
        })
        .collect();
    want.sort();
    assert_eq!(written, want);
    for name in &written {
        let text = std::fs::read_to_string(dir.join(name)).expect("IR written");
        let value: serde_json::Value = serde_json::from_str(&text).expect("IR parses");
        assert!(value["steps"].as_array().is_some_and(|s| !s.is_empty()), "{name}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn closed_stdout_is_not_a_panic() {
    // The reader goes away before the report is printed, like `| head -0`:
    // the run still writes its files and exits 0, with nothing on stderr
    // about stdout.
    let dir = temp_dir("closed-stdout");
    let report = dir.join("report.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_transpim-sim"))
        .args(["--workload", "lm", "--json", report.to_str().expect("utf-8")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("transpim-sim runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("transpim-sim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    latency_and_energy(&report);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
