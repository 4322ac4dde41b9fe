//! `transpim-sim` rejects invalid flags with exit code 2 and a one-line
//! diagnostic naming what is wrong, before any simulation work starts —
//! it never prints a report for an invalid machine, and never panics or
//! aborts on an oversized workload. A workload that fits the memory but
//! whose simulated totals leave the statistics' range exits 2 as well, and
//! so does a fault scenario whose event counts pass 2^64.

use std::process::Command;

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
