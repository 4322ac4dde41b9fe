//! End-to-end checks of the `reproduce` binary: it regenerates every
//! results file without touching stdout, and rejects anything but one
//! output directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use transpim_bench::experiments::EXPERIMENTS;

/// The names of the `*.json` files in `dir`, sorted.
fn json_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("results dir")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8"))
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn temp_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("transpim-reproduce-{test}-{}", std::process::id()))
}

#[test]
fn writes_every_results_file_with_stdout_closed() {
    // The reader goes away at spawn, like `| head -0`: nothing is printed,
    // so nothing can fail on a broken pipe.
    let dir = temp_dir("closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("reproduce runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("reproduce exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let results = dir.join("results");
    let committed = json_names(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    assert_eq!(committed.len(), 20);
    assert_eq!(json_names(&results), committed, "every committed JSON file, and no other");
    let figures = std::fs::read_to_string(results.join("all_figures.txt")).expect("all_figures");
    let headers: Vec<&str> = figures
        .lines()
        .filter_map(|line| line.strip_prefix("=== ")?.strip_suffix(" ==="))
        .collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(headers, names, "one header per experiment, in table order");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn rejects_flags_and_extra_arguments() {
    let dir = temp_dir("usage");
    let dir = dir.to_str().expect("utf-8");
    for args in [&["--bogus"][..], &["--jobs", "2"], &[dir, dir]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one-line usage, got {stderr}");
        assert!(stderr.starts_with("usage: reproduce"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(!Path::new(dir).exists(), "a rejected run writes nothing");
}
