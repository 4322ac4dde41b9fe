//! The paper's evaluation as one table of experiments.
//!
//! Each [`Experiment`] regenerates one table, figure or ablation (DESIGN.md
//! §4 has the index). It declares the grid cells it reads, and its render
//! appends its section of `results/all_figures.txt` and returns its
//! `results/*.json` files. [`reproduce`] gathers every entry's cells,
//! prices each distinct cell once in a single [`run_grid`] call, and hands
//! each render the reports of its own cells. Renders that price things
//! which are not grid cells (custom programs, degraded runs) do so inline.

use crate::{all_systems, run_grid, GridCell};
use std::fmt::{self, Write};
use std::path::Path;
use transpim::report::SimReport;
use transpim_transformer::workload::Workload;

mod ablation_decoder_placement;
mod ablation_pipelining;
mod ablation_precision;
mod ablation_ring;
mod ablation_softmax;
mod ablation_tfaw;
mod asic_comparison;
mod fault_sweep;
mod fig03_motivation;
mod fig10_performance;
mod fig11_breakdown;
mod fig12_bandwidth;
mod fig13_dse;
mod fig14_power;
mod fig15_scalability;
mod fig_table1_params;
mod table2_overhead;

/// One section of the reproduction.
pub struct Experiment {
    /// Section name: the `=== name ===` header in `all_figures.txt`.
    pub name: &'static str,
    /// The grid cells the render reads, in the order it reads them.
    pub cells: fn() -> Vec<GridCell>,
    /// Append the section's text to the `String` from the reports of
    /// `cells` (same order) and return the JSON files it writes.
    pub render: fn(&[&SimReport], &mut String) -> Result<Vec<Json>, fmt::Error>,
}

/// One `results/<name>.json` file: its name and its pretty-printed text.
pub struct Json {
    /// File stem under `results/`.
    pub name: &'static str,
    /// The file's contents.
    pub text: String,
}

/// Pretty-print `value` as the JSON file `results/<name>.json`.
fn json<T: serde::Serialize>(name: &'static str, value: &T) -> Json {
    Json { name, text: serde_json::to_string_pretty(value).expect("serialize") }
}

/// A horizontal rule of `width` dashes.
fn rule(out: &mut String, width: usize) -> fmt::Result {
    writeln!(out, "{}", "-".repeat(width))
}

/// The eight systems of [`all_systems`] at 8 stacks on each of
/// `workloads`, workload-major.
fn systems_on(workloads: &[Workload]) -> Vec<GridCell> {
    workloads
        .iter()
        .flat_map(|w| all_systems().into_iter().map(|(df, kind)| GridCell::system(kind, df, w, 8)))
        .collect()
}

fn no_cells() -> Vec<GridCell> {
    Vec::new()
}

macro_rules! entry {
    ($module:ident) => {
        entry!($module, $module::cells)
    };
    ($module:ident, $cells:expr) => {
        Experiment { name: stringify!($module), cells: $cells, render: $module::render }
    };
}

/// Every experiment, in `all_figures.txt` order.
pub const EXPERIMENTS: [Experiment; 17] = [
    entry!(fig_table1_params, no_cells),
    entry!(table2_overhead, no_cells),
    entry!(fig03_motivation),
    entry!(fig10_performance),
    entry!(fig11_breakdown),
    entry!(fig12_bandwidth),
    entry!(fig13_dse),
    entry!(fig14_power),
    entry!(fig15_scalability),
    entry!(asic_comparison),
    entry!(ablation_precision, no_cells),
    entry!(ablation_softmax, no_cells),
    entry!(ablation_ring, no_cells),
    entry!(ablation_decoder_placement, no_cells),
    entry!(ablation_pipelining),
    entry!(ablation_tfaw),
    entry!(fault_sweep, no_cells),
];

/// The distinct cells of `cells`, and for each input cell the index of its
/// equal among them.
fn dedup(cells: Vec<GridCell>) -> (Vec<GridCell>, Vec<usize>) {
    let mut distinct: Vec<GridCell> = Vec::new();
    let index = cells
        .into_iter()
        .map(|cell| match distinct.iter().position(|d| *d == cell) {
            Some(i) => i,
            None => {
                distinct.push(cell);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, index)
}

/// Price every distinct cell of the table once, on up to `jobs` pool
/// workers, and render every experiment in table order: the text of
/// `all_figures.txt` and every JSON file. Reports the declared and priced
/// cell counts on stderr. The output does not depend on `jobs`.
fn render_all(jobs: usize) -> (String, Vec<Json>) {
    let declared: Vec<Vec<GridCell>> = EXPERIMENTS.iter().map(|e| (e.cells)()).collect();
    let counts: Vec<usize> = declared.iter().map(Vec::len).collect();
    let (distinct, index) = dedup(declared.into_iter().flatten().collect());
    eprintln!("reproduce: {} grid cells declared, {} priced", index.len(), distinct.len());
    let reports: Vec<SimReport> =
        run_grid(jobs, false, false, distinct).into_iter().map(|o| o.report).collect();

    let mut index = index.into_iter();
    let mut text = String::new();
    let mut json = Vec::new();
    for (experiment, count) in EXPERIMENTS.iter().zip(counts) {
        let mine: Vec<&SimReport> = index.by_ref().take(count).map(|i| &reports[i]).collect();
        let rendered = writeln!(text, "=== {} ===", experiment.name)
            .and_then(|()| (experiment.render)(&mine, &mut text));
        json.extend(rendered.expect("writing to a String cannot fail"));
    }
    (text, json)
}

/// Regenerate `out_dir/results/`: every JSON file and `all_figures.txt`.
pub fn reproduce(out_dir: &Path) -> std::io::Result<()> {
    let (text, json) = render_all(transpim_par::max_threads());
    let dir = out_dir.join("results");
    std::fs::create_dir_all(&dir)?;
    for file in json {
        std::fs::write(dir.join(format!("{}.json", file.name)), file.text)?;
    }
    std::fs::write(dir.join("all_figures.txt"), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique(mut names: Vec<&str>) -> bool {
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        names.len() == n
    }

    #[test]
    fn names_are_unique_and_each_distinct_cell_is_priced_once() {
        assert!(unique(EXPERIMENTS.iter().map(|e| e.name).collect()), "experiment names");
        let (_, json) = render_all(1);
        assert!(unique(json.iter().map(|j| j.name).collect()), "JSON file names");

        // fig12 reads exactly the paper grid fig10 reads, so at least that
        // many declared cells are priced for another experiment.
        let cells = |name: &str| {
            (EXPERIMENTS.iter().find(|e| e.name == name).expect("experiment in the table").cells)()
        };
        let repeated = cells("fig12_bandwidth");
        assert!(repeated == cells("fig10_performance"));
        let declared: Vec<GridCell> = EXPERIMENTS.iter().flat_map(|e| (e.cells)()).collect();
        let n = declared.len();
        let priced = dedup(declared).0.len();
        assert!(priced + repeated.len() <= n, "{priced} priced of {n} declared");
    }
}
