#!/usr/bin/env bash
# Regenerate everything under results/ from the figure, ablation and fault
# binaries.
#
#   ./scripts/regen_results.sh            # rewrite results/ in place
#   ./scripts/regen_results.sh OUT_DIR    # write OUT_DIR/results/ instead
#
# Each binary writes its JSON into ./results of its working directory;
# results/all_figures.txt is the stdout of the figure and ablation
# binaries, each under a "=== <binary> ===" header. scripts/check.sh
# runs this into a temporary directory and compares the output with the
# committed files (the results-freshness stage).

set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root}" && cd "${1:-$root}" && pwd)

figures=(
  fig_table1_params table2_overhead fig03_motivation fig10_performance
  fig11_breakdown fig12_bandwidth fig13_dse fig14_power fig15_scalability
  asic_comparison ablation_precision ablation_softmax ablation_ring
  ablation_decoder_placement ablation_pipelining ablation_tfaw
)

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p transpim-bench --bins
bin=$(cd "${CARGO_TARGET_DIR:-$root/target}/release" && pwd)

cd "$out"
mkdir -p results
export TRANSPIM_BENCH_QUIET=1
for name in "${figures[@]}"; do
  echo "=== $name ==="
  "$bin/$name"
done > results/all_figures.txt.tmp
mv results/all_figures.txt.tmp results/all_figures.txt
# The fault sweep's injection seed is pinned, so reruns are byte-identical.
TRANSPIM_FAULT_SEED=20220402 "$bin/fault_sweep" > /dev/null
