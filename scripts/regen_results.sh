#!/usr/bin/env bash
# Regenerate everything under results/ with the reproduce binary.
#
#   ./scripts/regen_results.sh            # rewrite results/ in place
#   ./scripts/regen_results.sh OUT_DIR    # write OUT_DIR/results/ instead
#
# reproduce writes every JSON file and results/all_figures.txt, each
# experiment's text under a "=== <experiment> ===" header. scripts/check.sh
# runs this into a temporary directory and compares the output with the
# committed files (the results-freshness stage).

set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root}" && cd "${1:-$root}" && pwd)

# --bins also builds results_diff, which the results-freshness stage of
# scripts/check.sh runs next.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p transpim-bench --bins
"${CARGO_TARGET_DIR:-$root/target}/release/reproduce" "$out"
