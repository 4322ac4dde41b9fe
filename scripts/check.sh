#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the full test suite — all offline.
#
#   ./scripts/check.sh            # run everything
#   ./scripts/check.sh --fast     # skip the release build
#
# The repository is developed against an offline registry (see README
# "Offline-build constraint"); --offline makes a network-touching
# dependency change fail here instead of in CI.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> Cargo.lock completeness (offline resolve)"
if ! cargo metadata --frozen --format-version 1 >/dev/null 2>/tmp/check_lock_err; then
  cat /tmp/check_lock_err >&2
  echo >&2
  echo "error: the dependency graph does not resolve from the committed" >&2
  echo "Cargo.lock without network access. This repository must build" >&2
  echo "offline (see README \"Offline-build constraint\"): every dependency" >&2
  echo "either lives in the workspace, in third_party/ via [patch.crates-io]," >&2
  echo "or must already be locked. Regenerate the lockfile with" >&2
  echo "'cargo metadata --offline' on a machine where it resolves, and" >&2
  echo "commit the result." >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every intra-doc link must resolve, so deleting an item cannot leave a
# dangling link in the docs of what remains.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --offline --workspace --release
fi

echo "==> cargo test"
cargo test --offline --workspace -q

# The workspace suite above already runs this, but a broken parallel
# engine must fail the gate with its own name on the line.
echo "==> parallel determinism (jobs=1 vs jobs=N byte-identical)"
cargo test --offline -q --test parallel_determinism

# Same rationale: the loop-compressed decode path must price and report
# byte-identically to unrolled programs, and trace them with each collapsed
# repeat summarized, and fail loudly by name.
echo "==> repeat equivalence (compressed vs unrolled)"
cargo test --offline -q --test repeat_equivalence

# Fault suite: injection disabled must be byte-invisible, degraded runs
# must be deterministic at any job count, and ring degradation must price
# consistently. Each test seeds its own scenarios.
echo "==> fault suite (byte-invisible when off, deterministic when on)"
cargo test --offline -q --test fault_equivalence --test fault_degradation

# A run without --faults is the run under an empty scenario, through the
# same entry point: stdout and every written file must be byte-identical
# whether the empty scenario is implicit or passed as a file.
echo "==> CLI: no scenario ≡ empty scenario"
cli_dir=$(mktemp -d)
trap 'rm -rf "$cli_dir"' EXIT
echo '{"seed": 7, "faults": []}' > "$cli_dir/empty-scenario.json"
for system in "--workload imdb" "--workload imdb --arch pim --dataflow layer"; do
  for run in plain empty; do
    faults=()
    [[ $run == empty ]] && faults=(--faults "$cli_dir/empty-scenario.json")
    # shellcheck disable=SC2086 # $system is a list of arguments
    cargo run --release --offline --quiet --bin transpim-sim -- $system "${faults[@]}" \
      --json "$cli_dir/$run.report.json" --trace "$cli_dir/$run.trace.json" \
      --metrics "$cli_dir/$run.metrics.json" > "$cli_dir/$run.stdout" 2>/dev/null
  done
  for file in stdout report.json trace.json metrics.json; do
    cmp "$cli_dir/plain.$file" "$cli_dir/empty.$file"
  done
  echo "    $system: identical"
done

# What is committed under results/ is what the code produces: rerun every
# experiment of the reproduce binary into a temporary directory and compare
# each JSON file value by value (strings and integers exact, other numbers
# within 1e-9 relative) and all_figures.txt byte for byte. After a change
# that is meant to move the model, regenerate with scripts/regen_results.sh.
echo "==> results freshness (scripts/regen_results.sh vs results/)"
./scripts/regen_results.sh "$cli_dir/fresh"
"${CARGO_TARGET_DIR:-target}/release/results_diff" results "$cli_dir/fresh/results"
diff -u results/all_figures.txt "$cli_dir/fresh/results/all_figures.txt"
echo "    $(ls results/*.json | wc -l) JSON files and all_figures.txt match"

# A traced decode is bounded by the compiled program, not by the unrolled
# decode length: the default traced Token-LM run must write a trace under
# 1 MB, and the Layer-LM run (one decoder-layer repeat per token, so its
# trace grows per token but not per layer) one under 3 MB; both fewer than
# 500 metric keys (one per line in the pretty JSON).
echo "==> bounded trace (transpim-sim --workload lm [--dataflow layer] --trace --metrics)"
for bound in "token 1000000" "layer 3000000"; do
  read -r dataflow max_bytes <<< "$bound"
  cargo run --release --offline --quiet --bin transpim-sim -- --workload lm \
    --dataflow "$dataflow" --trace "$cli_dir/lm.trace.json" \
    --metrics "$cli_dir/lm.metrics.json" >/dev/null 2>&1
  trace_bytes=$(wc -c < "$cli_dir/lm.trace.json")
  metric_keys=$(grep -c '^  "' "$cli_dir/lm.metrics.json")
  if (( trace_bytes >= max_bytes || metric_keys >= 500 )); then
    echo "error: traced $dataflow LM run wrote a $trace_bytes-byte trace and" >&2
    echo "$metric_keys metric keys; the bounds are $max_bytes bytes and 500 keys." >&2
    exit 1
  fi
  echo "    $dataflow: trace $trace_bytes bytes, $metric_keys metric keys"
done

# Property suites, by name and under a pinned seed, with a case-count
# audit. The vendored proptest engine appends "<test>\t<cases>" for every
# proptest! property to $TRANSPIM_PROPTEST_SUMMARY; if any property
# executed zero cases — e.g. the engine regressed to the old
# body-swallowing stub — the gate fails. TRANSPIM_PROPTEST_CASES can
# raise the per-property case count for deeper local soaks.
echo "==> property suites (fixed seed, zero-case audit)"
summary=target/proptest-summary.txt
rm -f "$summary"
TRANSPIM_PROPTEST_SEED="${TRANSPIM_PROPTEST_SEED:-20220402}" \
TRANSPIM_PROPTEST_SUMMARY="$summary" \
  cargo test --offline -q \
    --test scheduler_properties \
    --test differential_fuzz \
    --test proptest_engine \
    --test serde_roundtrips
if [[ ! -s "$summary" ]]; then
  echo "error: no proptest case-count summary was written — the property" >&2
  echo "engine is not executing generated cases." >&2
  exit 1
fi
awk -F'\t' '
  $2 + 0 == 0 { print "error: property ran zero cases: " $1; bad = 1 }
  END { exit bad }
' "$summary" >&2
for required in \
  scheduler_properties::ring_step_respects_group_serialization_floor \
  scheduler_properties::slot_scheduler_matches_hashset_reference \
  scheduler_properties::first_fit_matches_the_reference_on_arbitrary_hop_sets \
  scheduler_properties::slot_profile_prices_every_byte_count_like_the_reference \
  differential_fuzz::banksim_attention_matches_f32_within_tolerance \
  differential_fuzz::repeat_compression_is_an_exact_encoding \
  differential_fuzz::token_and_layer_flow_encoders_agree \
  differential_fuzz::grid_pricing_is_job_count_invariant \
  differential_fuzz::correctable_faults_stay_within_error_budget \
  differential_fuzz::uncorrectable_faults_surface_as_sim_error \
  differential_fuzz::lump_order_is_irrelevant \
  differential_fuzz::degraded_compression_is_an_exact_encoding \
  differential_fuzz::flip_threshold_matches_drawn_flips \
  differential_fuzz::clean_scan_matches_observed_draws \
  differential_fuzz::chrome_writer_matches_reference_writer \
  serde_roundtrips::random_programs_roundtrip_and_keep_wire_shape
do
  if ! grep -q "^${required}$(printf '\t')" "$summary"; then
    echo "error: required property did not run: $required" >&2
    exit 1
  fi
done
echo "    $(wc -l < "$summary") properties, case counts audited ($summary)"

# The simulated machine's values must not move under a change that is not
# meant to move the model. The benchmark's own tests run first; then one
# short run per workload, whose output checks compare every simulated value
# against perfbench/reference.json within 1e-9 relative and count any
# mismatch as a failed request.
echo "==> simulated-value reference (perfbench, seed 1)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml
for workload in decode-4k paper-grid traced-lm degraded; do
  result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  if [[ "$result" != *'"failed": 0,'* ]]; then
    echo "error: perfbench $workload failed its output checks: $result" >&2
    exit 1
  fi
  echo "    $workload: failed 0"
done

echo "All checks passed."
