#!/usr/bin/env bash
# Builds and smoke-runs the benchmark from a clean export of a commit, the way
# the benchmark gate does: `git archive` into a temporary directory, build
# `perf_suite` there with the exact BENCHMARK.json command, run every workload
# for two seconds untraced. Fails on a build error or a non-zero exit, so a
# file that exists only in the working tree, or a changed public signature
# that `perf_suite` imports, fails here before the gate does. Prints the
# clean-build wall time (the gate's two builds share a fixed time budget).
#
#   scripts/bench_clean_checkout.sh [tree-ish]     # default: HEAD
#
# To check uncommitted work, stage it and pass the index as a tree:
#   git add -A && scripts/bench_clean_checkout.sh "$(git write-tree)"
set -euo pipefail
cd "$(dirname "$0")/.."

treeish="${1:-HEAD}"
checkout="$(mktemp -d)"
trap 'rm -rf "$checkout"' EXIT
git archive "$treeish" | tar -x -C "$checkout"
cd "$checkout"

# BENCHMARK.json's command, word for word (the argument list after `--`
# selects the workload).
run=(cargo run --release --offline --quiet --manifest-path perf_suite/Cargo.toml --)

build_started=$SECONDS
"${run[@]}" --emit-benchmark-json >/dev/null
echo "bench_clean_checkout: $treeish built in $((SECONDS - build_started)) s"

for workload in wire_warm cold_exact cold_approx live_churn; do
    "${run[@]}" --workload "$workload" --seconds 2 --trace 0 | tail -n 1
done
echo "bench_clean_checkout: $treeish builds and runs every workload from a clean export"
