#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced (end-to-end metrics) and
# traced (per-layer metrics). Each run prints a metric table to stderr and
# its JSON result as the last line of stdout.
#
# Usage, from the repository root:  bash perfbench/run_all.sh [seed] [seconds]
set -euo pipefail

seed="${1:-1}"
seconds="${2:-30}"
for workload in train_opamp2_schematic deploy_tia_pexwc_sparse ga_tia_pexwc_dense; do
    for trace in 0 1; do
        cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
