#!/bin/sh
# Prints every end-to-end and per-layer metric of every workload, by name and
# with its unit, and each run's output check ("correct", "failed").
#
# Usage, from the repository root:
#   sh sweepbench/all.sh [seed] [seconds]
set -e
seed=${1:-2009}
seconds=${2:-20}
for workload in edge_flood_sweep edge_dense_churn geo_flood_sweep dist_adaptive_sweep; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path sweepbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
