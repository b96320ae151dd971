#!/usr/bin/env bash
# Runs every workload untraced, then traced, at one seed, from the
# repository root. Each run prints its figures by name with units, its
# fail_frac, and a JSON result line. Exits non-zero if any run failed.
#
#   bash perfbench/run_all.sh [seed] [seconds]
set -u
seed=${1:-1}
seconds=${2:-20}
status=0
for workload in sweep_mnist fleet_burst retrain_mnist serve_mix; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            || status=1
    done
done
exit "$status"
