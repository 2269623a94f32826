#!/usr/bin/env bash
# Every workload with one seed, end to end and then traced; prints each
# run's summary (environment, fail_frac, every metric with its unit).
#
#   bash perfbench/all.sh [SEED] [SECONDS]
set -euo pipefail
seed=${1:-1}
seconds=${2:-60}
for workload in map-probe resolvent-fields; do
    for trace in 0 1; do
        python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | sed '$d'
    done
done
