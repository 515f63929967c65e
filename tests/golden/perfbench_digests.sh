#!/usr/bin/env bash
# Print the simulated-result digest of every perfbench workload at one seed,
# one line per run: "<workload> trace=<0|1> digest {...}". Building
# perfbench_tedge is part of the first run, so this also checks that the
# benchmark still compiles against src/.
#
#   tests/golden/perfbench_digests.sh 1 | diff tests/golden/perfbench_digests_seed1.txt -
#
# Regenerate the golden file only when a change is meant to alter simulated
# results, and say so in CHANGES.md.
set -euo pipefail
seed="${1:?usage: perfbench_digests.sh <seed>}"
cd "$(dirname "$0")/../.."
for run in "c3-docker-steady 0" "c3-k8s-churn 0" "cp-fill-sharded 0" "c3-k8s-churn 1"; do
    set -- $run
    out="$(python3 perfbench/run.py --workload "$1" --seed "$seed" --seconds 1 --trace "$2")"
    echo "$1 trace=$2 $(grep '^digest ' <<<"$out")"
done
