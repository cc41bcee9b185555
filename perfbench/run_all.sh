#!/usr/bin/env bash
# Run every workload once, untraced, from the repository root:
#   bash perfbench/run_all.sh [seed] [seconds]
# Prints "<workload> <result JSON>" per workload; exits non-zero if any run
# failed its output checks or could not be made.
set -u
seed="${1:-1}"
seconds="${2:-20}"
status=0
for workload in sweep-1d engine-lowd ann-decide small-batch; do
  result="$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
  code=$?
  echo "$workload ${result##*$'\n'}"
  [ "$code" -eq 0 ] || status=$code
done
exit "$status"
