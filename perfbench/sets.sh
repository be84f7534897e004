#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and appends one line
# "<workload>\t<seed>\t<result JSON>" per run to a set file, for
# `run.sh compare`. Run it from the root of the checkout:
#
#   bash perfbench/sets.sh <set file> <first seed> <runs> <seconds> [workload...]
set -euo pipefail

set_file=$1 first=$2 runs=$3 seconds=$4
shift 4
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(serve suite flood)
fi
bench=$(dirname "${BASH_SOURCE[0]}")
for w in "${workloads[@]}"; do
	for ((i = 0; i < runs; i++)); do
		seed=$((first + i))
		line=$(bash "$bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
		printf '%s\t%s\t%s\n' "$w" "$seed" "$line" >>"$set_file"
		echo "$w seed $seed: $line" >&2
	done
done
