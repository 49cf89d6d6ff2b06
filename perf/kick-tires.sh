#!/usr/bin/env bash
# Kick the tires: build the benchmark offline, run every workload untraced
# then traced at a short length, and print one combined table.
#
#   perf/kick-tires.sh [SECONDS]     (default 4; run from anywhere)
#
# A short run checks that everything works and that outputs are correct; its
# numbers are noisier than a full-length run's (see README.md for those).
set -euo pipefail

cd "$(dirname "$0")/.."
seconds="${1:-4}"
out="perf/out"
workloads=(edge-frame wire-unique wire-hot cluster-hot)

echo "Starting Kick Tires (all workloads, ${seconds} s each, untraced then traced)"
cargo build --release --offline --manifest-path perf/Cargo.toml
perf="${CARGO_TARGET_DIR:-perf/target}/release/perf"

rm -rf "$out/kick-tires"
mkdir -p "$out/kick-tires"
for trace in 0 1; do
  for workload in "${workloads[@]}"; do
    echo "-- $workload --trace $trace"
    "$perf" --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" \
      --out-dir "$out" >"$out/kick-tires/$workload-$trace.txt"
    tail -n 1 "$out/kick-tires/$workload-$trace.txt" >"$out/kick-tires/$workload-$trace.json"
  done
done

# One combined table: a row per metric, a column per workload. The result
# lines are flat enough to pick apart with sed.
value() { # value FILE METRIC -> the metric's value
  sed -n "s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p" "$1"
}
flag() { # flag FILE KEY -> the value of a top-level key
  sed -n "s/.*\"$2\": \([a-z0-9]*\),.*/\1/p" "$1"
}
for trace in 0 1; do
  echo
  if [ "$trace" = 0 ]; then echo "== untraced: end-to-end metrics"; else echo "== traced: per-layer metrics"; fi
  printf '%-32s' metric
  printf '%16s' "${workloads[@]}"
  echo
  for key in correct attempted failed; do
    printf '%-32s' "$key"
    for workload in "${workloads[@]}"; do
      printf '%16s' "$(flag "$out/kick-tires/$workload-$trace.json" "$key")"
    done
    echo
  done
  metrics=$(tr ',' '\n' <"$out/kick-tires/edge-frame-$trace.json" |
    sed -n 's/.*"\([A-Za-z0-9_.-]*\)": {"value".*/\1/p')
  for metric in $metrics; do
    printf '%-32s' "$metric"
    for workload in "${workloads[@]}"; do
      printf '%16.4f' "$(value "$out/kick-tires/$workload-$trace.json" "$metric")"
    done
    echo
  done
done

if grep -L '"correct": true, "attempted": [0-9]*, "failed": 0,' "$out"/kick-tires/*.json | grep .; then
  echo "FAILED: the runs listed above were incorrect or had failed requests"
  exit 1
fi
echo
echo "Done! All eight runs correct with no failed request; full tables are in $out/kick-tires/"
