#!/usr/bin/env bash
# Capture the next performance baseline for the trajectory gate.
#
# Runs `perfgate --capture` — the full canonical matrix, one table of
# 59 cells: 8 NAS kernels plus the 5 sample .ook kernels, each under the
# original, both prefetching, and demand-priority configurations, then
# two multi-tenant hubs, two prefetch-policy cells and three
# disk-redundancy cells — and writes it to the next free BENCH_<n>.json
# at the repo root, then re-validates the file with the schema
# validator. The file carries the oocp-bench-v4
# schema, the only one the reader accepts: BENCH_1..BENCH_6 (v1-v3) stay
# in the tree as read-only history and no longer load, BENCH_7.json is
# the gate. Per run it holds the whylate cause vector, sim_throughput
# (simulated ns per host second, gated only under the wide
# simthroughput.* band), the parity cells' redundancy counters and,
# with `--profile`, a host-time profile summary (total host ns + top
# self-time sites) from a second, profiled run: report-only, never
# gated and never polluting the detached sim_throughput measurement.
# Commit the new file together with the change that motivated it;
# `scripts/ci.sh` compares every build against the newest baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (perfgate)"
cargo build --release -q -p oocp-bench --bin perfgate

# Next free index: baselines are append-only history, never overwritten.
n=1
while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
done
out="BENCH_${n}.json"

echo "== perfgate --capture (index ${n} -> ${out})"
cargo run --release -q -p oocp-bench --bin perfgate -- \
    --capture --out "$out" --index "$n" --profile "$@"

echo "== perfgate --validate ${out}"
cargo run --release -q -p oocp-bench --bin perfgate -- --validate "$out"

echo "bench: captured baseline ${out}; commit it with the change it blesses"
