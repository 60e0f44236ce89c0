#!/usr/bin/env bash
# The benchmark's one entry command: build the nested package, then run
# it with whatever arguments were given.
#
#   benchmark/run.sh                         all four workloads untraced,
#                                            then traced, then the probes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run, one result line
#   benchmark/run.sh --aa [--runs N]         two sets of runs, compared
#   benchmark/run.sh --probes | --smoke
#
# Cargo's own output goes to stderr, so stdout carries only the rows and
# the result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/oocp-benchmark" "$@"
