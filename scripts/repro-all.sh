#!/usr/bin/env bash
# Regenerate every table and figure of the paper's evaluation, plus the
# ablations and future-work explorations. Output mirrors EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Gate on the tier-1 checks first: a sweep over a broken build wastes
# hours and produces tables nobody should trust.
./scripts/ci.sh

cargo run --release -q -p oocp-bench --bin repro -- --all "$@"
for row in ablations chaos; do
    echo "================================================================"
    echo "== $row"
    echo "================================================================"
    cargo run --release -q -p oocp-bench --bin repro -- "$row" "$@"
    echo
done
