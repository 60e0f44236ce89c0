#!/usr/bin/env bash
# Tier-1 gate: everything must build and every test must pass.
# Run this before committing and before any experiment sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every stage prints its wall time when the next one starts, and the
# last line carries the total, so a CI log is also a timing record.
CI_T0=$SECONDS
STAGE=""
stage() {
    if [ -n "$STAGE" ]; then
        echo "-- $STAGE: $((SECONDS - STAGE_T0)) s"
    fi
    STAGE="$1"
    STAGE_T0=$SECONDS
    if [ -n "$STAGE" ]; then
        echo "== $STAGE"
    fi
}

stage "cargo fmt --all -- --check"
cargo fmt --all -- --check

stage "cargo build --release"
cargo build --release --workspace --bins

stage "cargo test -q --no-fail-fast"
# default-members covers the workspace: the facade's integration and
# property suites plus every crate's unit tests. Cargo stops at the
# first red package by default; `--no-fail-fast` runs the rest too, so
# one failure cannot hide another two hundred tests behind it.
cargo test -q --no-fail-fast

stage "differential oracle, release arithmetic (bytecode == tree-walker)"
# `cargo test -q` above ran it with debug arithmetic (overflow checks
# on); wrapping behaviour and float codegen differ in release, which is
# what every binary below actually runs. The oracle lives beside the
# tree-walker it compares against, in crates/ir/src/oracle.rs; its
# strip leg (strips of seeded lengths, compared by what the calls add
# up to) runs here too, and with it strip code: every fused arm of the
# strip executor is executed (the test counts them) with this build's
# float codegen. `stencil_strips` pins the strip coverage and the fused
# sequence of kernels/stencil.ook; `memvm_counts` holds that hints a
# strip stood in for are counted by the VM that granted it.
cargo test -q --release -p oocp-ir -- vm_matches_tree_walker stencil_strips memvm_counts

stage "simulated contract and strip coverage, release build"
# tests/sim_contract.rs pins one FNV per NAS cell over everything a run
# books; tests/strip_coverage.rs floors each cell's share of references
# made in strips. Both ran in debug above; this is the build that runs
# the strips the benchmark measures.
cargo test -q --release --test sim_contract --test strip_coverage

stage "differential oracle, release build (resident-hit fast path == slow path)"
# The same split for the machine's fast path: the debug run above had
# the `debug_assert`s and overflow checks of `touch_is_hit` compiled in,
# every binary below has them compiled out. The driver (`DiffOp`,
# `assert_same_machine`) lives beside the paging core, in the tests of
# crates/os/src/machine.rs, and arms each extension of
# crates/os/src/machine/ in turn. `strips_` is the same comparison for
# `Machine::strip` + `strip_charge` against the accesses one by one.
cargo test -q --release -p oocp-os -- fast_path_matches_slow_path strips_

stage "allocation budget, release build (the hint path allocates nothing per call)"
# tests/alloc_budget.rs counts heap allocations below the interpreter
# with a counting global allocator of its own: a page walk or a NAS cell
# makes as many in a long run as in a short one, and few. The debug run
# above counted the same; this is the build the benchmark measures.
cargo test -q --release --test alloc_budget

stage "benchmark package (unit tests + 1/64-scale smoke)"
# benchmark/ is a stand-alone package built against ../crates/*; a
# change that breaks the public items it calls fails here, before the
# benchmark pipeline sees it.
cargo test -q --offline --release --manifest-path benchmark/Cargo.toml

stage "strips == per-op, all 16 nas_ooc cells (benchmark's traced pass vs its plain pass)"
# A traced run makes one pass through `TracedVm`, which grants no
# strips and so runs the `Op` stream, and one through the `Runtime`,
# which does and runs strip code, and exits non-zero if any simulated
# number of any cell differs between them or `MemVm` disagrees on the
# final data.
bash benchmark/run.sh --workload nas_ooc --seconds 1 --trace 1 > /tmp/oocp-strips.$$ || {
    tail -5 /tmp/oocp-strips.$$; rm -f /tmp/oocp-strips.$$
    echo "nas_ooc traced and plain passes disagree"; exit 1; }
tail -1 /tmp/oocp-strips.$$ | grep -q '"correct":true,"attempted":48,"failed":0' || {
    tail -1 /tmp/oocp-strips.$$; rm -f /tmp/oocp-strips.$$
    echo "nas_ooc traced run did not verify"; exit 1; }
rm -f /tmp/oocp-strips.$$

stage "memory gates (bounded peaks that do not grow with the run)"
# page_write: under parity every write-back is a durable write, and it
# carries the page itself, not a copy: only a store to a page whose write
# is still in flight takes a 4 KB copy, and the walk makes none. The
# durable store is a view of the live image with copies of the pages
# that differ from it, bounded by the dirty pages plus the writes in
# flight, so by memory. The run peaks at the live image, the parity
# image (taken from the per-thread image pool at the snapshot) and those
# memory-sized durable copies: about 32 MB here. With a full durable
# image it was 39, with a copy per write in flight 46.7, held until
# `finish` 171, growing with the run.
# page_read: the free list holds exactly its pages (about 19.6 MB; with a
# deque that kept an entry per release it was 30, a third of it history).
# nas_ooc, nas_incore: sixteen cells of 16 MB data sets on 8 and 32 MB
# machines (about 21 MB each, since BUK's verifier stopped allocating a
# word per key); lowering adds a table of strip code per strip loop, and
# this is what says per loop and not per iteration.
# All again at eight times the length: a run of k passes must peak
# where a run of one pass does.
peak_rss() { # workload seconds
    local line
    line="$(bash benchmark/run.sh --workload "$1" --seconds "$2" --trace 0 | tail -1)"
    grep -q '"correct":true' <<< "$line" || { echo "$line" >&2; echo "$1 did not verify" >&2; return 1; }
    sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p' <<< "$line"
}
for gate in "page_write 36" "page_read 24" "nas_ooc 24" "nas_incore 24"; do
    read -r W CAP <<< "$gate"
    RSS_1="$(peak_rss "$W" 1)"
    RSS_8="$(peak_rss "$W" 8)"
    echo "$W peak_rss_mb = ${RSS_1:-missing} at --seconds 1, ${RSS_8:-missing} at --seconds 8"
    awk -v a="$RSS_1" -v b="$RSS_8" -v cap="$CAP" 'BEGIN {
        d = b - a; if (d < 0) d = -d
        exit !(a != "" && b != "" && a + 0 < cap && b + 0 < cap && d <= 1)
    }' || { echo "$W peak_rss_mb must stay under $CAP and within 1 MB across run lengths"; exit 1; }
done

stage "repro --all --mem-mb 1 (all eleven paper experiments run; every run verifies)"
# The tables and figures of the paper are entries of one table behind
# one binary, and the sweeps and gates below are rows of a second table
# beside it. `repro` exits 1 if the workload verifier rejected any run,
# or a sweep's gate did not hold, so a green stage means every printed
# number came from a run that computed the right data.
cargo run --release -q -p oocp-bench --bin repro -- --all --mem-mb 1 > /dev/null
REPRO_WANT="table1 table2 fig3 fig4 fig5 table3 fig6 fig7 fig8 futurework modern \
ablations schedsweep chaos crash disk-death corrupt-parity tenants tenants-full quota-gate"
REPRO_GOT="$(cargo run --release -q -p oocp-bench --bin repro -- --list | awk '{ print $1 }' | xargs)"
[ "$REPRO_GOT" = "$REPRO_WANT" ] || {
    echo "repro --list names [$REPRO_GOT], expected [$REPRO_WANT]"; exit 1; }
REPRO_RC=0
cargo run --release -q -p oocp-bench --bin repro -- nosuch > /dev/null 2>&1 || REPRO_RC=$?
[ "$REPRO_RC" -eq 2 ] || {
    echo "repro nosuch exited $REPRO_RC, expected 2 (usage)"; exit 1; }

stage "schedsweep smoke (policy sweep correctness gate)"
cargo run --release -q -p oocp-bench --bin repro -- schedsweep --smoke --mem-mb 1

stage "ablations smoke (policy x kernel matrix + checksum oracle)"
# The policy matrix gates itself: every policy cell must verify and
# its final checksum must equal the no-prefetch run — policies are
# timing-only by contract.
cargo run --release -q -p oocp-bench --bin repro -- ablations --smoke

stage "policy negative gate (a data-corrupting policy must be caught)"
# Install the test-only broken policy; the same matrix must now fail
# with a verification error or checksum divergence — otherwise the
# timing-only oracle has no teeth. The proptest twin of this gate is
# tests/proptest_policy.rs::broken_policy_is_caught.
if cargo run --release -q -p oocp-bench --bin repro -- \
    ablations --smoke --policy broken > /tmp/oocp-bp.$$ 2>&1; then
    cat /tmp/oocp-bp.$$
    rm -f /tmp/oocp-bp.$$
    echo "repro ablations --policy broken passed: the policy oracle has no teeth"
    exit 1
fi
grep -q "FAIL: ablations .*\(failed to verify\|checksum\)" /tmp/oocp-bp.$$ || {
    cat /tmp/oocp-bp.$$; rm -f /tmp/oocp-bp.$$
    echo "repro ablations --policy broken failed for the wrong reason"; exit 1; }
rm -f /tmp/oocp-bp.$$

stage "tenants smoke (multi-tenant fairness + isolation gates)"
# Co-schedule 1/2/4 kernels on one machine: every tenant's checksum
# must match its solo run, worst p95 demand stall within 3x solo, and
# the co-scheduled makespan must beat the serial schedule; a chaos
# cell (disk faults + one tenant killed) must leave survivors
# bit-exact. The row gates all of this itself and exits non-zero.
# Each run takes seconds; under `timeout`, a scheduler that never
# terminates fails its stage instead of hanging CI.
timeout 600 cargo run --release -q -p oocp-bench --bin repro -- tenants --smoke

stage "tenants quota gate (enforcement, and an overrun without it)"
# Both legs in one row: with quotas a hint-free hog sharing the machine
# with a small victim is clamped at its fair share, with quota evictions
# as the witness; with quotas off the same hog must overrun its share —
# otherwise the quota machinery is decorative. Either leg failing exits
# non-zero. `quota_gate_holds_with_quotas_and_is_overrun_without` runs
# the same row under `cargo test`.
timeout 600 cargo run --release -q -p oocp-bench --bin repro -- quota-gate

stage "obsreport smoke (observability invariants + JSON round-trip)"
# The binary asserts the attribution, ledger, and whylate-partition
# invariants itself; --json makes it re-read, re-parse, and
# re-validate the emitted file; --metrics-out attaches the sim-time
# sampler and exports the time series, which must pass the structural
# validators from the outside.
OBS_JSON="$(mktemp /tmp/oocp-report-XXXXXX.json)"
TRACE_JSON="$(mktemp /tmp/oocp-trace-XXXXXX.json)"
MET_PREFIX="/tmp/oocp-met.$$"
trap 'rm -f "$OBS_JSON" "$TRACE_JSON" "$MET_PREFIX.prom" "$MET_PREFIX.jsonl"' EXIT
cargo run --release -q -p oocp-bench --bin obsreport -- --smoke --json "$OBS_JSON" \
    --metrics-out "$MET_PREFIX"
test -s "$OBS_JSON" || { echo "obsreport wrote an empty report"; exit 1; }

stage "telemetry export smoke (prom + jsonl validate, dash renders)"
cargo run --release -q -p oocp-bench --bin obsreport -- --check-metrics "$MET_PREFIX.prom"
cargo run --release -q -p oocp-bench --bin obsreport -- --check-metrics "$MET_PREFIX.jsonl"
cargo run --release -q -p oocp-bench --bin obsreport -- --check-report "$OBS_JSON"
cargo run --release -q -p oocp-bench --bin dash -- "$MET_PREFIX.jsonl" \
    --report "$OBS_JSON" > /dev/null

stage "profile smoke (host-time capture -> validator -> flamegraph)"
# Run one sample kernel under the host-time profiler; the collapsed
# dump must pass the structural validator from the outside and the
# dash flamegraph renderer must accept the site tree. The profiled
# run's sim state stays bit-identical to a detached run — that line is
# held by tests/proptest_prof.rs, already run by `cargo test` above.
PROF_PREFIX="/tmp/oocp-prof.$$"
cargo run --release -q -p oocp-bench --bin profile -- kernels/stencil.ook \
    --mem-mb 4 --out "$PROF_PREFIX" > /dev/null
test -s "$PROF_PREFIX.prof" || { echo "profile wrote an empty site tree"; exit 1; }
cargo run --release -q -p oocp-bench --bin obsreport -- \
    --check-collapsed "$PROF_PREFIX.collapsed"
cargo run --release -q -p oocp-bench --bin dash -- \
    --flame "$PROF_PREFIX.prof" > /dev/null

stage "profile negative gate (a corrupted collapsed stack must be rejected)"
# Break the first line's sample count; the validator must refuse the
# file and say why — otherwise the smoke gate above proves nothing.
BAD_COLL="/tmp/oocp-badcoll.$$"
sed '1s/ [0-9][0-9]*$/ not-a-number/' "$PROF_PREFIX.collapsed" > "$BAD_COLL"
if cargo run --release -q -p oocp-bench --bin obsreport -- \
    --check-collapsed "$BAD_COLL" > /tmp/oocp-cc.$$ 2>&1; then
    cat /tmp/oocp-cc.$$
    rm -f /tmp/oocp-cc.$$ "$BAD_COLL" "$PROF_PREFIX.prof" "$PROF_PREFIX.collapsed"
    echo "obsreport --check-collapsed accepted a corrupted stack line"
    exit 1
fi
grep -q "not an unsigned integer" /tmp/oocp-cc.$$ || {
    cat /tmp/oocp-cc.$$; rm -f /tmp/oocp-cc.$$ "$BAD_COLL"
    echo "obsreport --check-collapsed failed for the wrong reason"; exit 1; }
rm -f /tmp/oocp-cc.$$ "$BAD_COLL" "$PROF_PREFIX.prof" "$PROF_PREFIX.collapsed"

stage "whylate negative gate (a mis-attributed cause table must be caught)"
# Corrupt one whylate cause count in the emitted report; the partition
# check inside --check-report must fail — otherwise the causal
# attribution is decorative.
BAD_JSON="/tmp/oocp-bad.$$"
sed 's/"late_queue_wait":\([0-9][0-9]*\)/"late_queue_wait":9999999/' "$OBS_JSON" > "$BAD_JSON"
if cargo run --release -q -p oocp-bench --bin obsreport -- \
    --check-report "$BAD_JSON" > /tmp/oocp-wl.$$ 2>&1; then
    cat /tmp/oocp-wl.$$
    rm -f /tmp/oocp-wl.$$ "$BAD_JSON"
    echo "obsreport --check-report accepted a corrupted whylate table"
    exit 1
fi
grep -q "whylate" /tmp/oocp-wl.$$ || {
    cat /tmp/oocp-wl.$$; rm -f /tmp/oocp-wl.$$ "$BAD_JSON"
    echo "obsreport --check-report failed for the wrong reason"; exit 1; }
rm -f /tmp/oocp-wl.$$ "$BAD_JSON"

stage "oocpc --trace-out smoke (Chrome trace export parses)"
# Compile-and-run one sample kernel with the trace exporter on; the
# emitted file must be non-empty and must parse with our own JSON
# parser — `perfgate tracediff` of a file against itself does exactly
# that parse (twice) and exits 0 only for a well-formed span timeline.
cargo run --release -q -p oocp-bench --bin oocpc -- kernels/stencil.ook \
    --run --quiet --mem-mb 4 --trace-out "$TRACE_JSON"
test -s "$TRACE_JSON" || { echo "oocpc wrote an empty trace"; exit 1; }
cargo run --release -q -p oocp-bench --bin perfgate -- tracediff "$TRACE_JSON" "$TRACE_JSON"

stage "perfgate --compare (performance-trajectory gate)"
# Compare the live tree against the newest checked-in baseline. The
# simulator is deterministic, so any diff is a real behaviour change:
# either fix it, or grant an explicit allowance / re-capture with
# scripts/bench.sh and explain the move in the commit.
BENCH="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
if [ -n "$BENCH" ]; then
    cargo run --release -q -p oocp-bench --bin perfgate -- \
        --compare "$BENCH" --allowances perf-allowances.toml
    stage "perfgate negative gate (a deliberate slowdown must fail)"
    # Strangle the disk queue on one kernel; the gate must catch it,
    # name an attribution bucket, and report a span-level divergence.
    if cargo run --release -q -p oocp-bench --bin perfgate -- \
        --compare "$BENCH" --only EMBAR --queue-depth 1 > /tmp/oocp-neg.$$ 2>&1; then
        cat /tmp/oocp-neg.$$
        rm -f /tmp/oocp-neg.$$
        echo "perfgate failed to flag a deliberate regression"; exit 1
    fi
    grep -q "attr\." /tmp/oocp-neg.$$ || {
        cat /tmp/oocp-neg.$$; rm -f /tmp/oocp-neg.$$
        echo "perfgate failure did not attribute a time bucket"; exit 1; }
    grep -q "tracediff" /tmp/oocp-neg.$$ || {
        cat /tmp/oocp-neg.$$; rm -f /tmp/oocp-neg.$$
        echo "perfgate failure did not run tracediff"; exit 1; }
    rm -f /tmp/oocp-neg.$$
else
    echo "no BENCH_<n>.json baseline found; run scripts/bench.sh to capture one"
fi

stage "crash-recovery gate (power loss -> journal replay -> verified restart)"
# The crash sweep: kill each kernel mid-run (torn writes included),
# recover through the writeback journal, and require an application
# restart to match the never-crashed reference bit for bit.
cargo run --release -q -p oocp-bench --bin repro -- crash --smoke
# The oracle proptest in its quick profile (one kernel, full crash
# matrix); the full five-kernel matrix runs with plain `cargo test`.
CRASH_ORACLE_QUICK=1 cargo test -q --test proptest_crash

stage "crash negative gate (a disabled journal must lose data)"
# Inverted expectation: with --no-journal the same sweep must go
# unrecoverable and exit non-zero — otherwise the oracle has no teeth.
if cargo run --release -q -p oocp-bench --bin repro -- \
    crash --smoke --no-journal > /tmp/oocp-nj.$$ 2>&1; then
    cat /tmp/oocp-nj.$$
    rm -f /tmp/oocp-nj.$$
    echo "repro crash --no-journal lost nothing: the negative gate has no teeth"
    exit 1
fi
grep -q "FAIL: crash .*pages unrecoverable without the journal" /tmp/oocp-nj.$$ || {
    cat /tmp/oocp-nj.$$; rm -f /tmp/oocp-nj.$$
    echo "repro crash --no-journal failed for the wrong reason"; exit 1; }
rm -f /tmp/oocp-nj.$$

stage "disk-death gate (parity survival: degraded reads -> online rebuild)"
# The disk-death sweep: kill a whole disk mid-run under rotating parity,
# serve the hole through survivor reconstruction, and require every
# cell's final data to match the fault-free reference bit for bit while
# the online rebuild completes.
cargo run --release -q -p oocp-bench --bin repro -- disk-death --smoke
# The oracle proptest in its quick profile (one kernel, early + mid
# deaths); the full kernel x death-time x policy matrix runs with plain
# `cargo test`.
DISKFAIL_ORACLE_QUICK=1 cargo test -q --test proptest_diskfail

stage "disk-death observer gate (attaching metrics must not move the run)"
# `--json` attaches the metrics layer. No paging decision reads an
# observer — the hedge deadline comes from the machine's own fault-wait
# histogram — so the sweep must print the same bytes either way.
# `tests/proptest_diskfail.rs::attaching_metrics_never_moves_a_disk_death_run`
# holds one cell of it under `cargo test`.
DD_JSON="/tmp/oocp-dd.$$.json"
cargo run --release -q -p oocp-bench --bin repro -- disk-death --smoke > /tmp/oocp-dd.$$
cargo run --release -q -p oocp-bench --bin repro -- \
    disk-death --smoke --json "$DD_JSON" > /tmp/oocp-ddj.$$
cmp -s /tmp/oocp-dd.$$ /tmp/oocp-ddj.$$ || {
    diff /tmp/oocp-dd.$$ /tmp/oocp-ddj.$$; rm -f /tmp/oocp-dd.$$ /tmp/oocp-ddj.$$ "$DD_JSON"
    echo "repro disk-death --smoke printed differently with metrics attached"; exit 1; }
rm -f /tmp/oocp-dd.$$ /tmp/oocp-ddj.$$ "$DD_JSON"

stage "disk-death negative gate (no redundancy must be fatal, and typed)"
# Inverted expectation: the same death on a plain striped array must
# abort with the typed data-loss error — if it survives, degraded reads
# are fabricating data from nowhere.
if cargo run --release -q -p oocp-bench --bin repro -- \
    disk-death --smoke --redundancy none > /tmp/oocp-nr.$$ 2>&1; then
    cat /tmp/oocp-nr.$$
    rm -f /tmp/oocp-nr.$$
    echo "repro disk-death --redundancy none survived: the parity gate has no teeth"
    exit 1
fi
grep -q "no redundancy: data lost" /tmp/oocp-nr.$$ || {
    cat /tmp/oocp-nr.$$; rm -f /tmp/oocp-nr.$$
    echo "repro disk-death --redundancy none failed for the wrong reason"; exit 1; }
rm -f /tmp/oocp-nr.$$

stage "parity-corruption gate (latent bad parity must be caught by rebuild verify)"
# Corrupt two parity rows behind the machine's back; the rebuild's
# verify sweep must detect exactly those rows, heal them from the
# durable data pages, and reconstruct the dead disk correctly anyway.
# `corrupt_parity_gate_passes_through_the_driver` runs the same row
# under `cargo test`.
cargo run --release -q -p oocp-bench --bin repro -- corrupt-parity

# Clippy needs its component installed; offline or minimal toolchains
# may not have it, and the gate should not fail for that.
if cargo clippy --version >/dev/null 2>&1; then
    stage "cargo clippy (workspace, deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
else
    stage "cargo clippy not available; skipping lint"
fi

stage "line counts (non-test lines of oocp-os, oocp-obs, oocp-disk, oocp-bench, oocp-ir, oocp-rt; none may regrow)"
# The line-count twin of the per-stage wall times. A file's non-test
# lines are all but each `#[cfg(test)]` and the item it gates: the line
# after it when that line ends in `;` or `,` (a field, a `mod x;`, a
# `const`), else everything through the next line that closes a brace
# at the attribute's own indentation. oracle.rs and treewalk.rs are
# modules only tests compile, and count nothing. machine.rs is the
# paging core, and the cap is the size it had when the extensions moved
# out to machine/*.rs: something that belongs to one of them goes there.
# crates/bench/src is capped at the size it had when perfgate's four
# cell families became one table, after the sweeps and gates joined the
# paper's experiments as rows behind `repro`: a new experiment or gate
# is an entry there, not a new `main`, and a new perfgate cell is a row
# of its `matrix`, not a family with its own filter and loop. crates/obs/src/baseline.rs is capped at the
# size it had when the BENCH schema became one table per JSON block: a
# new baseline field is one row of a table, not three edits (writer,
# reader, metrics()). crates/disk/src is capped at the size it had when
# each layer kept one admission method (Disk::enqueue, DiskArray::admit)
# and the retry ladder took the submission shape as a value: a new kind
# of request is a number of completion units, not a submit method per
# layer. crates/obs/src is capped as a whole at the size it had when
# the sampler lost its metrics registry (every machine event was
# already one `emit` that the trace ring and the metrics layer fold
# over): a new observer is a fold, and a new series is a row of the
# sampler's table, not a second schema. machine.rs and crates/os/src
# are capped at the size they had once a power loss ended the run: the
# call during which the crash latches completes, nothing runs after it,
# and the machine has no post-crash ("zombie") touch, no crash test on
# the touch gate and no hint path for a dead machine. crates/ir/src is
# capped at the size it had when the counter stopped ending a file at
# its first `#[cfg(test)]`, which in dispatch.rs gates a struct field
# and hid all but 43 of its lines. crates/rt/src is capped at the size
# it had once a kill ended a tenant: the hub's VM parks a killed tenant
# at the call it dies at, every call goes through one guard that counts
# it, and one counter drives both the kill and the slice.
# A cap raised on purpose is raised in the same commit, and one lowered
# in the commit that shrinks it.
MACHINE_RS_MAX=1849
OS_SRC_MAX=6695
OBS_SRC_MAX=3645
DISK_SRC_MAX=2059
BENCH_SRC_MAX=5510
BASELINE_RS_MAX=780
IR_SRC_MAX=4830
RT_SRC_MAX=1342
count_lines() { # directory: prints each file's count, sets TOTAL and the capped files' counts
    TOTAL=0
    while IFS= read -r f; do
        n=$(awk '
            skip == 1 { skip = /[;,][[:space:]]*$/ ? 0 : 2; next }
            skip == 2 { if (substr($0, 1, length(ind) + 1) == ind "}") skip = 0; next }
            /^[[:space:]]*#\[cfg\(test\)\]/ { ind = $0; sub(/#.*/, "", ind); skip = 1; next }
            { n++ }
            END { print n + 0 }' "$f")
        printf '%6d  %s\n' "$n" "$f"
        TOTAL=$((TOTAL + n))
        if [ "$f" = crates/os/src/machine.rs ]; then MACHINE_RS=$n; fi
        if [ "$f" = crates/obs/src/baseline.rs ]; then BASELINE_RS=$n; fi
    done < <(find "$1" -name '*.rs' ! -name oracle.rs ! -name treewalk.rs | sort)
    printf '%6d  total %s\n' "$TOTAL" "$1"
}
MACHINE_RS=0
count_lines crates/os/src
if [ "$MACHINE_RS" -gt "$MACHINE_RS_MAX" ]; then
    echo "crates/os/src/machine.rs has $MACHINE_RS non-test lines, over its cap of $MACHINE_RS_MAX"
    exit 1
fi
if [ "$TOTAL" -gt "$OS_SRC_MAX" ]; then
    echo "crates/os/src has $TOTAL non-test lines, over its cap of $OS_SRC_MAX"
    exit 1
fi
count_lines crates/disk/src
if [ "$TOTAL" -gt "$DISK_SRC_MAX" ]; then
    echo "crates/disk/src has $TOTAL non-test lines, over its cap of $DISK_SRC_MAX"
    exit 1
fi
count_lines crates/bench/src
if [ "$TOTAL" -gt "$BENCH_SRC_MAX" ]; then
    echo "crates/bench/src has $TOTAL non-test lines, over its cap of $BENCH_SRC_MAX"
    exit 1
fi
BASELINE_RS=0
count_lines crates/obs/src
if [ "$BASELINE_RS" -gt "$BASELINE_RS_MAX" ]; then
    echo "crates/obs/src/baseline.rs has $BASELINE_RS non-test lines, over its cap of $BASELINE_RS_MAX"
    exit 1
fi
if [ "$TOTAL" -gt "$OBS_SRC_MAX" ]; then
    echo "crates/obs/src has $TOTAL non-test lines, over its cap of $OBS_SRC_MAX"
    exit 1
fi
count_lines crates/ir/src
if [ "$TOTAL" -gt "$IR_SRC_MAX" ]; then
    echo "crates/ir/src has $TOTAL non-test lines, over its cap of $IR_SRC_MAX"
    exit 1
fi
count_lines crates/rt/src
if [ "$TOTAL" -gt "$RT_SRC_MAX" ]; then
    echo "crates/rt/src has $TOTAL non-test lines, over its cap of $RT_SRC_MAX"
    exit 1
fi

stage ""
echo "ci: all gates passed in $((SECONDS - CI_T0)) s"
