#!/usr/bin/env bash
# Offline CI gate for the workspace. Run from the repo root.
#
#   1. supervision boundary  (catch_unwind only in the driver's supervisor)
#   2. observability         (eprintln!/Instant::now only in cai-obs and
#                             cai-bench)
#   3. formatting            (cargo fmt --check)
#   4. lint, library code    (clippy, warnings + unwrap/panic-free libs)
#   5. lint, all targets     (clippy, warnings; tests/bins may unwrap)
#   6. docs                  (rustdoc, warnings: no broken doc links)
#   7. release build
#   8. test suite
#   9. driver tests, release build
#  10. report binaries       (paper_eval --blame, paper_eval complexity
#                             compare, driver_eval --smoke, its report
#                             and its trace)
#  11. ledger gate           (perfbench work counters against the
#                             committed benchmark ledger)
#
# Everything runs with --offline: the workspace has no external
# dependencies and must keep building in a network-less container.
set -euo pipefail
cd "$(dirname "$0")"

echo "== supervision boundary gate =="
# catch_unwind is reserved for the driver's supervisor module: one
# audited boundary, not scattered ad-hoc recovery. (Tests detect panics
# via thread::spawn().join().is_err() instead.)
strays=$(grep -rn "catch_unwind(" crates --include="*.rs" \
    | grep -v "^crates/driver/src/supervisor.rs:" || true)
if [ -n "$strays" ]; then
    echo "catch_unwind outside the supervisor boundary:"
    echo "$strays"
    exit 1
fi

echo "== observability confinement gate =="
# All logging and wall-clock reads go through cai-obs (spans, events,
# clock::now). A stray eprintln! is invisible to the exporters; a stray
# Instant::now() risks wall-clock creeping into analysis decisions and
# breaking the bit-identical determinism contract (DESIGN.md section 10).
# crates/obs implements the door; crates/bench is the timing/report
# harness and may do both.
strays=$(grep -rn "eprintln!\|Instant::now" crates --include="*.rs" \
    | grep -v "^crates/obs/" | grep -v "^crates/bench/" || true)
if [ -n "$strays" ]; then
    echo "eprintln!/Instant::now outside crates/obs and crates/bench:"
    echo "$strays"
    exit 1
fi

echo "== fmt check =="
cargo fmt --all -- --check

echo "== clippy (libs: -D warnings -D clippy::unwrap_used) =="
cargo clippy --workspace --lib --offline -- -D warnings -D clippy::unwrap_used

echo "== clippy (all targets: -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== build (release) =="
cargo build --release --offline

echo "== test =="
cargo test -q --workspace --offline

echo "== driver tests (release) =="
cargo test -q -p cai-driver --release --offline

echo "== report binaries smoke (paper_eval --blame, paper_eval complexity compare, driver_eval --smoke) =="
# The guarantees themselves are pinned by the workspace tests above; this
# step keeps the report printers and their artifacts exercised. The
# complexity and compare items print the EXPERIMENTS.md section 4.4 and
# section 7 tables. One driver_eval run covers the smoke gates
# (determinism, warm cache, one-procedure edit), the blame legs and their
# JSON export, the Chrome trace, and the run report.
cargo run --release -p cai-bench --bin paper_eval --offline -- --blame
cargo run --release -p cai-bench --bin paper_eval --offline -- complexity compare
blame_json=$(mktemp /tmp/cai-blame.XXXXXX.json)
obs_trace=$(mktemp /tmp/cai-trace.XXXXXX.json)
obs_log=$(mktemp /tmp/cai-obs-report.XXXXXX.log)
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --chaos-seed 7 --blame-out "$blame_json" --trace-out "$obs_trace" \
    --obs-report | tee "$obs_log"
test -s "$blame_json" || { echo "--blame-out wrote no JSON"; exit 1; }
# The trace export's shape is checked by tests/obs.rs; here it must hold
# the traced run's per-procedure spans. An empty export (`[]`) would pass
# a size check; it is what a job whose spans no longer reach the run
# writes.
grep -qF '"name":"analyze/' "$obs_trace" || {
    echo "--trace-out wrote no analyze/ span"; exit 1; }
# The run report must print each of the run's counters, and the
# event-log drop count must be visible (an explicit zero when nothing
# was dropped), so silent event loss is ruled out by inspection.
for line in "  fuel_spent=" "dropped_events=" "  ctx: " "  supervision: " \
    "  summary cache (cold, warm, edit): reused=" "  join (all runs): "; do
    grep -qF -- "$line" "$obs_log" || {
        echo "obs report is missing '$line'"; exit 1; }
done
rm -f "$blame_json" "$obs_trace" "$obs_log"

echo "== ledger gate (perfbench --trace 1 work counters) =="
# The work counters of a traced perfbench pass (every count, byte and
# ratio row but uf.allocs and logical.allocs, which vary from run to run)
# repeat exactly on the two workloads whose work cannot depend on the
# schedule: paper_programs runs on one thread, and module_cold gives every
# driver job its own split cache. ledger_check compares each with the
# ledger's row for the same workload and seed. A change that moves a
# counter on purpose commits a fresh ledger (./bench_ledger.sh) and
# points `ledger` at it.
ledger=BENCH_50e2bbb-dirty.json
# Every perfbench build rewrites perfbench/Cargo.lock; restore the
# committed one on exit.
lock_backup=$(mktemp)
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT
for workload in paper_programs module_cold; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        | cargo run --release --offline --quiet -p cai-bench --bin ledger_check -- \
            "$ledger" "$workload" 1
done

echo "CI OK"
