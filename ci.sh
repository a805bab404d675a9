#!/usr/bin/env bash
# Offline CI gate for the workspace. Run from the repo root.
#
#   1. formatting            (cargo fmt --check)
#   2. lint, library code    (clippy, warnings + unwrap/panic-free libs)
#   3. lint, all targets     (clippy, warnings; tests/bins may unwrap)
#   4. release build
#   5. test suite
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

echo "== build (release) =="
cargo build --release --offline

echo "== test =="
cargo test -q --workspace --offline

echo "== driver tests (release) =="
cargo test -q -p cai-driver --release --offline

echo "== report binaries smoke (paper_eval --blame, driver_eval --smoke) =="
# The guarantees themselves are pinned by the workspace tests above; this
# step keeps the report printers and their artifacts exercised. One
# driver_eval run covers the smoke gates (determinism, warm cache,
# one-procedure edit), the blame legs and their JSON export, the Chrome
# trace, and the run report.
cargo run --release -p cai-bench --bin paper_eval --offline -- --blame
blame_json=$(mktemp /tmp/cai-blame.XXXXXX.json)
obs_trace=$(mktemp /tmp/cai-trace.XXXXXX.json)
obs_log=$(mktemp /tmp/cai-obs-report.XXXXXX.log)
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --chaos-seed 7 --blame-out "$blame_json" --trace-out "$obs_trace" \
    --obs-report | tee "$obs_log"
test -s "$blame_json" || { echo "--blame-out wrote no JSON"; exit 1; }
# The trace export's shape is checked by tests/obs.rs; here the file
# must merely exist and be non-empty.
test -s "$obs_trace" || { echo "--trace-out wrote no trace"; exit 1; }
# The run report must print each of the run's counters, and the
# event-log drop count must be visible (an explicit zero when nothing
# was dropped), so silent event loss is ruled out by inspection.
for line in "  fuel_spent=" "dropped_events=" "  ctx: " "  supervision: " \
    "  summary cache (cold, warm, edit): reused=" "  join (all runs): "; do
    grep -qF -- "$line" "$obs_log" || {
        echo "obs report is missing '$line'"; exit 1; }
done
rm -f "$blame_json" "$obs_trace" "$obs_log"

echo "CI OK"
