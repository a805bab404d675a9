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
# All logging and wall-clock reads go through cai-obs (spans, counters,
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

echo "== driver_eval smoke (context-sensitivity + supervised chaos) =="
# --ctx-stats exits nonzero unless entry-keyed summaries are never less
# precise than the insensitive ones, strictly more precise on the
# reassigned-formal benchmark, and deterministic across thread counts.
# --chaos (fixed seed) exits nonzero unless the supervised driver
# absorbs injected panics with no abort — retries recover at the gentle
# rate, zero-retry quarantines pin to the sound top summary — and both
# phases are bit-identical across thread counts.
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --ctx-stats --chaos --chaos-seed 7

echo "== budget-policy smoke (adaptive slices + narrowing recovery) =="
# paper_eval --budget-policy exits nonzero unless the adaptive policy's
# narrowing pass strictly recovers precision (narrowed ⊑ widened) on the
# canonical widening-loss loop, including under a starved fuel pool.
# driver_eval --budget-policy exits nonzero unless adaptive slices are
# per-procedure no less precise than flat ones (strictly better on the
# starved procedure) and the chaos-wrapped adaptive run completes with
# no abort, bit-identically across thread counts. The obs report must
# cover the core, interp (incl. the narrowing counters), and driver
# layers.
cargo run --release -p cai-bench --bin paper_eval --offline -- --budget-policy
policy_log=$(mktemp /tmp/cai-policy-report.XXXXXX.log)
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --budget-policy --chaos-seed 7 --obs-report | tee "$policy_log"
for prefix in core/ interp/ interp/narrow/ driver/; do
    grep -q "^$prefix" "$policy_log" || {
        echo "budget-policy obs report is missing the $prefix layer"; exit 1; }
done
# The event-log drop counter must be visible (an explicit zero on a
# clean run), so silent event loss is ruled out by inspection.
grep -q "^core/budget/events-dropped" "$policy_log" || {
    echo "obs report is missing the core/budget/events-dropped counter"; exit 1; }
rm -f "$policy_log"

echo "== paper_eval --join-stats smoke =="
# Exits nonzero unless the split cache hits, saves ticks, and leaves the
# analysis results bit-identical — and, on the incremental-edit workload,
# unless the sub-structural memo scores partial hits and saves saturation
# rounds over the whole-conjunction memo while the cached driver runs stay
# bit-identical to the uncached baseline at 1/2/4 threads. The report must
# show a nonzero partial-hit rate and the identity verdicts.
join_log=$(mktemp /tmp/cai-join-stats.XXXXXX.log)
cargo run --release -p cai-bench --bin paper_eval --offline -- --join-stats | tee "$join_log"
grep -q "partial-hit rate=" "$join_log" || {
    echo "--join-stats report is missing the sub-structural partial-hit rate"; exit 1; }
grep -q "partial-hit rate=0.0%" "$join_log" && {
    echo "--join-stats: sub-structural partial-hit rate is zero"; exit 1; }
idents=$(grep -c "identical to uncached baseline" "$join_log" || true)
if [ "$idents" -ne 3 ]; then
    echo "--join-stats: expected 3 cached-vs-uncached identity verdicts (1/2/4 threads), got $idents"
    exit 1
fi
rm -f "$join_log"

echo "== precision-provenance smoke (--blame / --blame-out) =="
# The blame checks (loss-kind coverage, the flat-vs-adaptive differential
# naming analyzer/while in `big`, thread-count identity) run in
# tests/blame.rs; this step keeps the report printers and the JSON
# writer exercised.
cargo run --release -p cai-bench --bin paper_eval --offline -- --blame
blame_json=$(mktemp /tmp/cai-blame.XXXXXX.json)
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --chaos-seed 7 --blame-out "$blame_json"
test -s "$blame_json" || { echo "--blame-out wrote no JSON"; exit 1; }
rm -f "$blame_json"

echo "== observability smoke (--trace-out / --obs-report) =="
# The exported Chrome trace must be parseable, non-empty JSON, and the
# counter report must cover every instrumented layer.
obs_trace=$(mktemp /tmp/cai-trace.XXXXXX.json)
obs_log=$(mktemp /tmp/cai-obs-report.XXXXXX.log)
cargo run --release -p cai-bench --bin driver_eval --offline -- \
    --smoke --trace-out "$obs_trace" --obs-report | tee "$obs_log"
python3 - "$obs_trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty array"
for e in events:
    assert e["ph"] in ("X", "i") and "ts" in e and "name" in e, e
print(f"trace OK: {len(events)} events")
PY
for prefix in core/ uf/ interp/ driver/; do
    grep -q "^$prefix" "$obs_log" || {
        echo "obs report is missing the $prefix layer"; exit 1; }
done
rm -f "$obs_trace" "$obs_log"

echo "CI OK"
