#!/usr/bin/env bash
# Writes the benchmark ledger BENCH_<rev>.json for this checkout.
#
#   ./bench_ledger.sh [REV]
#
# Runs perfbench (see perfbench/README.md) on each of its three workloads,
# at --trace 0 and --trace 1, for seed 1 and the held-out seed 7919, each
# for the benchmark's run_seconds, one run at a time. The ledger holds
# every run's final JSON line with its wall time and exit status, plus the
# CPU count and the toolchain. A run that fails or outlives 120 s is kept
# with "result": null.
#
# REV names the measured source. It defaults to the checkout's short
# commit hash, suffixed "-dirty" when tracked files differ from that
# commit (a change measured before it is committed); a copy without git
# metadata must name it.
#
# Every perfbench build rewrites perfbench/Cargo.lock; the script restores
# the committed one when it exits.
set -euo pipefail
cd "$(dirname "$0")"

rev=${1:-}
if [ -z "$rev" ]; then
    rev=$(git rev-parse --short HEAD)
    if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
        rev="$rev-dirty"
    fi
fi
out="BENCH_$rev.json"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads="paper_programs module_cold module_edit"

lock_backup=$(mktemp)
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

runs=""
for seed in 1 7919; do
    for workload in $workloads; do
        for trace in 0 1; do
            echo "== $workload seed=$seed trace=$trace (${seconds} s) ==" >&2
            start=$(date +%s.%N)
            status=0
            line=$(timeout 120 cargo run --release --offline --quiet \
                --manifest-path perfbench/Cargo.toml -- --workload "$workload" \
                --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) \
                || status=$?
            wall=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
            case "$line" in
                "{"*) ;;
                *) line=null ;;
            esac
            echo "   wall ${wall} s, exit $status" >&2
            runs="$runs${runs:+,
}    {\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"wall_s\": $wall, \"exit\": $status, \"result\": $line}"
        done
    done
done

cat > "$out" <<EOF
{
  "rev": "$rev",
  "nproc": $(nproc),
  "rustc": "$(rustc -V)",
  "seconds": $seconds,
  "runs": [
$runs
  ]
}
EOF
echo "wrote $out" >&2
