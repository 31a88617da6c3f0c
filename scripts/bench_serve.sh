#!/usr/bin/env bash
# Build and run the serving saturation snapshot:
#
# * BENCH_serve.json — the sharded epoll reactor swept across
#   concurrent-connection tiers (64 → 10240; --quick stops at 1024).
#   Each tier runs a hot cache-hit wave (front-end p50/p99/p999 and
#   throughput) and a cold distinct-net wave (admission shed-rate
#   curve). The `comparison` section records the hot p99 at 1024
#   connections divided by the hot p99 at 64, both from the same run.
#
# usage: scripts/bench_serve.sh [--quick] [--out PATH] [--gate]
#
#   --quick     tiers 64/256/1024 only (CI smoke; the 10k tier needs a
#               raised fd limit and a couple of minutes)
#   --out PATH  where to write the JSON (default BENCH_serve.json)
#   --gate      fail if the fresh 1024/64 hot-p99 ratio drifts more
#               than 75% past the committed BENCH_serve.json (the
#               committed file is copied aside first, so the fresh
#               snapshot still lands in place). The gate compares the
#               ratio, not raw microseconds: both tiers share the
#               machine, so the quotient is portable where absolute
#               latencies are not.
set -euo pipefail

cd "$(dirname "$0")/.."

args=()
gate=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --gate) gate=1 ;;
        --quick) args+=(--quick) ;;
        --out)
            args+=(--out "$2")
            shift
            ;;
        *)
            echo "error: unknown argument $1" >&2
            exit 2
            ;;
    esac
    shift
done

if [[ $gate -eq 1 ]]; then
    baseline=$(mktemp)
    trap 'rm -f "$baseline"' EXIT
    cp BENCH_serve.json "$baseline"
    args+=(--gate "$baseline")
fi

cargo build --release -p buffopt-bench --bin serve_snapshot
target/release/serve_snapshot "${args[@]}"
