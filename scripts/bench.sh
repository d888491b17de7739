#!/usr/bin/env bash
# Runs the Go benchmarks and writes the results as JSON so the repo's
# performance trajectory can be tracked across PRs (BENCH_<n>.json).
#
# Usage:
#   scripts/bench.sh OUT.json [RAW]
#
# OUT.json is required: a committed BENCH_<n>.json is only ever written
# by naming it. With RAW, a file of `go test -bench` output (rounds of
# it appended to one file, say), nothing runs: RAW is converted to
# OUT.json as it stands, every line of a repeated cell kept.
#
# Environment:
#   BENCH_FILTER   benchmark regexp (default: the serving-layer suite)
#   BENCH_TIME     -benchtime value (default 200ms)
#   BENCH_PKGS     packages to bench (default ./internal/server/)
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ -z "$1" ]; then
    echo "usage: scripts/bench.sh OUT.json [RAW]" >&2
    exit 2
fi
OUT="$1"
RAW="${2:-}"
FILTER="${BENCH_FILTER:-BenchmarkServer|BenchmarkMergeTopK|BenchmarkFlat|BenchmarkTopKMasked|BenchmarkJoin|BenchmarkWAL|BenchmarkSegment|BenchmarkRecover}"
TIME="${BENCH_TIME:-200ms}"
PKGS="${BENCH_PKGS:-./internal/server/ ./internal/flat/ ./internal/join/ ./internal/persist/}"

if [ -z "$RAW" ]; then
    RAW="$(mktemp)"
    trap 'rm -f "$RAW"' EXIT
    go test -run '^$' -bench "$FILTER" -benchtime "$TIME" -benchmem $PKGS | tee "$RAW"
fi

# Convert `BenchmarkName-N  iters  ns/op  B/op  allocs/op` lines to JSON.
awk -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
BEGIN { print "{"; printf "  \"commit\": \"%s\",\n  \"benchmarks\": [\n", commit; n = 0 }
/^Benchmark/ {
    if (n++) printf ",\n"
    name = $1; sub(/-[0-9]+$/, "", name)
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "MB/s")      printf ", \"mb_per_s\": %s", $i
        if ($(i+1) == "B/op")      printf ", \"bytes_per_op\": %s", $i
        if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
    }
    printf "}"
}
END { print "\n  ]\n}" }
' "$RAW" > "$OUT"

echo "wrote $OUT"

# Report-only regression comparison of a fresh run against the most
# recent previous BENCH_*.json (benchstat-style; never gates).
PREV="$(ls BENCH_*.json 2>/dev/null | grep -v "^$OUT\$" | sort -V | tail -1 || true)"
if [ -z "${2:-}" ] && [ -n "${PREV:-}" ]; then
    go run ./cmd/benchcmp "$PREV" "$OUT" || true
fi
