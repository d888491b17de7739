#!/usr/bin/env bash
# Restart-cycle smoke test for the durable storage subsystem:
#
#   1. start ipsd with a data directory (-fsync always, so every
#      acknowledged write is durable against kill -9)
#   2. ingest 100k vectors through loadgen, then apply a deterministic
#      pass of upsert/delete batches (replaced vectors, tombstones) and
#      verify the sharded answers against a local exact scan over the
#      post-mutation live set
#   3. kill -9 the server mid-flight state (no graceful shutdown)
#   4. restart ipsd on the same data directory
#   5. re-run loadgen with -skip-ingest: it recomputes the same
#      mutation pass locally, so the recovered collection must hold
#      exactly the post-mutation live set — upserts applied, deletes
#      gone — and answer every query bit-identically to the pre-kill
#      exact scan
#
# Usage: scripts/restart_smoke.sh [n] [q] [mutate_ops] [precision]
#
# With precision=int8 the cycle runs against a quantized collection: the restart must recover the quantization scales exactly
# from the WAL/segments, or the re-ranked answers drift and the
# -skip-ingest verification fails.
set -euo pipefail

cd "$(dirname "$0")/.."

N="${1:-100000}"
Q="${2:-200}"
MUTATE="${3:-150}"
PRECISION="${4:-f64}"
ADDR="127.0.0.1:7177"
DATA="$(mktemp -d)"
BIN="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA" "$BIN"' EXIT

go build -o "$BIN/ipsd" ./cmd/ipsd
go build -o "$BIN/loadgen" ./cmd/loadgen

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "restart_smoke: server never became healthy" >&2
    exit 1
}

echo "=== starting ipsd -data $DATA -fsync always"
"$BIN/ipsd" -addr "$ADDR" -data "$DATA" -fsync always &
PID=$!
wait_healthy

echo "=== ingesting $N vectors (precision=$PRECISION) + $MUTATE upsert/delete batches + verifying against local exact scan"
"$BIN/loadgen" -addr "$ADDR" -n "$N" -q "$Q" -d 16 -k 10 -shards 4 -precision "$PRECISION" -mutate-pass "$MUTATE"

echo "=== kill -9 $PID (no graceful shutdown)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

echo "=== restarting ipsd on the same data directory"
"$BIN/ipsd" -addr "$ADDR" -data "$DATA" -fsync always &
PID=$!
wait_healthy

echo "=== verifying recovered data answers identically (no re-ingest, mutation pass recomputed locally)"
"$BIN/loadgen" -addr "$ADDR" -n "$N" -q "$Q" -d 16 -k 10 -shards 4 -precision "$PRECISION" -skip-ingest -mutate-pass "$MUTATE"

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "=== restart smoke OK: post-mutation live set survived kill -9 bit-identically"
