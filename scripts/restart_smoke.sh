#!/usr/bin/env bash
# Restart-cycle smoke test for the durable storage subsystem and, given
# a fault count, for its failure domains too:
#
#   1. start ipsd with a data directory (-fsync always, so every
#      acknowledged write is durable against kill -9); with a fault
#      count, under a seeded WAL-fsync fault schedule: after 40 clean
#      syncs the next FAULT_COUNT fail with EIO, then the schedule heals
#      (replayable from the same FAULT_SEED)
#   2. ingest N vectors through loadgen, apply a deterministic pass of
#      upsert/delete batches, and verify the sharded answers against a
#      local exact scan over the post-mutation live set; under faults,
#      each one degrades the collection to read-only 503s, loadgen's
#      retries ride out the window, and the repair probe re-activates it
#   3. with faults, require /readyz to converge back to 200 and /metrics
#      to count at least one repair (proof the faults fired)
#   4. kill -9 the server (no graceful shutdown) and restart it, without
#      faults, on the same data directory
#   5. re-run loadgen with -skip-ingest: it recomputes the same mutation
#      pass locally, so the recovered collection must hold exactly the
#      post-mutation live set and answer every query bit-identically
#
# Usage: scripts/restart_smoke.sh [n] [q] [mutate_ops] [precision] [fault_count fault_seed]
#
# With precision=int8 the restart must also recover the quantization
# scales exactly from the WAL/segments, or the re-ranked answers drift
# and the -skip-ingest verification fails.
set -euo pipefail

cd "$(dirname "$0")/.."

N="${1:-100000}"
Q="${2:-200}"
MUTATE="${3:-150}"
PRECISION="${4:-f64}"
FAULT_COUNT="${5:-}"
FAULT_SEED="${6:-7}"
ADDR="127.0.0.1:7177"
DATA="$(mktemp -d)"
BIN="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA" "$BIN"' EXIT

go build -o "$BIN/ipsd" ./cmd/ipsd
go build -o "$BIN/loadgen" ./cmd/loadgen

# wait_for PATH TRIES polls http://$ADDR/PATH every 0.1 s until it answers 200.
wait_for() {
    for _ in $(seq 1 "$2"); do
        curl -sf "http://$ADDR/$1" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "restart_smoke: /$1 never answered 200" >&2
    curl -s "http://$ADDR/stats" >&2 || true
    exit 1
}

ipsd() {
    "$BIN/ipsd" -addr "$ADDR" -data "$DATA" -fsync always "$@" &
    PID=$!
    wait_for healthz 100
}

loadgen() {
    "$BIN/loadgen" -addr "$ADDR" -n "$N" -q "$Q" -d 16 -k 10 -shards 4 -precision "$PRECISION" -mutate-pass "$MUTATE" "$@"
}

echo "=== ingesting $N vectors (precision=$PRECISION) + $MUTATE upsert/delete batches + verifying against local exact scan"
if [ -z "$FAULT_COUNT" ]; then
    ipsd
    loadgen
else
    echo "=== under a seeded WAL-fsync fault schedule (after=40 count=$FAULT_COUNT seed=$FAULT_SEED)"
    ipsd -scrub-interval 500ms -fault-ops sync -fault-path wal- -fault-after 40 \
        -fault-count "$FAULT_COUNT" -fault-seed "$FAULT_SEED"
    loadgen -chunk 500 -retries 10
    wait_for readyz 200
    REPAIRS="$(curl -s "http://$ADDR/metrics" | awk '/^ipsd_collection_repairs_total\{collection="bench"\}/ {print $2}')"
    if [ -z "$REPAIRS" ] || [ "$REPAIRS" -lt 1 ]; then
        echo "restart_smoke: no repair recorded — the fault schedule never fired (repairs=${REPAIRS:-missing})" >&2
        exit 1
    fi
    echo "=== faults fired: $REPAIRS repair(s) recorded, collection ready again"
fi

echo "=== kill -9 $PID (no graceful shutdown), restarting without faults on the same data directory"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
ipsd

echo "=== verifying recovered data answers identically (no re-ingest, mutation pass recomputed locally)"
loadgen -skip-ingest

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "=== restart smoke OK: post-mutation live set survived ${FAULT_COUNT:-no} injected fsync faults and kill -9 bit-identically"
