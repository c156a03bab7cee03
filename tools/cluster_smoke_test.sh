#!/bin/sh
# End-to-end smoke test for the cluster (docs/CLUSTER.md), used by ctest
# (cli_cluster_smoke) and the CI cluster-smoke job:
#
#   1. start three `geovalid serve` backends on ephemeral ports
#   2. start `geovalid route` fronting all three
#   3. replay a dataset through geovalid_loadgen --route against the
#      router, probing the aggregated control plane on the way out
#   4. curl-equivalent probes: /readyz, aggregated /metrics must carry
#      cluster_backend_up for every backend, /v1/summary must report
#      "backends":3, and a fanned-out POST /admin/checkpoint must be
#      all-or-error OK (every backend has a checkpoint dir)
#   5. SIGTERM the router: exit 5, backends still alive; then SIGTERM
#      the backends: exit 5 each
#
# usage: cluster_smoke_test.sh <geovalid> <geovalid_loadgen> <dataset> <work>
set -u

CLI="$1"
LOADGEN="$2"
DATASET="$3"
WORK="$4"

fail() {
    echo "FAIL: $1" >&2
    for log in route b1 b2 b3; do
        [ -f "$WORK/$log.log" ] && sed "s/^/  $log: /" "$WORK/$log.log" >&2
    done
    kill "$ROUTER" "$B1" "$B2" "$B3" 2>/dev/null
    exit 1
}

. "$(dirname "$0")/smoke_lib.sh"

rm -rf "$WORK"
mkdir -p "$WORK"

ROUTER=""
B1=""; B2=""; B3=""

# Every backend serves with the same frozen scoring artifact so the
# router's merged /v1/suspects (docs/DETECTION.md) can be probed below.
"$CLI" train "$DATASET" "$WORK/model.gvsm" > "$WORK/train.log" 2>&1 || {
    echo "FAIL: train failed" >&2
    sed 's/^/  train: /' "$WORK/train.log" >&2
    exit 1
}

for i in 1 2 3; do
    "$CLI" serve --port 0 --http-port 0 --port-file "$WORK/b$i.ports" \
        --checkpoint-dir "$WORK/ck$i" --dead-letter "$WORK/dead$i.csv" \
        --model "$WORK/model.gvsm" \
        --reactors 2 > "$WORK/b$i.log" 2>&1 &
    eval "B$i=$!"
done
wait_ports "$WORK/b1.ports" "$B1"
wait_ports "$WORK/b2.ports" "$B2"
wait_ports "$WORK/b3.ports" "$B3"

BACKENDS=""
for i in 1 2 3; do
    INGEST=$(sed -n 's/^ingest=//p' "$WORK/b$i.ports")
    HTTP=$(sed -n 's/^http=//p' "$WORK/b$i.ports")
    [ -n "$INGEST" ] && [ -n "$HTTP" ] || fail "backend $i port file malformed"
    BACKENDS="$BACKENDS --backend b$i=127.0.0.1:$INGEST:$HTTP"
done

# shellcheck disable=SC2086  # word splitting of the flag list is the point
"$CLI" route $BACKENDS --port 0 --http-port 0 \
    --port-file "$WORK/route.ports" --dead-letter "$WORK/route-dead.csv" \
    > "$WORK/route.log" 2>&1 &
ROUTER=$!
wait_ports "$WORK/route.ports" "$ROUTER"
RINGEST=$(sed -n 's/^ingest=//p' "$WORK/route.ports")
RHTTP=$(sed -n 's/^http=//p' "$WORK/route.ports")

"$LOADGEN" "$DATASET" --port "$RINGEST" --http-port "$RHTTP" \
    --connections 4 --route > "$WORK/loadgen.json" 2> "$WORK/loadgen.err" \
    || fail "loadgen failed: $(cat "$WORK/loadgen.err")"

grep -q '"healthz_ok":true' "$WORK/loadgen.json" || fail "/healthz probe"
grep -q '"metrics_ok":true' "$WORK/loadgen.json" || fail "/metrics probe"
grep -q '"failed_connections":0' "$WORK/loadgen.json" \
    || fail "replay dropped connections"
grep -q '"connect_failures":0' "$WORK/loadgen.json" \
    || fail "replay could not connect"
grep -q '"backends":3' "$WORK/loadgen.json" \
    || fail "/v1/summary is not the 3-backend merge"
grep -q '"format":"text"' "$WORK/loadgen.json" \
    || fail "loadgen JSON missing text format tag"

# Second pass over the binary wire protocol: the router decodes each
# client frame, re-encodes per-backend sub-frames, and ships them over
# the forwarders' binary channels (docs/CLUSTER.md).
"$LOADGEN" "$DATASET" --port "$RINGEST" --http-port "$RHTTP" \
    --connections 4 --route --format binary \
    > "$WORK/loadgen-binary.json" 2> "$WORK/loadgen-binary.err" \
    || fail "binary loadgen failed: $(cat "$WORK/loadgen-binary.err")"

grep -q '"format":"binary"' "$WORK/loadgen-binary.json" \
    || fail "loadgen JSON missing binary format tag"
grep -q '"failed_connections":0' "$WORK/loadgen-binary.json" \
    || fail "binary replay dropped connections"
grep -q '"connect_failures":0' "$WORK/loadgen-binary.json" \
    || fail "binary replay could not connect"

probe GET "$RHTTP" /readyz > "$WORK/readyz.body"
grep -q " 200 " "$WORK/status" || fail "/readyz: $(cat "$WORK/status")"

probe GET "$RHTTP" /metrics > "$WORK/metrics.body"
for i in 1 2 3; do
    grep -q "cluster_backend_up{backend=\"b$i\"} 1" "$WORK/metrics.body" \
        || fail "aggregated /metrics missing backend b$i"
done
grep -q "cluster_ingest_records_total" "$WORK/metrics.body" \
    || fail "aggregated /metrics missing router families"

probe POST "$RHTTP" /admin/checkpoint > "$WORK/checkpoint.body"
grep -q " 200 " "$WORK/status" \
    || fail "checkpoint fan-out: $(cat "$WORK/status") $(cat "$WORK/checkpoint.body")"
grep -q '"status":"ok"' "$WORK/checkpoint.body" \
    || fail "checkpoint fan-out body: $(cat "$WORK/checkpoint.body")"
for i in 1 2 3; do
    ls "$WORK/ck$i"/checkpoint-*.gvck > /dev/null 2>&1 \
        || fail "backend $i wrote no checkpoint"
done

# Merged suspects (docs/DETECTION.md): the router fans /v1/suspects out to
# all three backends and re-ranks; the merged body leads with the backend
# count, exactly like the merged summary.
probe GET "$RHTTP" "/v1/suspects?k=5" > "$WORK/suspects.body"
grep -q " 200 " "$WORK/status" \
    || fail "/v1/suspects: $(cat "$WORK/status") $(cat "$WORK/suspects.body")"
grep -q '^{"backends":3,' "$WORK/suspects.body" \
    || fail "merged suspects body: $(cat "$WORK/suspects.body")"
grep -q '"suspects":\[{"user":' "$WORK/suspects.body" \
    || fail "merged suspects list is empty: $(cat "$WORK/suspects.body")"

kill -TERM "$ROUTER"
wait "$ROUTER"
STATUS=$?
[ "$STATUS" -eq 5 ] || fail "router: expected exit 5 on SIGTERM, got $STATUS"

# The router's stop path must leave the backends running.
for i in 1 2 3; do
    eval "pid=\$B$i"
    kill -0 "$pid" 2>/dev/null || fail "backend $i died with the router"
done

for i in 1 2 3; do
    eval "pid=\$B$i"
    kill -TERM "$pid"
    wait "$pid"
    STATUS=$?
    [ "$STATUS" -eq 5 ] \
        || fail "backend $i: expected exit 5 on SIGTERM, got $STATUS"
done

echo "cluster smoke test passed"
exit 0
