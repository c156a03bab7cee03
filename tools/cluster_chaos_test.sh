#!/bin/sh
# Cluster chaos drill (docs/ROBUSTNESS.md), used by ctest
# (cli_cluster_chaos) and the CI cluster-chaos job:
#
#   1. establish the dataset's event count with a throwaway single-serve
#      replay (events_sent on a clean run = records in the dataset)
#   2. start three `geovalid serve` backends (periodic checkpoints) and
#      `geovalid route` fronting them with fast probe/backoff settings
#   3. start a paced replay with --retries, SIGKILL backend 2 mid-load,
#      and restart it with --resume on the same ports
#   4. the router must re-adopt it on its own: /readyz back to 200,
#      cluster_reconnects_total for b2 non-zero on /metrics; the epoch
#      reset severs the replay's connections and --retries re-sends each
#      shard from the beginning (the at-least-once half of the contract)
#   5. /v1/summary must converge to exactly the clean event count —
#      zero records lost, zero duplicated
#   6. SIGTERM the router and every backend: exit 5 each
#
# usage: cluster_chaos_test.sh <geovalid> <geovalid_loadgen> <dataset> <work>
set -u

CLI="$1"
LOADGEN="$2"
DATASET="$3"
WORK="$4"

fail() {
    echo "FAIL: $1" >&2
    for log in route b1 b2 b2r b3 loadgen-chaos; do
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

# Throwaway single serve: one clean full-speed replay straight at it
# yields the dataset's event count without touching the cluster's epoch
# accounting.
"$CLI" serve --port 0 --http-port 0 --port-file "$WORK/warm.ports" \
    > "$WORK/warm.log" 2>&1 &
WARM=$!
wait_ports "$WORK/warm.ports" "$WARM"
WINGEST=$(sed -n 's/^ingest=//p' "$WORK/warm.ports")
"$LOADGEN" "$DATASET" --port "$WINGEST" --connections 2 \
    > "$WORK/loadgen-warm.json" 2> "$WORK/loadgen-warm.err" \
    || { kill "$WARM" 2>/dev/null; fail "warmup loadgen failed: $(cat "$WORK/loadgen-warm.err")"; }
kill -TERM "$WARM"
wait "$WARM"
EXPECTED=$(sed -n 's/.*"events_sent":\([0-9]*\).*/\1/p' \
    "$WORK/loadgen-warm.json")
[ -n "$EXPECTED" ] && [ "$EXPECTED" -gt 0 ] \
    || fail "warmup loadgen reported no events"

for i in 1 2 3; do
    "$CLI" serve --port 0 --http-port 0 --port-file "$WORK/b$i.ports" \
        --checkpoint-dir "$WORK/ck$i" --checkpoint-interval 64 \
        --dead-letter "$WORK/dead$i.csv" \
        > "$WORK/b$i.log" 2>&1 &
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
    eval "INGEST$i=$INGEST"
    eval "HTTP$i=$HTTP"
done

# shellcheck disable=SC2086  # word splitting of the flag list is the point
"$CLI" route $BACKENDS --port 0 --http-port 0 \
    --port-file "$WORK/route.ports" --dead-letter "$WORK/route-dead.csv" \
    --probe-interval 0.1 --probe-timeout 0.5 --probe-down-after 2 \
    --reconnect-backoff-ms 50 --reconnect-backoff-cap-ms 200 \
    > "$WORK/route.log" 2>&1 &
ROUTER=$!
wait_ports "$WORK/route.ports" "$ROUTER"
RINGEST=$(sed -n 's/^ingest=//p' "$WORK/route.ports")
RHTTP=$(sed -n 's/^http=//p' "$WORK/route.ports")

# Paced so the replay is still in flight through the whole kill/restart/
# re-adopt cycle; --retries rides out the epoch reset's connection sever
# by re-sending each shard from the beginning.
RATE=$((EXPECTED / 8))
[ "$RATE" -ge 100 ] || RATE=100
"$LOADGEN" "$DATASET" --port "$RINGEST" --connections 2 --route \
    --rate "$RATE" --retries 20 \
    > "$WORK/loadgen-chaos.json" 2> "$WORK/loadgen-chaos.log" &
CHAOS=$!

sleep 0.7
kill -KILL "$B2"
wait "$B2" 2>/dev/null
sleep 0.3

# Restart the victim with --resume on the same ports; the router's probe
# loop must re-adopt it with no operator action at the router.
"$CLI" serve --port "$INGEST2" --http-port "$HTTP2" \
    --port-file "$WORK/b2r.ports" \
    --checkpoint-dir "$WORK/ck2" --resume \
    --dead-letter "$WORK/dead2r.csv" \
    > "$WORK/b2r.log" 2>&1 &
B2=$!
wait_ports "$WORK/b2r.ports" "$B2"

i=0
while :; do
    probe GET "$RHTTP" /readyz > "$WORK/readyz.body"
    grep -q " 200 " "$WORK/status" && break
    i=$((i + 1))
    [ "$i" -gt 100 ] \
        && fail "/readyz never recovered: $(cat "$WORK/status") $(cat "$WORK/readyz.body")"
    sleep 0.2
done

wait "$CHAOS"
STATUS=$?
[ "$STATUS" -eq 0 ] || fail "chaos loadgen exited $STATUS"
grep -q '"retry_exhausted":false' "$WORK/loadgen-chaos.json" \
    || fail "chaos loadgen exhausted its retries: $(cat "$WORK/loadgen-chaos.json")"
grep -Eq '"reconnects":[1-9]' "$WORK/loadgen-chaos.json" \
    || fail "epoch reset never severed the replay: $(cat "$WORK/loadgen-chaos.json")"

# The router reconnected to the restarted process at least once.
probe GET "$RHTTP" /metrics > "$WORK/metrics.body"
grep -Eq 'cluster_reconnects_total\{backend="b2"\} [1-9]' "$WORK/metrics.body" \
    || fail "cluster_reconnects_total for b2 still zero after the restart"

# Exactly-once: the merged summary converges to the clean event count —
# zero lost (the re-send re-delivered the kill window), zero duplicated
# (router epoch skip + serve resume skip swallowed every replayed copy).
i=0
while :; do
    probe GET "$RHTTP" /v1/summary > "$WORK/summary.body"
    grep -q "\"records_parsed\":$EXPECTED[,}]" "$WORK/summary.body" && break
    i=$((i + 1))
    [ "$i" -gt 100 ] \
        && fail "summary never converged to $EXPECTED records: $(cat "$WORK/summary.body")"
    sleep 0.2
done
grep -q '"backends":3' "$WORK/summary.body" \
    || fail "summary is not the 3-backend merge: $(cat "$WORK/summary.body")"

kill -TERM "$ROUTER"
wait "$ROUTER"
STATUS=$?
[ "$STATUS" -eq 5 ] || fail "router: expected exit 5 on SIGTERM, got $STATUS"

for i in 1 2 3; do
    eval "pid=\$B$i"
    kill -0 "$pid" 2>/dev/null || fail "backend $i died with the router"
    kill -TERM "$pid"
    wait "$pid"
    STATUS=$?
    [ "$STATUS" -eq 5 ] \
        || fail "backend $i: expected exit 5 on SIGTERM, got $STATUS"
done

echo "cluster chaos test passed"
exit 0
