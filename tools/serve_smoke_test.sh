#!/bin/sh
# End-to-end smoke test for the serve daemon (docs/SERVICE.md), used by
# ctest (cli_serve_smoke) and the CI serve-smoke job:
#
#   1. start `geovalid serve` on ephemeral ports (--port 0 --port-file)
#   2. replay a dataset through geovalid_loadgen over 4 connections,
#      probing /healthz, /metrics and /v1/summary
#   3. SIGTERM the daemon and require the clean-shutdown contract:
#      exit code 5 plus a final checkpoint on disk; of the periodic
#      checkpoints (every 5000 records) only the newest two remain, and
#      no .tmp
#   4. resume: a daemon takes one text replay and drains (exit 0); a
#      --resume daemon on the same checkpoint directory takes the same
#      replay and drains, and must skip every record as covered
#   5. serve with a trained model and probe /v1/suspects
#
# usage: serve_smoke_test.sh <geovalid> <geovalid_loadgen> <dataset> <work>
set -u

CLI="$1"
LOADGEN="$2"
DATASET="$3"
WORK="$4"
LOG=serve

fail() {
    echo "FAIL: $1" >&2
    [ -f "$WORK/$LOG.log" ] && sed "s/^/  $LOG: /" "$WORK/$LOG.log" >&2
    kill "$SERVER" 2>/dev/null
    exit 1
}

. "$(dirname "$0")/smoke_lib.sh"

# $1 = log name, then serve flags: starts a daemon on ephemeral ports and
# sets SERVER, INGEST and HTTP.
start_serve() {
    LOG="$1"; shift
    rm -f "$WORK/ports"
    "$CLI" serve --port 0 --http-port 0 --port-file "$WORK/ports" "$@" \
        > "$WORK/$LOG.log" 2>&1 &
    SERVER=$!
    wait_ports "$WORK/ports" "$SERVER"
    INGEST=$(sed -n 's/^ingest=//p' "$WORK/ports")
    HTTP=$(sed -n 's/^http=//p' "$WORK/ports")
    [ -n "$INGEST" ] && [ -n "$HTTP" ] || fail "port file is malformed"
}

# $1 = output name: one text replay over 4 connections.
replay() {
    "$LOADGEN" "$DATASET" --port "$INGEST" --http-port "$HTTP" \
        --connections 4 > "$WORK/$1.json" 2> "$WORK/$1.err" \
        || fail "$1 failed: $(cat "$WORK/$1.err")"
}

# POST /admin/drain, then require exit 0.
drain() {
    probe POST "$HTTP" /admin/drain > /dev/null
    grep -q " 200 " "$WORK/status" || fail "drain: $(cat "$WORK/status")"
    wait "$SERVER"
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "expected exit 0 after a drain, got $STATUS"
}

rm -rf "$WORK"
mkdir -p "$WORK"

start_serve serve --checkpoint-dir "$WORK/ck" --checkpoint-interval 5000 \
    --dead-letter "$WORK/dead.csv" --shards 2 --reactors 2
replay loadgen

grep -q '"healthz_ok":true' "$WORK/loadgen.json" || fail "/healthz probe"
grep -q '"metrics_ok":true' "$WORK/loadgen.json" || fail "/metrics probe"
grep -q '"partition":{' "$WORK/loadgen.json" || fail "/v1/summary probe"
grep -q '"format":"text"' "$WORK/loadgen.json" \
    || fail "loadgen JSON missing text format tag"
grep -q '"failed_connections":0' "$WORK/loadgen.json" \
    || fail "replay dropped connections"

# Second pass over the binary wire protocol (docs/SERVICE.md): the same
# daemon negotiates per connection from the first byte, so the columnar
# frames land next to the text replay's records.
"$LOADGEN" "$DATASET" --port "$INGEST" --http-port "$HTTP" \
    --connections 4 --format binary > "$WORK/loadgen-binary.json" \
    2> "$WORK/loadgen-binary.err" \
    || fail "binary loadgen failed: $(cat "$WORK/loadgen-binary.err")"

grep -q '"format":"binary"' "$WORK/loadgen-binary.json" \
    || fail "loadgen JSON missing binary format tag"
grep -q '"healthz_ok":true' "$WORK/loadgen-binary.json" \
    || fail "binary pass /healthz probe"
grep -q '"failed_connections":0' "$WORK/loadgen-binary.json" \
    || fail "binary replay dropped connections"

kill -TERM "$SERVER"
wait "$SERVER"
STATUS=$?
[ "$STATUS" -eq 5 ] || fail "expected exit 5 on SIGTERM, got $STATUS"
ls "$WORK"/ck/checkpoint-*.gvck > /dev/null 2>&1 \
    || fail "no final checkpoint written"
KEPT=$(ls "$WORK"/ck/checkpoint-*.gvck | wc -l)
[ "$KEPT" -eq 2 ] || fail "expected the newest 2 checkpoints, found $KEPT"
! ls "$WORK"/ck/*.tmp > /dev/null 2>&1 || fail "a .tmp file was left behind"

# Resume leg (docs/SERVICE.md, "Checkpoints, kill, resume"): the clients
# re-send everything, and every record the drained daemon's checkpoint
# covers is skipped — replayed, never applied twice.
start_serve resume-first --checkpoint-dir "$WORK/ck-resume" \
    --shards 2 --reactors 2
replay loadgen-resume-first
drain
start_serve resume --checkpoint-dir "$WORK/ck-resume" --resume \
    --shards 2 --reactors 2
replay loadgen-resume
drain
SENT=$(sed -n 's/.*"events_sent":\([0-9]*\).*/\1/p' \
    "$WORK/loadgen-resume.json")
[ -n "$SENT" ] && [ "$SENT" -gt 0 ] || fail "resume replay sent no events"
grep -q "^  replayed     $SENT\$" "$WORK/resume.log" \
    || fail "resumed daemon did not replay all $SENT records"
grep -q '^  applied      0$' "$WORK/resume.log" \
    || fail "resumed daemon applied a covered record"

# Trained-model pass (docs/DETECTION.md): freeze a scoring artifact from
# the same dataset, restart the daemon with --model, and require the
# scoring control plane to answer — the loadgen's --probe-suspects exits
# nonzero unless /v1/suspects returned at least one ranked list.
"$CLI" train "$DATASET" "$WORK/model.gvsm" > "$WORK/train.log" 2>&1 \
    || fail "train failed: $(cat "$WORK/train.log")"

start_serve serve-model --model "$WORK/model.gvsm" --shards 2 --reactors 2

"$LOADGEN" "$DATASET" --port "$INGEST" --http-port "$HTTP" \
    --connections 4 --probe-suspects > "$WORK/loadgen-model.json" \
    2> "$WORK/loadgen-model.err" \
    || fail "model loadgen failed: $(cat "$WORK/loadgen-model.err")"

grep -q '"suspects":{' "$WORK/loadgen-model.json" \
    || fail "loadgen JSON missing a suspects body"

kill -TERM "$SERVER"
wait "$SERVER"
STATUS=$?
[ "$STATUS" -eq 5 ] || fail "expected exit 5 on model-serve SIGTERM, got $STATUS"

echo "serve smoke test passed"
exit 0
