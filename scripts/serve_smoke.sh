#!/bin/sh
# serve_smoke.sh — end-to-end gate for the serving daemon (DESIGN.md §10).
#
# Boots mpgraph-serve on a tiny suite with a checkpoint store in a temp dir
# and session faults armed, drives 200 closed-loop loadgen sessions against
# it, then SIGTERMs the daemon and verifies: the store holds a record of each
# of the suite's ten models, loadgen saw zero hard failures, the daemon
# drained and exited 0, and its post-drain goroutine leak-check passed. The
# degradation-event log lands in serve-degrade.log for CI to archive.
set -eu

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:18080}"
SESSIONS="${SERVE_SMOKE_SESSIONS:-200}"
LOG="${SERVE_SMOKE_LOG:-serve-smoke.log}"
DEGRADE="${SERVE_SMOKE_DEGRADE:-serve-degrade.log}"
CKPT="$(mktemp -d)"

./bin/mpgraph-serve -addr "$ADDR" -workload gpop/pr/rmat -scale small \
    -graph-scale 9 -trace-iterations 2 -train-samples 512 -epochs 1 \
    -batch 8 -max-sessions 64 -checkpoint-dir "$CKPT" \
    -inject 'serve-session:panic~0.05' \
    -degrade-log "$DEGRADE" -leak-check >"$LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$CKPT"' EXIT

# Wait for the suite to train and the listener to come up.
i=0
until wget -q -O /dev/null "http://$ADDR/healthz" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 600 ]; then
        echo "serve_smoke: daemon never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve_smoke: daemon exited before becoming healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done

./bin/mpgraph-loadgen -addr "http://$ADDR" -sessions "$SESSIONS" \
    -events 128 -chunk 32 -concurrency 24

kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve_smoke: daemon exited non-zero after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
trap - EXIT
records=$(ls "$CKPT" | grep -c '^model-') || true
rm -rf "$CKPT"

test "$records" -eq 10 || {
    echo "serve_smoke: the checkpoint store holds $records model records, want 10" >&2
    exit 1
}
grep -q 'leak-check: ok' "$LOG" || {
    echo "serve_smoke: missing post-drain leak-check confirmation" >&2
    cat "$LOG" >&2
    exit 1
}
test -s "$DEGRADE" || {
    echo "serve_smoke: degradation log $DEGRADE is empty — injected faults never surfaced" >&2
    exit 1
}
echo "serve_smoke: ok ($SESSIONS sessions, drained clean, no leaked goroutines)"
