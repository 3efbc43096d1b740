#!/usr/bin/env sh
# router_smoke.sh — end-to-end sharding smoke test.
#
# Boots two real nbody-serve replicas and the nbody-router in front of
# them, places sessions through the router until both shards hold some,
# steps one, then pins shard a's single job worker with a long blocker
# job, places a router job on shard a, drains shard a and verifies the
# queued job is handed to shard b under the same ID and completes there.
# Finally asserts the router's /metrics exposes per-shard placement and
# handoff series and that the error envelope carries the stable codes.
set -eu

PORT_A="${NBODY_SMOKE_PORT_A:-18083}"
PORT_B="${NBODY_SMOKE_PORT_B:-18084}"
PORT_R="${NBODY_SMOKE_PORT_R:-18085}"
BASE="http://127.0.0.1:$PORT_R"
WORK="$(mktemp -d)"

cleanup() {
    [ -n "${RTR_PID:-}" ] && kill "$RTR_PID" 2>/dev/null || true
    [ -n "${SRV_A_PID:-}" ] && kill "$SRV_A_PID" 2>/dev/null || true
    [ -n "${SRV_B_PID:-}" ] && kill "$SRV_B_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/nbody-serve" ./cmd/nbody-serve
go build -o "$WORK/nbody-router" ./cmd/nbody-router

# Shard a gets a single job worker so one long blocker job pins its queue.
"$WORK/nbody-serve" -addr "127.0.0.1:$PORT_A" -shard-id a -log-format=json \
    -job-workers 1 >"$WORK/a.log" 2>&1 &
SRV_A_PID=$!
"$WORK/nbody-serve" -addr "127.0.0.1:$PORT_B" -shard-id b -log-format=json \
    -job-workers 2 >"$WORK/b.log" 2>&1 &
SRV_B_PID=$!

"$WORK/nbody-router" -addr "127.0.0.1:$PORT_R" -log-format=json \
    -shard "a=http://127.0.0.1:$PORT_A" -shard "b=http://127.0.0.1:$PORT_B" \
    -probe-interval 250ms >"$WORK/router.log" 2>&1 &
RTR_PID=$!

wait_ready() {
    i=0
    until curl -fsS "$1/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "router-smoke: $2 did not become ready; log:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_ready "http://127.0.0.1:$PORT_A" "shard a" "$WORK/a.log"
wait_ready "http://127.0.0.1:$PORT_B" "shard b" "$WORK/b.log"
wait_ready "$BASE" "router" "$WORK/router.log"

# shard_of prints the shard header of the last curl -D dump.
shard_of() {
    tr -d '\r' <"$1" | tr 'A-Z' 'a-z' | sed -n 's/^x-nbody-shard: //p' | head -1
}

# Place sessions through the router until both shards hold at least one.
SEEN_A=0 SEEN_B=0 STEP_ID=""
i=0
while [ "$SEEN_A" -eq 0 ] || [ "$SEEN_B" -eq 0 ]; do
    i=$((i + 1))
    if [ "$i" -gt 40 ]; then
        echo "router-smoke: 40 placements did not land on both shards (a=$SEEN_A b=$SEEN_B)" >&2
        exit 1
    fi
    BODY=$(curl -fsS -D "$WORK/hdr" -X POST "$BASE/v1/sessions" \
        -H 'Content-Type: application/json' \
        -d '{"workload":"plummer","n":128,"config":{"dt":0.001}}')
    SID=$(printf '%s' "$BODY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    case "$SID" in rs-*) ;; *)
        echo "router-smoke: session id '$SID' is not router-minted" >&2
        exit 1
        ;;
    esac
    case "$(shard_of "$WORK/hdr")" in
    a) SEEN_A=1 ;;
    b) SEEN_B=1 ;;
    *)
        echo "router-smoke: placement response lacks a shard header" >&2
        exit 1
        ;;
    esac
    STEP_ID="$SID"
done

# A write proxies to the owning shard.
COMPLETED=$(curl -fsS -X POST "$BASE/v1/sessions/$STEP_ID/step" \
    -H 'Content-Type: application/json' -d '{"steps":3}' |
    sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
[ "$COMPLETED" = "3" ] || {
    echo "router-smoke: step via router completed '$COMPLETED' steps, want 3" >&2
    exit 1
}

# Pin shard a's single job worker with a long blocker, submitted directly.
curl -fsS -X POST "http://127.0.0.1:$PORT_A/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":256,"config":{"dt":0.001},"steps":500000}' >/dev/null

# Place jobs through the router until one lands on (pinned) shard a.
JOB_ID=""
i=0
while [ -z "$JOB_ID" ]; do
    i=$((i + 1))
    if [ "$i" -gt 40 ]; then
        echo "router-smoke: 40 job placements never landed on shard a" >&2
        exit 1
    fi
    BODY=$(curl -fsS -D "$WORK/hdr" -X POST "$BASE/v1/jobs" \
        -H 'Content-Type: application/json' \
        -d '{"workload":"plummer","n":64,"config":{"dt":0.001},"steps":20}')
    if [ "$(shard_of "$WORK/hdr")" = "a" ]; then
        JOB_ID=$(printf '%s' "$BODY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    fi
done

# Drain shard a: the queued job must hand off, none may fail.
DRAIN=$(curl -fsS -X POST "$BASE/v1/shards/a/drain")
printf '%s' "$DRAIN" | grep -q '"draining":true' || {
    echo "router-smoke: drain response not draining: $DRAIN" >&2
    exit 1
}
HANDED=$(printf '%s' "$DRAIN" | sed -n 's/.*"handed_off":\([0-9]*\).*/\1/p')
FAILED=$(printf '%s' "$DRAIN" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
[ "${HANDED:-0}" -ge 1 ] && [ "${FAILED:-1}" -eq 0 ] || {
    echo "router-smoke: drain handed_off=$HANDED failed=$FAILED, want >=1 and 0: $DRAIN" >&2
    exit 1
}

# The handed-off job keeps its ID, lands on shard b, and completes there.
i=0
while :; do
    BODY=$(curl -fsS -D "$WORK/hdr" "$BASE/v1/jobs/$JOB_ID")
    STATE=$(printf '%s' "$BODY" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    if [ "$STATE" = "succeeded" ]; then
        [ "$(shard_of "$WORK/hdr")" = "b" ] || {
            echo "router-smoke: handed-off job served by shard '$(shard_of "$WORK/hdr")', want b" >&2
            exit 1
        }
        break
    fi
    case "$STATE" in
    failed | cancelled)
        echo "router-smoke: handed-off job $JOB_ID finished $STATE" >&2
        printf '%s\n' "$BODY" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "router-smoke: handed-off job $JOB_ID stuck in '$STATE'" >&2
        tail -20 "$WORK/router.log" >&2
        exit 1
    fi
    sleep 0.1
done

# No job record was lost: the global listing holds the job exactly once.
COUNT=$(curl -fsS "$BASE/v1/jobs" | grep -o "\"id\":\"$JOB_ID\"" | wc -l)
[ "$COUNT" -eq 1 ] || {
    echo "router-smoke: job $JOB_ID appears $COUNT times in the merged listing, want 1" >&2
    exit 1
}

# New placements avoid the draining shard.
curl -fsS -D "$WORK/hdr" -X POST "$BASE/v1/sessions" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}' >/dev/null
[ "$(shard_of "$WORK/hdr")" = "b" ] || {
    echo "router-smoke: placement during drain landed on '$(shard_of "$WORK/hdr")', want b" >&2
    exit 1
}

# Router metrics: per-shard placements on both shards, a successful
# handoff, and the draining gauge for shard a.
METRICS=$(curl -fsS "$BASE/metrics")
for pattern in \
    'nbody_router_placements_total{shard="a"} [1-9]' \
    'nbody_router_placements_total{shard="b"} [1-9]' \
    'nbody_router_handoffs_total{result="ok"} [1-9]' \
    'nbody_router_shard_draining{shard="a"} 1' \
    'nbody_router_shard_up{shard="b"} 1'; do
    if ! printf '%s\n' "$METRICS" | grep -Eq "$pattern"; then
        echo "router-smoke: /metrics missing series matching: $pattern" >&2
        printf '%s\n' "$METRICS" | grep nbody_router | head -40 >&2
        exit 1
    fi
done

# Error envelope sanity through the router: unknown IDs answer the stable
# codes after the discovery walk exhausts every shard.
CODE=$(curl -s "$BASE/v1/sessions/rs-nope" | sed -n 's/.*"code":"\([^"]*\)".*/\1/p')
[ "$CODE" = "session_not_found" ] || {
    echo "router-smoke: 404 envelope code '$CODE', want session_not_found" >&2
    exit 1
}

echo "router-smoke: ok (both shards placed, drain handed $HANDED job(s) to b, metrics verified)"
