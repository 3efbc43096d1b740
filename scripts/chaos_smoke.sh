#!/usr/bin/env sh
# chaos_smoke.sh — the part of the resilience contract only real
# processes can show.
#
# The fault contracts themselves are asserted in process by
# internal/chaos/e2e_test.go (go test ./internal/chaos/): a slow shard is
# cut at the router's budget and applies nothing
# (TestE2EDeadlineBoundsSlowShard), the breaker opens, sheds 503 +
# Retry-After, recovers, and a step applies exactly once
# (TestE2EBreakerShedsAndRecovers), a blackholed shard degrades listings
# to "incomplete" (TestE2EListingDegradesWhenShardBlackholed). This
# script keeps what those cannot reach:
#
#   boot           nbody-serve ×2, nbody-chaos and nbody-router start
#                  with their resilience flags and become ready
#   control API    /_chaos/set, /_chaos/off and /_chaos/stats answer on
#                  the real proxy; one scripted fault draws and is counted
#   deadline hdr   a client-sent X-NBody-Deadline: 300ms (no Go test sends
#                  the header through a router) cuts a 5s-slow shard loose
#                  with 504 deadline_exceeded, and no work applies
#   /metrics       the router binary exposes the resilience series
#   SIGTERM        router and both replicas drain and exit 0
set -eu

PORT_A="${NBODY_SMOKE_PORT_A:-18086}"
PORT_B="${NBODY_SMOKE_PORT_B:-18087}"
PORT_C="${NBODY_SMOKE_PORT_C:-18088}"
PORT_R="${NBODY_SMOKE_PORT_R:-18089}"
BASE="http://127.0.0.1:$PORT_R"
CHAOS="http://127.0.0.1:$PORT_C"
WORK="$(mktemp -d)"

cleanup() {
    [ -n "${RTR_PID:-}" ] && kill "$RTR_PID" 2>/dev/null || true
    [ -n "${CHA_PID:-}" ] && kill "$CHA_PID" 2>/dev/null || true
    [ -n "${SRV_A_PID:-}" ] && kill "$SRV_A_PID" 2>/dev/null || true
    [ -n "${SRV_B_PID:-}" ] && kill "$SRV_B_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/nbody-serve" ./cmd/nbody-serve
go build -o "$WORK/nbody-router" ./cmd/nbody-router
go build -o "$WORK/nbody-chaos" ./cmd/nbody-chaos

"$WORK/nbody-serve" -addr "127.0.0.1:$PORT_A" -shard-id a -log-format=json \
    >"$WORK/a.log" 2>&1 &
SRV_A_PID=$!
"$WORK/nbody-serve" -addr "127.0.0.1:$PORT_B" -shard-id b -log-format=json \
    >"$WORK/b.log" 2>&1 &
SRV_B_PID=$!
"$WORK/nbody-chaos" -addr "127.0.0.1:$PORT_C" -target "http://127.0.0.1:$PORT_A" \
    >"$WORK/chaos.log" 2>&1 &
CHA_PID=$!

# -fail-after 1000 keeps the health prober from marking shard a down
# while faults run: the circuit breaker must be the mechanism under test.
"$WORK/nbody-router" -addr "127.0.0.1:$PORT_R" -log-format=json \
    -shard "a=$CHAOS" -shard "b=http://127.0.0.1:$PORT_B" \
    -probe-interval 250ms -fail-after 1000 \
    -proxy-timeout 2s -hedge-after 50ms \
    -breaker-failures 3 -breaker-cooldown 1s >"$WORK/router.log" 2>&1 &
RTR_PID=$!

wait_ready() {
    i=0
    until curl -fsS "$1/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "chaos-smoke: $2 did not become ready; log:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_ready "http://127.0.0.1:$PORT_A" "shard a" "$WORK/a.log"
wait_ready "http://127.0.0.1:$PORT_B" "shard b" "$WORK/b.log"
wait_ready "$BASE" "router" "$WORK/router.log"

shard_of() {
    tr -d '\r' <"$1" | tr 'A-Z' 'a-z' | sed -n 's/^x-nbody-shard: //p' | head -1
}

# Place sessions through the router until one lands on (chaos-fronted)
# shard a — the victim the fault script acts on.
SID=""
i=0
while [ -z "$SID" ]; do
    i=$((i + 1))
    if [ "$i" -gt 40 ]; then
        echo "chaos-smoke: 40 placements never landed on shard a" >&2
        exit 1
    fi
    BODY=$(curl -fsS -D "$WORK/hdr" -X POST "$BASE/v1/sessions" \
        -H 'Content-Type: application/json' \
        -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}')
    if [ "$(shard_of "$WORK/hdr")" = "a" ]; then
        SID=$(printf '%s' "$BODY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
    fi
done

# ---- Deadline header under latency: the 300ms budget must win. -------
curl -fsS -X POST "$CHAOS/_chaos/set?latency=5s" >/dev/null
T0=$(date +%s)
STATUS=$(curl -s --max-time 4 -o "$WORK/body" -w '%{http_code}' \
    -H 'X-NBody-Deadline: 300ms' -X POST "$BASE/v1/sessions/$SID/step" \
    -H 'Content-Type: application/json' -d '{"steps":5}')
T1=$(date +%s)
[ "$STATUS" = "504" ] || {
    echo "chaos-smoke: step under 5s latency with a 300ms deadline: HTTP $STATUS, want 504" >&2
    cat "$WORK/body" >&2
    exit 1
}
grep -q '"deadline_exceeded"' "$WORK/body" || {
    echo "chaos-smoke: 504 body lacks deadline_exceeded: $(cat "$WORK/body")" >&2
    exit 1
}
[ $((T1 - T0)) -le 3 ] || {
    echo "chaos-smoke: deadline-bounded request took $((T1 - T0))s, want <= 3" >&2
    exit 1
}

curl -fsS -X POST "$CHAOS/_chaos/off" >/dev/null
STEPS=$(curl -fsS "$BASE/v1/sessions/$SID" | sed -n 's/.*"steps":\([0-9]*\).*/\1/p')
[ "$STEPS" = "0" ] || {
    echo "chaos-smoke: session holds $STEPS steps after a deadline-cut write, want 0" >&2
    exit 1
}

# The injector counted the fault it drew.
STATS=$(curl -fsS "$CHAOS/_chaos/stats")
printf '%s' "$STATS" | grep -q '"latency":[1-9]' || {
    echo "chaos-smoke: /_chaos/stats never counted a latency fault: $STATS" >&2
    exit 1
}

# ---- Resilience metrics exposed on the router. ------------------------
METRICS=$(curl -fsS "$BASE/metrics")
for pattern in \
    'nbody_router_breaker_opens_total' \
    'nbody_router_breaker_state{shard="a"} 0' \
    'nbody_router_deadline_expired_total [1-9]' \
    'nbody_router_hedged_reads_total'; do
    if ! printf '%s\n' "$METRICS" | grep -Eq "$pattern"; then
        echo "chaos-smoke: /metrics missing series matching: $pattern" >&2
        printf '%s\n' "$METRICS" | grep nbody_router | head -40 >&2
        exit 1
    fi
done

# ---- SIGTERM: router first, then the replicas; each must exit 0. ------
stop() {
    kill -TERM "$2"
    if wait "$2"; then :; else
        echo "chaos-smoke: $1 exited $? on SIGTERM, want 0; log:" >&2
        cat "$3" >&2
        exit 1
    fi
}
stop "router" "$RTR_PID" "$WORK/router.log"
RTR_PID=""
stop "shard a" "$SRV_A_PID" "$WORK/a.log"
SRV_A_PID=""
stop "shard b" "$SRV_B_PID" "$WORK/b.log"
SRV_B_PID=""

echo "chaos-smoke: ok (3 binaries booted, control API answered, 300ms deadline header cut a 5s fault, clean SIGTERM exits)"
