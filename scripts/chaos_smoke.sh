#!/usr/bin/env sh
# chaos_smoke.sh — end-to-end resilience smoke test.
#
# Boots two real nbody-serve replicas behind nbody-router, with shard a
# fronted by the nbody-chaos fault-injecting proxy, then scripts network
# faults through the /_chaos/ control API and asserts the resilience
# contract at the router's front door:
#
#   latency 5s     a request carrying a 300ms X-NBody-Deadline answers
#                  504 deadline_exceeded fast, and no work applies
#   error_rate 1   three straight 500s open shard a's circuit breaker:
#                  writes shed 503 shard_unavailable + Retry-After, the
#                  breaker is visible on /v1/shards and /metrics
#   (healed)       after one cooldown a trial request closes the breaker
#                  and a step applies exactly once — the shed write never
#                  landed
#   blackhole 1    GET /v1/sessions degrades to "incomplete": true with
#                  the skipped shard named, instead of hanging or failing
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
# And one session on shard b, so the degraded listing has survivors.
while :; do
    curl -fsS -D "$WORK/hdr" -X POST "$BASE/v1/sessions" \
        -H 'Content-Type: application/json' \
        -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}' >/dev/null
    [ "$(shard_of "$WORK/hdr")" = "b" ] && break
done

# ---- Fault 1: latency. The deadline must cut the request loose. -------
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

# ---- Fault 2: errors. Three straight 500s open the breaker. -----------
curl -fsS -X POST "$CHAOS/_chaos/set?error_rate=1&error_code=500" >/dev/null
for i in 1 2 3; do
    STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sessions/$SID")
    [ "$STATUS" = "500" ] || {
        echo "chaos-smoke: GET $i under error_rate=1: HTTP $STATUS, want the relayed 500" >&2
        exit 1
    }
done
curl -fsS "$BASE/v1/shards" | grep -q '"name":"a"[^}]*"breaker":"open"' || {
    echo "chaos-smoke: /v1/shards does not show shard a's breaker open" >&2
    curl -fsS "$BASE/v1/shards" >&2
    exit 1
}
STATUS=$(curl -s -D "$WORK/hdr" -o "$WORK/body" -w '%{http_code}' \
    -X POST "$BASE/v1/sessions/$SID/step" \
    -H 'Content-Type: application/json' -d '{"steps":5}')
[ "$STATUS" = "503" ] || {
    echo "chaos-smoke: write behind open breaker: HTTP $STATUS, want 503" >&2
    cat "$WORK/body" >&2
    exit 1
}
grep -q '"shard_unavailable"' "$WORK/body" || {
    echo "chaos-smoke: shed 503 lacks shard_unavailable: $(cat "$WORK/body")" >&2
    exit 1
}
tr -d '\r' <"$WORK/hdr" | grep -qi '^retry-after:' || {
    echo "chaos-smoke: shed 503 lacks Retry-After" >&2
    exit 1
}

# ---- Heal: one cooldown later, a trial request closes the circuit. ----
curl -fsS -X POST "$CHAOS/_chaos/off" >/dev/null
sleep 1.2
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sessions/$SID")
[ "$STATUS" = "200" ] || {
    echo "chaos-smoke: trial request after heal + cooldown: HTTP $STATUS, want 200" >&2
    exit 1
}
curl -fsS "$BASE/v1/shards" | grep -q '"name":"a"[^}]*"breaker":"closed"' || {
    echo "chaos-smoke: breaker did not close after a successful trial" >&2
    curl -fsS "$BASE/v1/shards" >&2
    exit 1
}

# Exactly-once: the deadline-cut and breaker-shed steps never applied, so
# this first successful step brings the session to exactly 3 steps.
COMPLETED=$(curl -fsS -X POST "$BASE/v1/sessions/$SID/step" \
    -H 'Content-Type: application/json' -d '{"steps":3}' |
    sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
[ "$COMPLETED" = "3" ] || {
    echo "chaos-smoke: step after recovery completed '$COMPLETED', want 3" >&2
    exit 1
}
STEPS=$(curl -fsS "$BASE/v1/sessions/$SID" | sed -n 's/.*"steps":\([0-9]*\).*/\1/p')
[ "$STEPS" = "3" ] || {
    echo "chaos-smoke: session holds $STEPS total steps, want exactly 3 (a failed write applied)" >&2
    exit 1
}

# ---- Fault 3: partition. Listings degrade, never hang or 502. ---------
curl -fsS -X POST "$CHAOS/_chaos/set?blackhole_rate=1" >/dev/null
BODY=$(curl -fsS --max-time 5 -D "$WORK/hdr" "$BASE/v1/sessions")
printf '%s' "$BODY" | grep -q '"incomplete":true' || {
    echo "chaos-smoke: listing under partition not marked incomplete: $BODY" >&2
    exit 1
}
tr -d '\r' <"$WORK/hdr" | grep -qi '^x-nbody-skipped-shards: .*a' || {
    echo "chaos-smoke: degraded listing does not name skipped shard a" >&2
    exit 1
}
printf '%s' "$BODY" | grep -q '"id":"rs-' || {
    echo "chaos-smoke: degraded listing lost the surviving shard's sessions: $BODY" >&2
    exit 1
}
curl -fsS -X POST "$CHAOS/_chaos/off" >/dev/null

# ---- Resilience metrics exposed on the router. ------------------------
METRICS=$(curl -fsS "$BASE/metrics")
for pattern in \
    'nbody_router_breaker_opens_total{shard="a"} [1-9]' \
    'nbody_router_breaker_state{shard="a"} 0' \
    'nbody_router_deadline_expired_total [1-9]' \
    'nbody_router_hedged_reads_total'; do
    if ! printf '%s\n' "$METRICS" | grep -Eq "$pattern"; then
        echo "chaos-smoke: /metrics missing series matching: $pattern" >&2
        printf '%s\n' "$METRICS" | grep nbody_router | head -40 >&2
        exit 1
    fi
done

# The injector kept count of what it did: every scripted fault kind drew.
STATS=$(curl -fsS "$CHAOS/_chaos/stats")
for kind in latency error blackhole; do
    printf '%s' "$STATS" | grep -q "\"$kind\":[1-9]" || {
        echo "chaos-smoke: /_chaos/stats never counted a $kind fault: $STATS" >&2
        exit 1
    }
done

echo "chaos-smoke: ok (deadline cut at 300ms, breaker opened+recovered, exactly-once held, listing degraded cleanly)"
