#!/usr/bin/env sh
# obs_smoke.sh — end-to-end observability smoke test.
#
# Boots nbody-serve on a scratch port, creates a session, steps it, then
# scrapes GET /metrics and requires the Prometheus exposition to carry the
# per-phase step-time histogram (nbody_step_phase_seconds) that the paper's
# Figure 8 breakdown maps onto. Exercises the real binary, the /v1 API and
# the metrics endpoint together — the parts a unit test stubs out.
set -eu

PORT="${NBODY_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/nbody-serve"
LOG="$(mktemp)"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$LOG"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/nbody-serve

"$BIN" -addr "127.0.0.1:$PORT" -log-format=json >"$LOG" 2>&1 &
SRV_PID=$!

# Wait for readiness.
i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: server did not become ready; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# Create and step a session through the v1 API.
ID=$(curl -fsS -X POST "$BASE/v1/sessions" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":256,"config":{"dt":0.001}}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "obs-smoke: create returned no session id" >&2; exit 1; }
curl -fsS -X POST "$BASE/v1/sessions/$ID/step" \
    -H 'Content-Type: application/json' -d '{"steps":5}' >/dev/null

# The scrape must expose the populated phase histogram and core counters.
METRICS=$(curl -fsS "$BASE/metrics")
for series in \
    'nbody_step_phase_seconds_count{algorithm="octree",phase="force"} 5' \
    'nbody_step_phase_seconds_count{algorithm="octree",phase="build"} 5' \
    'nbody_steps_total 5' \
    'nbody_sessions_created_total 1'; do
    if ! printf '%s\n' "$METRICS" | grep -qF "$series"; then
        echo "obs-smoke: /metrics missing series: $series" >&2
        printf '%s\n' "$METRICS" | grep nbody_ | head -40 >&2
        exit 1
    fi
done

# Error envelope sanity: a missing session answers with the stable code.
CODE=$(curl -s "$BASE/v1/sessions/nope" | sed -n 's/.*"code":"\([^"]*\)".*/\1/p')
[ "$CODE" = "session_not_found" ] || {
    echo "obs-smoke: 404 envelope code '$CODE', want session_not_found" >&2
    exit 1
}

echo "obs-smoke: ok (session $ID, phase histograms populated)"
