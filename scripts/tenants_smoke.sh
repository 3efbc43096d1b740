#!/usr/bin/env sh
# tenants_smoke.sh — end-to-end multi-tenant smoke test.
#
# Boots the real nbody-serve binary with a two-tenant keyfile, then
# asserts the tenant boundary over plain HTTP: unauthenticated and
# wrong-key requests answer 401 with the stable envelope and a challenge,
# each key is stamped with its own X-NBody-Tenant, the per-tenant session
# quota sheds with a 429 + Retry-After while the other tenant keeps
# working, a scenario-pack job submitted by name runs to completion
# attributed to its tenant, and GET /metrics exposes the per-tenant
# series.
set -eu

PORT="${NBODY_SMOKE_PORT:-18084}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
BIN="$WORK/nbody-serve"
LOG="$WORK/serve.log"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/nbody-serve

# Two tenants: alice capped at one live session, bob unconstrained.
cat >"$WORK/tenants.json" <<'EOF'
[
  {"name": "alice", "key": "smoke-key-alice", "max_sessions": 1},
  {"name": "bob", "key": "smoke-key-bob", "max_queued_jobs": 4}
]
EOF

"$BIN" -addr "127.0.0.1:$PORT" -log-format=json \
    -tenants "$WORK/tenants.json" -job-workers 1 >"$LOG" 2>&1 &
SRV_PID=$!

i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "tenants-smoke: server did not become ready; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# No key: 401 with the stable envelope code and a bearer challenge.
RESP=$(curl -s -i "$BASE/v1/sessions")
printf '%s\n' "$RESP" | grep -q "401" || {
    echo "tenants-smoke: unauthenticated request did not answer 401" >&2
    exit 1
}
printf '%s\n' "$RESP" | grep -qi 'WWW-Authenticate: Bearer' || {
    echo "tenants-smoke: 401 lacks the WWW-Authenticate challenge" >&2
    exit 1
}
printf '%s\n' "$RESP" | grep -q '"code":"unauthorized"' || {
    echo "tenants-smoke: 401 envelope lacks code=unauthorized" >&2
    exit 1
}

# A wrong key gets the same 401 — the envelope must not leak whether the
# key exists.
curl -s -H 'Authorization: Bearer nope' "$BASE/v1/sessions" |
    grep -q '"code":"unauthorized"' || {
    echo "tenants-smoke: wrong key did not answer the unauthorized envelope" >&2
    exit 1
}

# alice creates her one allowed session; the response is stamped with her
# tenant.
RESP=$(curl -fsS -i -X POST "$BASE/v1/sessions" \
    -H 'Authorization: Bearer smoke-key-alice' \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}')
printf '%s\n' "$RESP" | grep -qi 'X-NBody-Tenant: alice' || {
    echo "tenants-smoke: create response lacks X-NBody-Tenant: alice" >&2
    exit 1
}

# Her second create trips the per-tenant session quota: 429, the quota
# envelope, and a Retry-After hint.
RESP=$(curl -s -i -X POST "$BASE/v1/sessions" \
    -H 'Authorization: Bearer smoke-key-alice' \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}')
printf '%s\n' "$RESP" | grep -q "429" || {
    echo "tenants-smoke: over-quota create did not answer 429" >&2
    printf '%s\n' "$RESP" >&2
    exit 1
}
printf '%s\n' "$RESP" | grep -q '"code":"quota_exceeded"' || {
    echo "tenants-smoke: over-quota envelope lacks code=quota_exceeded" >&2
    exit 1
}
printf '%s\n' "$RESP" | grep -qi 'Retry-After:' || {
    echo "tenants-smoke: over-quota 429 lacks Retry-After" >&2
    exit 1
}

# The quota is alice's alone: bob still creates.
curl -fsS -X POST "$BASE/v1/sessions" \
    -H 'Authorization: Bearer smoke-key-bob' \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":64,"config":{"dt":0.001}}' >/dev/null || {
    echo "tenants-smoke: bob's create failed during alice's quota shed" >&2
    exit 1
}

# Scenario packs are listed and submittable by name: bob runs a small
# plummer-pack job to completion.
curl -fsS -H 'Authorization: Bearer smoke-key-bob' "$BASE/v1/scenarios" |
    grep -q '"name":"tsne-embedding"' || {
    echo "tenants-smoke: /v1/scenarios does not list tsne-embedding" >&2
    exit 1
}
ID=$(curl -fsS -X POST "$BASE/v1/jobs" \
    -H 'Authorization: Bearer smoke-key-bob' \
    -H 'Content-Type: application/json' \
    -d '{"scenario":{"name":"plummer","n":128,"seed":7},"steps":20}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "tenants-smoke: scenario job submit returned no id" >&2; exit 1; }

i=0
while :; do
    REC=$(curl -fsS -H 'Authorization: Bearer smoke-key-bob' "$BASE/v1/jobs/$ID")
    STATE=$(printf '%s\n' "$REC" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$STATE" = "succeeded" ] && break
    case "$STATE" in
    failed | cancelled)
        echo "tenants-smoke: scenario job $ID finished $STATE" >&2
        printf '%s\n' "$REC" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "tenants-smoke: scenario job $ID stuck in '$STATE'; log:" >&2
        tail -20 "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done
printf '%s\n' "$REC" | grep -q '"tenant":"bob"' || {
    echo "tenants-smoke: job record lacks tenant attribution: $REC" >&2
    exit 1
}
printf '%s\n' "$REC" | grep -q '"scenario":"plummer"' || {
    echo "tenants-smoke: job record lacks the scenario echo: $REC" >&2
    exit 1
}

# The scrape carries the per-tenant series, populated by the traffic
# above; the scrape itself stays auth-exempt.
METRICS=$(curl -fsS "$BASE/metrics")
for series in \
    'nbody_tenant_requests_total{tenant="alice"}' \
    'nbody_tenant_requests_total{tenant="bob"}' \
    'nbody_tenant_sessions{tenant="alice"} 1' \
    'nbody_tenant_rejected_total{tenant="alice",kind="session"} 1' \
    'nbody_tenant_rejected_total{tenant="unknown",kind="auth"}' \
    'nbody_jobs_tenant_queued{tenant="bob"}'; do
    if ! printf '%s\n' "$METRICS" | grep -qF "$series"; then
        echo "tenants-smoke: /metrics missing series: $series" >&2
        printf '%s\n' "$METRICS" | grep -E 'nbody_(tenant|jobs_tenant)' >&2
        exit 1
    fi
done

echo "tenants-smoke: ok (auth boundary, session quota, scenario job, tenant metrics verified)"
