#!/usr/bin/env sh
# jobs_smoke.sh — end-to-end batch-job smoke test.
#
# Boots the real nbody-serve binary with a scratch state directory, submits
# a batch job through POST /v1/jobs, waits for it to succeed, downloads
# both artifacts, and asserts that GET /metrics exposes the job queue's
# series (queue depth, per-class wait/run histograms, retry counter) and
# that the error envelope carries the stable job_not_found code.
set -eu

PORT="${NBODY_SMOKE_PORT:-18081}"
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

"$BIN" -addr "127.0.0.1:$PORT" -log-format=json \
    -state-dir "$WORK/state" -job-workers 2 -job-chunk 50 >"$LOG" 2>&1 &
SRV_PID=$!

i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "jobs-smoke: server did not become ready; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# Submit a high-class batch job: 120 steps in 50-step checkpoint chunks.
ID=$(curl -fsS -X POST "$BASE/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"workload":"plummer","n":256,"config":{"dt":0.001},"steps":120,"class":"high"}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || { echo "jobs-smoke: submit returned no job id" >&2; exit 1; }

# Poll until the job reaches a terminal state.
i=0
while :; do
    STATE=$(curl -fsS "$BASE/v1/jobs/$ID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [ "$STATE" = "succeeded" ] && break
    case "$STATE" in
    failed | cancelled)
        echo "jobs-smoke: job $ID finished $STATE" >&2
        curl -s "$BASE/v1/jobs/$ID" >&2
        exit 1
        ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "jobs-smoke: job $ID stuck in '$STATE'; log:" >&2
        tail -20 "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

# Artifacts: the binary snapshot (magic NBODYSNP) and the CSV trace.
curl -fsS "$BASE/v1/jobs/$ID/snapshot" -o "$WORK/final.nbsnap"
head -c 8 "$WORK/final.nbsnap" | grep -q NBODYSNP || {
    echo "jobs-smoke: snapshot artifact lacks the NBODYSNP magic" >&2
    exit 1
}
curl -fsS "$BASE/v1/jobs/$ID/trace" | head -1 | grep -q step || {
    echo "jobs-smoke: trace artifact has no CSV header" >&2
    exit 1
}

# The scrape must expose the job queue's series, populated by the run.
METRICS=$(curl -fsS "$BASE/metrics")
for series in \
    'nbody_jobs_queue_depth{class="high"} 0' \
    'nbody_jobs_submitted_total{class="high"} 1' \
    'nbody_jobs_finished_total{state="succeeded"} 1' \
    'nbody_job_wait_seconds_count{class="high"} 1' \
    'nbody_job_run_seconds_count{class="high"} 1' \
    'nbody_jobs_running 0' \
    'nbody_job_retries_total 0'; do
    if ! printf '%s\n' "$METRICS" | grep -qF "$series"; then
        echo "jobs-smoke: /metrics missing series: $series" >&2
        printf '%s\n' "$METRICS" | grep nbody_job | head -40 >&2
        exit 1
    fi
done

# Error envelope sanity: a missing job answers with the stable code.
CODE=$(curl -s "$BASE/v1/jobs/nope" | sed -n 's/.*"code":"\([^"]*\)".*/\1/p')
[ "$CODE" = "job_not_found" ] || {
    echo "jobs-smoke: 404 envelope code '$CODE', want job_not_found" >&2
    exit 1
}

# The job record survived in the state directory's jobs/ store.
ls "$WORK/state/jobs/$ID.json" >/dev/null 2>&1 || {
    echo "jobs-smoke: no durable job record at state/jobs/$ID.json" >&2
    exit 1
}

echo "jobs-smoke: ok (job $ID succeeded, artifacts and job metrics verified)"
