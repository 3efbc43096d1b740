GO ?= go

.PHONY: all build vet test race check serve obs-smoke jobs-smoke loadgen-smoke router-smoke chaos-smoke tenants-smoke bench-smoke clean

all: check

# CI is amd64 only: the arm64 cross-build and vet are what compile the
# portable side of internal/soa's kernel split.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/soa/

test:
	$(GO) test ./...

# The serve and core packages carry the concurrency-heavy session-manager
# and cancellation tests; -race over the whole tree covers them and the
# parallel substrate.
race:
	$(GO) test -race ./...

check: vet build test race

serve:
	$(GO) run ./cmd/nbody-serve

# Boots the real nbody-serve binary, steps a session through the /v1 API
# and asserts that GET /metrics exposes the populated per-phase step-time
# histograms (see scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

# Boots the real binary with the batch job queue enabled, runs a job to
# completion through /v1/jobs and asserts the artifacts, the job metrics
# on /metrics and the durable job record (see scripts/jobs_smoke.sh).
jobs-smoke:
	./scripts/jobs_smoke.sh

# Boots the real binary and drives ~5 seconds of mixed session-step /
# job-submit / watch traffic through cmd/nbody-loadgen (and so through
# the client SDK), printing the service-level JSON report and failing on
# any server 5xx (see scripts/loadgen_smoke.sh).
loadgen-smoke:
	./scripts/loadgen_smoke.sh

# Boots two nbody-serve replicas behind nbody-router, places sessions on
# both shards through the router, drains one shard and asserts its queued
# job hands off to the survivor with the routing metrics populated (see
# scripts/router_smoke.sh).
router-smoke:
	./scripts/router_smoke.sh

# Boots two replicas behind the router with one shard fronted by the
# nbody-chaos fault injector and asserts what only real processes show:
# the binaries boot with their resilience flags, the /_chaos/ control API
# answers and counts a scripted fault, a client X-NBody-Deadline header
# cuts a slow shard loose, and SIGTERM exits 0. The breaker, exactly-once
# and degraded-listing contracts live in internal/chaos/e2e_test.go (see
# scripts/chaos_smoke.sh).
chaos-smoke:
	./scripts/chaos_smoke.sh

# Boots the real binary with a two-tenant keyfile and asserts the tenant
# boundary end to end: 401 envelope + challenge, per-key X-NBody-Tenant
# stamping, per-tenant session quota 429s with Retry-After, a scenario
# job by pack name attributed to its tenant, and the per-tenant metric
# series on /metrics (see scripts/tenants_smoke.sh).
tenants-smoke:
	./scripts/tenants_smoke.sh

# Short N=2048 seq-vs-par benchmark pass over both force layouts with the
# race detector on — a correctness smoke for the nbody-bench harness and
# the flat kernels, not a performance measurement (see
# scripts/bench_smoke.sh).
bench-smoke:
	./scripts/bench_smoke.sh

clean:
	$(GO) clean ./...
