package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nbody/internal/simcfg"
)

// TestIdleClassForfeitsBankedCredit is the regression for the smooth-WRR
// credit-buildup bug: a class that accrued credit while queued and then
// went idle (its jobs cancelled or reprioritized away before it ever won
// a round) must NOT bank that credit through the idle stretch. The first
// round it sits out with an empty queue forfeits the balance, so a later
// burst starts from a clean slate instead of jumping the 4:2:1 contract.
func TestIdleClassForfeitsBankedCredit(t *testing.T) {
	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f})

	// Drive the scheduler directly under the manager lock; the queues
	// stay invisible to the workers because queuedN is never raised.
	m.mu.Lock()
	defer m.mu.Unlock()

	// Model the idle aftermath directly: normal and low hold large stale
	// credit with empty queues while high has a backlog.
	m.wrr[ClassNormal] = 40
	m.wrr[ClassLow] = 20
	push := func(class string, n int) {
		for i := 0; i < n; i++ {
			m.queues[class].push(&job{spec: Spec{Class: class}})
		}
	}
	push(ClassHigh, 12)

	// One round with normal/low idle: they sit out and forfeit the bank.
	if got := m.pickClassLocked(); got != ClassHigh {
		t.Fatalf("pick with only high queued = %q", got)
	}
	m.queues[ClassHigh].pop()

	// The burst arrives. Service must follow the steady-state 4:2:1
	// pattern from zero credit, not let the burst ride the stale balance
	// ahead of the high backlog.
	push(ClassNormal, 2)
	push(ClassLow, 1)
	var got []string
	for i := 0; i < 7; i++ {
		c := m.pickClassLocked()
		m.queues[c].pop()
		got = append(got, c)
	}
	want := "high normal high low high normal high"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("post-burst service order %q, want %q", s, want)
	}
}

// TestIdleTenantForfeitsBankedCredit is the same clamp one level down: a
// tenant whose queued jobs vanished before it won a round must not carry
// its credit through the idle stretch and burst ahead of a tenant that
// kept working.
func TestIdleTenantForfeitsBankedCredit(t *testing.T) {
	q := newClassQueue()
	jb := func(tenant, workload string) *job {
		return &job{spec: Spec{Spec: simcfg.Spec{Workload: workload}, Tenant: tenant}}
	}
	// Stale bank: alice accrued credit, then her queue emptied.
	q.wrr["alice"] = 10
	q.push(jb("bob", "b1"))
	q.push(jb("bob", "b2"))
	q.push(jb("bob", "b3"))

	// One bob-only round forfeits alice's balance.
	if j := q.pop(); j.spec.Workload != "b1" {
		t.Fatalf("first pop = %q, want b1", j.spec.Workload)
	}

	q.push(jb("alice", "a1"))
	q.push(jb("alice", "a2"))
	var got []string
	for q.len() > 0 {
		got = append(got, q.pop().spec.Workload)
	}
	// Fair alternation from a clean slate — not a1 a2 back-to-back on the
	// stale credit.
	want := "a1 b2 a2 b3"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("post-burst tenant order %q, want %q", s, want)
	}
}

// TestTenantFairScheduling is the fairness property behind the nested WRR:
// a tenant flooding a class cannot starve another tenant's jobs in the
// same class. The victim's two jobs are serviced by the scheduler's second
// and fourth dequeue even though six flood jobs sit ahead of them in FIFO
// order.
func TestTenantFairScheduling(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{Runner: f, Workers: 1, MaxQueue: 16})

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied

	submit := func(workload, tenant string) {
		s := spec(workload, 1)
		s.Tenant = tenant
		if _, err := m.Submit(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 6; i++ {
		submit(fmt.Sprintf("f%d", i), "flood")
	}
	submit("v1", "victim")
	submit("v2", "victim")
	close(release)

	waitUntil(t, "all jobs to finish", func() bool {
		for _, info := range m.List() {
			if !info.State.Terminal() {
				return false
			}
		}
		return true
	})
	got := strings.Join(f.createdOrder(), " ")
	want := "primer f1 v1 f2 v2 f3 f4 f5 f6"
	if got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
}

// TestTenantQueueQuota: a tenant at its queued-job quota is shed with
// ErrQuotaExceeded carrying an errors.As-discoverable retry hint, other
// tenants keep submitting, and the per-tenant accounting (metrics counter,
// snapshot breakdown) records the rejection.
func TestTenantQueueQuota(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	f := primedRunner(release, started)
	m := newTestManager(t, Config{
		Runner: f, Workers: 1, MaxQueue: 16,
		TenantQueues: map[string]int{"alice": 2, "bob": 2},
	})
	defer close(release)

	if _, err := m.Submit(context.Background(), spec("primer", 1)); err != nil {
		t.Fatal(err)
	}
	<-started

	submit := func(workload, tenant string) (Info, error) {
		s := spec(workload, 1)
		s.Tenant = tenant
		return m.Submit(context.Background(), s)
	}
	for i := 1; i <= 2; i++ {
		if _, err := submit(fmt.Sprintf("a%d", i), "alice"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := submit("a3", "alice")
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit err = %v, want ErrQuotaExceeded", err)
	}
	var rh interface{ RetryAfterSeconds() int }
	if !errors.As(err, &rh) {
		t.Fatalf("quota shed %v carries no retry hint", err)
	}
	if rh.RetryAfterSeconds() < retryAfterMin {
		t.Errorf("RetryAfterSeconds = %d, want >= %d", rh.RetryAfterSeconds(), retryAfterMin)
	}

	// The quota is alice's alone: bob still submits, and the global queue
	// has plenty of room.
	if _, err := submit("b1", "bob"); err != nil {
		t.Fatalf("bob submit after alice's quota shed: %v", err)
	}

	if v := m.ins.tenantRejected.With("alice").Value(); v != 1 {
		t.Errorf("tenantRejected{alice} = %v, want 1", v)
	}
	snap := m.Snapshot()
	if snap.ByTenant["alice"] != 2 || snap.ByTenant["bob"] != 1 {
		t.Errorf("queued_by_tenant = %v, want alice:2 bob:1", snap.ByTenant)
	}
}

// TestSubmitScenario: a job submitted by pack name resolves the pack's
// generator and defaults, echoes the pack name, and rejects the ambiguous
// spelling that mixes a scenario with top-level generator fields.
func TestSubmitScenario(t *testing.T) {
	f := newFakeRunner()
	m := newTestManager(t, Config{Runner: f, Workers: 1})

	s := Spec{
		Spec:  simcfg.Spec{Scenario: &simcfg.Scenario{Name: "plummer", N: 64, Seed: 7}},
		Steps: 5,
	}
	info, err := m.Submit(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if info.Workload != "plummer" || info.N != 64 || info.Seed != 7 {
		t.Errorf("resolved spec = %s/%d/%d, want plummer/64/7", info.Workload, info.N, info.Seed)
	}
	if info.Scenario != "plummer" {
		t.Errorf("scenario echo = %q, want plummer", info.Scenario)
	}
	if info.Config.DT != 1e-3 {
		t.Errorf("pack DT = %g, want 1e-3", info.Config.DT)
	}

	bad := Spec{
		Spec: simcfg.Spec{
			Workload: "plummer", N: 32,
			Scenario: &simcfg.Scenario{Name: "plummer"},
		},
		Steps: 5,
	}
	if _, err := m.Submit(context.Background(), bad); !errors.Is(err, ErrBadRequest) {
		t.Errorf("scenario+workload submit err = %v, want ErrBadRequest", err)
	}

	unknown := Spec{
		Spec:  simcfg.Spec{Scenario: &simcfg.Scenario{Name: "warp-core"}},
		Steps: 5,
	}
	if _, err := m.Submit(context.Background(), unknown); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown pack submit err = %v, want ErrInvalidConfig", err)
	}
}
