// Command nbody-router runs the horizontal-sharding tier: a stateless
// proxy that partitions sessions and batch jobs across N nbody-serve
// replicas by consistent hashing on the session/job ID, with per-shard
// health probing, read failover, and graceful shard drain with queued-job
// handoff.
//
// Examples:
//
//	nbody-serve  -addr :8081 -shard-id a &
//	nbody-serve  -addr :8082 -shard-id b &
//	nbody-router -addr :8080 -shard a=http://127.0.0.1:8081 -shard b=http://127.0.0.1:8082
//	curl -s localhost:8080/v1/sessions -d '{"workload":"plummer","n":2048,"config":{"dt":1e-3}}'
//	curl -s localhost:8080/v1/shards
//	curl -s -X POST localhost:8080/v1/shards/a/drain
//
// See the README "Sharding & routing" section and DESIGN.md §11.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nbody/internal/obs"
	"nbody/internal/router"
)

// shardFlags collects repeated -shard name=url flags.
type shardFlags []router.ShardConfig

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sc := range *s {
		parts[i] = sc.Name + "=" + sc.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, router.ShardConfig{Name: name, URL: url})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nbody-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var shards shardFlags
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		vnodes        = flag.Int("virtual-nodes", router.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "shard health probe period")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe round-trip budget")
		failAfter     = flag.Int("fail-after", 3, "consecutive probe failures before a shard is down")
		passAfter     = flag.Int("pass-after", 2, "consecutive probe successes before a down shard is up")
		cacheSize     = flag.Int("cache-size", 8192, "ID-to-shard location cache entries")
		drain         = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		proxyTimeout  = flag.Duration("proxy-timeout", 15*time.Second, "per-request budget for proxied non-streaming requests, propagated to shards as X-NBody-Deadline (0 = unlimited)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge an idempotent read to the next candidate shard when the first has not answered within this delay (0 = no hedging)")
		brkFailures   = flag.Int("breaker-failures", 5, "consecutive forwarding failures that open a shard's circuit breaker")
		brkCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker sheds before admitting a half-open trial request")
		brkLatency    = flag.Duration("breaker-latency", 0, "treat a forwarded response slower than this as a breaker failure (0 = status/transport errors only)")
	)
	flag.Var(&shards, "shard", "shard as name=url (repeatable, at least one)")
	flag.Parse()

	if *addr == "" {
		return errors.New("-addr must not be empty")
	}
	if len(shards) == 0 {
		return errors.New("at least one -shard name=url is required")
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain-timeout must be > 0 (got %v)", *drain)
	}

	ob, err := obs.NewObserver(os.Stderr, *logFormat, obs.DefaultTraceCapacity)
	if err != nil {
		return err
	}

	// The flag's 0 means "no cap"; the Config's 0 means "default 15s", so
	// translate to the Config's negative-disables convention.
	proxyBudget := *proxyTimeout
	if proxyBudget == 0 {
		proxyBudget = -1
	}
	rt, err := router.New(router.Config{
		Shards:          shards,
		VirtualNodes:    *vnodes,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		FailAfter:       *failAfter,
		PassAfter:       *passAfter,
		CacheSize:       *cacheSize,
		ProxyTimeout:    proxyBudget,
		HedgeAfter:      *hedgeAfter,
		BreakerFailures: *brkFailures,
		BreakerCooldown: *brkCooldown,
		BreakerLatency:  *brkLatency,
		Obs:             ob,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("routing %d shard(s) on %s (%s)", len(shards), *addr, shards.String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// The router holds no durable state: drain is just letting in-flight
	// proxied requests (including open watch streams) finish writing.
	log.Printf("signal received, draining (budget %v)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
