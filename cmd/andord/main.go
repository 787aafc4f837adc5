// Command andord serves the AND/OR power-aware scheduler over HTTP/JSON.
//
// The daemon compiles applications once (per-worker plan-cache shards;
// the owning worker serializes the compiles of its keys) and executes runs
// on a bounded worker pool of zero-allocation simulation arenas. See
// docs/SERVER.md for the API.
//
// Usage:
//
//	andord [-addr :8080] [-workers N] [-queue N] [-cache N]
//	       [-timeout 15s] [-max-body 1048576] [-max-runs 100000]
//	       [-tenant-rate 0] [-tenant-burst N] [-tenant-inflight N]
//	       [-tenant-run-rate N] [-tenant-run-burst N]
//	       [-tenant-header X-API-Key] [-tenant-by-ip] [-max-batch 256]
//	       [-trace-off] [-trace-ring 256] [-trace-slowest 8]
//
// The serve path is shared-nothing: every pool worker owns a private
// plan-cache shard and schedule-cache shard, and compiles are routed to
// the owning worker by content digest (see docs/SERVER.md).
//
// Per-tenant admission control is off by default; -tenant-rate > 0
// enables it. Tenants are identified by the -tenant-header request
// header, falling back to the remote IP (-tenant-by-ip forces IP keying).
//
// Request tracing is on by default: every request carries an X-Trace-Id
// and recent/slowest traces are browsable at /debug/requests (see
// docs/OBSERVABILITY.md). -trace-off disables it; -trace-ring and
// -trace-slowest size the flight recorder's retention.
//
// SIGINT/SIGTERM drain gracefully: the listener closes first, in-flight
// requests complete, then the worker pool stops.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"andorsched/internal/serve"
	"andorsched/internal/serve/tenant"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue bound; beyond it requests get 429")
	cache := flag.Int("cache", 128, "plan cache capacity (compiled applications)")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request timeout")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	maxRuns := flag.Int("max-runs", 100000, "largest runs count a single request may ask for")
	maxProcs := flag.Int("max-procs", 64, "largest processor count a single request may ask for (hetero platform specs included)")
	maxBatch := flag.Int("max-batch", 256, "largest item count a /v1/batch request may carry")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant requests/sec (0 = admission control off)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant request burst (0 = rate, min 1)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant concurrent request cap (0 = unlimited)")
	tenantRunRate := flag.Float64("tenant-run-rate", 0, "per-tenant Monte-Carlo runs/sec budget (0 = unlimited)")
	tenantRunBurst := flag.Float64("tenant-run-burst", 0, "per-tenant run burst (0 = 10x run rate)")
	tenantHeader := flag.String("tenant-header", "X-API-Key", "request header identifying the tenant")
	tenantByIP := flag.Bool("tenant-by-ip", false, "key tenants by remote IP, ignoring the header")
	traceOff := flag.Bool("trace-off", false, "disable request tracing and /debug/requests")
	traceRing := flag.Int("trace-ring", 0, "flight-recorder ring size (0 = default 256)")
	traceSlowest := flag.Int("trace-slowest", 0, "slowest traces retained per endpoint (0 = default 8)")
	flag.Parse()

	s := serve.New(serve.Config{
		Workers:        *workers,
		QueueSize:      *queue,
		CacheSize:      *cache,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxRuns:        *maxRuns,
		MaxProcs:       *maxProcs,
		MaxBatchItems:  *maxBatch,
		Trace: serve.TraceConfig{
			Disabled:           *traceOff,
			RingSize:           *traceRing,
			SlowestPerEndpoint: *traceSlowest,
		},
		Tenant: tenant.Config{
			Enabled:        *tenantRate > 0,
			KeyHeader:      *tenantHeader,
			ByIPOnly:       *tenantByIP,
			RequestsPerSec: *tenantRate,
			Burst:          *tenantBurst,
			MaxInflight:    *tenantInflight,
			RunsPerSec:     *tenantRunRate,
			RunBurst:       *tenantRunBurst,
		},
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("andord: %v", err)
	}
	log.Printf("andord: listening on %s (workers=%d queue=%d cache=%d)",
		l.Addr(), *workers, *queue, *cache)

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("andord: %s, draining (grace %s)", got, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("andord: drain incomplete: %v", err)
			os.Exit(1)
		}
		<-errc // http.ErrServerClosed
		log.Print("andord: drained cleanly")
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "andord: %v\n", err)
			os.Exit(1)
		}
	}
}
