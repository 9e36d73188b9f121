// Command fsmemd is the simulation-as-a-service daemon: an HTTP/JSON
// API over the fsmem simulator with a bounded job queue, a
// content-addressed result cache, SSE progress streaming, and
// production plumbing (rate limiting, health/readiness probes, a
// Prometheus-style /metrics endpoint, graceful drain on SIGTERM).
//
// Usage:
//
//	fsmemd                          # listen on :8377
//	fsmemd -addr :9000 -j 8         # 8 executor workers
//	fsmemd -queue 128 -cache 1024   # deeper queue, bigger result cache
//	fsmemd -rate 200 -burst 400     # submission token bucket
//	fsmemd -data-dir /var/lib/fsmemd   # crash-safe: job journal + result store
//	fsmemd -data-dir d -quarantine-after 5   # park poison jobs after 5 crashes
//
// Cluster mode (see README "Cluster" and DESIGN.md §12):
//
//	fsmemd -role coordinator -workers http://h1:8377,http://h2:8377
//	fsmemd -role worker -addr :8377 -join http://coord:8376
//	fsmemd -role coordinator -verify-sample 0.1   # re-run 10% of jobs on a
//	                                              # second worker and byte-diff
//
// A coordinator serves the same job API a single daemon does, but
// consistent-hash-routes each content-addressed job ID across the
// registered worker fleet, re-serves finished results from a local
// cache, heartbeats the fleet, steals work off unhealthy workers, and
// transparently retries on another worker (idempotent, because job IDs
// are content-addressed and execution is byte-deterministic). A worker
// is a plain daemon that additionally registers itself with -join.
//
// Endpoints:
//
//	POST   /v1/jobs                 submit a job (simulate, figures, leakage, chaos, audit)
//	GET    /v1/jobs/{id}            job status
//	GET    /v1/jobs/{id}/result     canonical JSON result document
//	GET    /v1/jobs/{id}/events     SSE progress stream (single daemon)
//	GET    /v1/jobs/{id}/trace      command trace (observed jobs; single daemon)
//	DELETE /v1/jobs/{id}            cancel (single daemon)
//	GET    /v1/cluster              fleet status (coordinator)
//	POST   /v1/cluster/register     join the fleet (coordinator)
//	GET    /healthz /readyz /metrics
//
// On SIGTERM or SIGINT the daemon (or coordinator) drains: new
// submissions get 503, queued and in-flight jobs run to completion
// (bounded by -drain-timeout), the API keeps answering until each of
// those jobs has had its terminal state read once (at most 5s more),
// then the process exits 0.
//
// With -data-dir the daemon is crash-safe: every accepted job is
// journaled (write-ahead) before it becomes runnable and every finished
// result is persisted to a checksummed content-addressed store, so a
// SIGKILLed daemon restarted over the same directory re-serves done
// results byte-identically, re-runs interrupted jobs (re-execution is
// byte-deterministic), and quarantines jobs that keep crashing the
// executor instead of crash-looping.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fsmem/internal/obs"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
	"fsmem/internal/server/cluster"
)

func main() {
	addr := flag.String("addr", "", "listen address (default :8377, coordinator :8376)")
	role := flag.String("role", "worker", "worker (a plain daemon, optionally joining a fleet) or coordinator")
	join := flag.String("join", "", "coordinator base URL to register this worker with")
	advertise := flag.String("advertise", "", "base URL this worker advertises to the fleet (default derived from -addr)")
	workersList := flag.String("workers", "", "comma-separated worker base URLs for the initial fleet (coordinator)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "fleet heartbeat interval (coordinator)")
	failAfter := flag.Int("fail-after", 2, "consecutive failed heartbeats before a worker is unhealthy (coordinator)")
	window := flag.Int("window", 8, "per-worker in-flight job window (coordinator)")
	maxAttempts := flag.Int("max-attempts", 8, "workers to try per job before giving up (coordinator)")
	verifySample := flag.Float64("verify-sample", 0, "fraction of finished jobs re-executed on a second worker and byte-compared (coordinator)")
	workers := flag.Int("j", 0, "executor workers (0 = GOMAXPROCS)")
	gridShards := flag.Int("grid-shards", 0, "per-job simulation grid shard width (0 = -j)")
	queue := flag.Int("queue", 64, "bounded queue depth per priority level (coordinator: live-job cap)")
	cache := flag.Int("cache", 256, "result cache capacity in entries")
	rate := flag.Float64("rate", 50, "submission rate limit (jobs/second)")
	burst := flag.Float64("burst", 0, "submission burst size (0 = rate)")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request handling timeout (non-streaming endpoints)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-drain budget on SIGTERM")
	dataDir := flag.String("data-dir", "", "durability directory (job journal + disk result store; empty = in-memory only)")
	quarantineAfter := flag.Int("quarantine-after", 3, "executor crashes before a job is quarantined")
	pidfile := flag.String("pidfile", "", "write the daemon PID to this file")
	startProf := obs.ProfileFlags(flag.CommandLine, "fsmemd")
	flag.Parse()

	stopProf, err := startProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsmemd:", err)
		os.Exit(2)
	}

	if *pidfile != "" {
		if err := os.WriteFile(*pidfile, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fsmemd:", err)
			os.Exit(2)
		}
		defer os.Remove(*pidfile)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	switch *role {
	case "coordinator":
		if *addr == "" {
			*addr = ":8376"
		}
		var fleet []string
		for _, w := range strings.Split(*workersList, ",") {
			if w = strings.TrimSpace(w); w != "" {
				fleet = append(fleet, w)
			}
		}
		fmt.Fprintf(os.Stderr, "fsmemd: coordinator listening on %s (%d workers)\n", *addr, len(fleet))
		err = cluster.Serve(ctx, cluster.Options{
			Addr:              *addr,
			Workers:           fleet,
			HeartbeatInterval: *heartbeat,
			FailAfter:         *failAfter,
			Window:            *window,
			MaxAttempts:       *maxAttempts,
			VerifySample:      *verifySample,
			CacheEntries:      *cache,
			QueueDepth:        *queue,
			RequestTimeout:    *reqTimeout,
			DrainTimeout:      *drainTimeout,
		})
	case "worker":
		if *addr == "" {
			*addr = ":8377"
		}
		name := *advertise
		if name == "" && *join != "" {
			name = advertiseURL(*addr)
		}
		if *join != "" {
			go register(ctx, *join, name)
		}
		fmt.Fprintf(os.Stderr, "fsmemd: listening on %s\n", *addr)
		err = server.Serve(ctx, server.Options{
			Addr:            *addr,
			Workers:         *workers,
			GridShards:      *gridShards,
			QueueDepth:      *queue,
			CacheEntries:    *cache,
			RatePerSec:      *rate,
			Burst:           *burst,
			RequestTimeout:  *reqTimeout,
			DrainTimeout:    *drainTimeout,
			DataDir:         *dataDir,
			QuarantineAfter: *quarantineAfter,
			WorkerName:      name,
		})
	default:
		fmt.Fprintf(os.Stderr, "fsmemd: unknown -role %q (worker or coordinator)\n", *role)
		os.Exit(2)
	}
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsmemd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fsmemd: drained cleanly")
}

// advertiseURL derives the URL other nodes should dial from a listen
// address: ":8377" has no host, so loopback is assumed (use -advertise
// for multi-host fleets).
func advertiseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// register joins the coordinator's fleet, retrying until it succeeds
// (the coordinator may still be booting) or ctx ends.
func register(ctx context.Context, coordinator, name string) {
	cl := client.New(coordinator, nil)
	for {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := cl.Register(rctx, name)
		cancel()
		if err == nil {
			fmt.Fprintf(os.Stderr, "fsmemd: registered %s with %s\n", name, coordinator)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}
