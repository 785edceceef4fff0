// Command dpfill-coord runs the fill-cluster coordinator: a daemon
// that shards /v1/batch workloads across a fleet of dpfilld workers,
// health-checks them by heartbeat, retries failed shards on other
// workers, and serves the same /v1/* API the workers do — callers
// never learn the topology.
//
// Usage:
//
//	dpfill-coord -addr :8090 \
//	    -worker http://fill-1:8080 -worker http://fill-2:8080 \
//	    -heartbeat 2s -shard-size 16 -hedge-after 500ms
//
// Endpoints:
//
//	POST   /v1/fill      one cube set, routed to its cache-affinity or least-loaded worker
//	POST   /v1/batch     many jobs, sharded across the fleet
//	POST   /v1/pipeline  one pipeline run, ATPG fault shards fanned across the fleet
//	POST   /v1/jobs      submit a batch or pipeline asynchronously -> job ID (202)
//	GET    /v1/jobs      list retained async jobs
//	GET    /v1/jobs/{id} async job status/progress/result
//	DELETE /v1/jobs/{id} cancel an async job
//	GET    /healthz      coordinator liveness + admitted worker count
//	GET    /stats        fleet view: shards, retries, hedges, per-worker load
//	GET    /metrics      Prometheus scrape
//
// The /v1/* endpoints are dpfilld's own HTTP front (internal/server's
// Front) over the fleet dispatcher: the same decoding, limits and
// error statuses, with a worker's error answer passed through verbatim.
// Async jobs shard across the fleet exactly like synchronous requests;
// with -data-dir they are journaled and survive a coordinator restart.
//
// With no reachable workers the coordinator answers on a local
// in-process engine unless -fallback=false. The daemon shuts down
// gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/debugz"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpfill-coord:", err)
		os.Exit(1)
	}
}

// workersFlag accumulates -worker values: the flag is repeatable and
// each value may hold a comma-separated URL list.
type workersFlag []string

func (w *workersFlag) String() string { return strings.Join(*w, ",") }
func (w *workersFlag) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*w = append(*w, part)
		}
	}
	return nil
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpfill-coord", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	var workers workersFlag
	fs.Var(&workers, "worker", "dpfilld worker base URL (repeatable, comma-separable)")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "worker health-check interval")
	hbTimeout := fs.Duration("heartbeat-timeout", time.Second, "per-worker health-check deadline")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive failed heartbeats before ejecting a worker")
	shardSize := fs.Int("shard-size", 16, "batch jobs per worker shard")
	attempts := fs.Int("attempts", 3, "distinct workers tried per shard before giving up")
	hedgeAfter := fs.Duration("hedge-after", 0, "duplicate a shard on another worker after this long (0 disables)")
	noAffinity := fs.Bool("no-affinity", false, "disable warm-cache routing: dispatch least-loaded instead of by request hash")
	attemptTimeout := fs.Duration("attempt-timeout", 3*time.Minute, "per-worker answer deadline before a shard fails over (hung-worker guard)")
	fallback := fs.Bool("fallback", true, "run jobs on a local in-process engine when no worker is reachable")
	localWorkers := fs.Int("fallback-workers", 0, "local fallback engine worker bound (0 = GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
	maxBatch := fs.Int("max-batch", 256, "largest accepted job count per batch")
	grace := fs.Duration("grace", 5*time.Second, "graceful shutdown window")
	accessLog := fs.Bool("access-log", false, "log one structured record per request (with X-Request-ID) to stderr")
	logLevel := fs.String("log-level", "info", "log severity floor: debug, info, warn or error")
	logFormat := fs.String("log-format", "logfmt", "log line encoding: logfmt or json")
	debugAddr := fs.String("debug-addr", "", "serve pprof profiles on this admin address (empty disables)")
	slowThreshold := fs.Duration("slow-threshold", time.Second, "latency SLO: slower /v1/* requests are captured in /stats slow_requests (negative disables)")
	dataDir := fs.String("data-dir", "", "journal async jobs here so they survive restarts (empty = memory only)")
	maxJobs := fs.Int("max-jobs", 256, "largest accepted async job backlog before 429")
	jobRetention := fs.Int("job-retention", 256, "settled async jobs kept queryable")
	jobWorkers := fs.Int("job-workers", 1, "async jobs dispatched concurrently")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := server.LoggerFromFlags(os.Stderr, *accessLog, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	co, err := cluster.New(cluster.Config{
		FrontConfig: server.FrontConfig{
			MaxBodyBytes:  *maxBody,
			MaxBatchJobs:  *maxBatch,
			ShutdownGrace: *grace,
			Log:           logger,
			SlowThreshold: *slowThreshold,
			DataDir:       *dataDir,
			MaxQueuedJobs: *maxJobs,
			JobRetention:  *jobRetention,
			JobWorkers:    *jobWorkers,
		},
		Workers: workers,
		Registry: cluster.RegistryConfig{
			HeartbeatInterval: *heartbeat,
			HeartbeatTimeout:  *hbTimeout,
			FailThreshold:     *failThreshold,
		},
		ShardSize:       *shardSize,
		MaxAttempts:     *attempts,
		HedgeAfter:      *hedgeAfter,
		AttemptTimeout:  *attemptTimeout,
		DisableFallback: !*fallback,
		DisableAffinity: *noAffinity,
		Local:           server.Config{Workers: *localWorkers},
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		go func() {
			if derr := debugz.ListenAndServe(ctx, *debugAddr); derr != nil {
				fmt.Fprintln(os.Stderr, "dpfill-coord: debug listener:", derr)
			}
		}()
	}
	fmt.Fprintf(stdout, "dpfill-coord listening on %s (workers=%d shard-size=%d fallback=%v)\n",
		l.Addr(), len(workers), *shardSize, *fallback)
	err = co.Serve(ctx, l)
	if err == nil {
		fmt.Fprintln(stdout, "dpfill-coord: shut down cleanly")
	}
	return err
}
