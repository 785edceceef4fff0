// Command dpfilld serves DP-fill over HTTP: a long-running daemon that
// accepts fill requests (inline cube matrices or STIL pattern text),
// routes them through the shared concurrent batch engine, caches
// repeated pattern sets, and reports serving statistics.
//
// Usage:
//
//	dpfilld -addr :8080 -workers 8 -cache 512 -data-dir /var/lib/dpfill
//
// Endpoints (see internal/server for the request/response schema):
//
//	POST   /v1/fill      one cube set -> filled set + toggle statistics
//	POST   /v1/batch     many jobs, one engine batch, per-job isolation
//	POST   /v1/pipeline  netlist -> ATPG -> fill -> power, typed report
//	POST   /v1/jobs      submit a batch or pipeline asynchronously -> job ID (202)
//	GET    /v1/jobs      list retained async jobs
//	GET    /v1/jobs/{id} async job status/progress/result
//	DELETE /v1/jobs/{id} cancel an async job
//	GET    /healthz      liveness
//	GET    /stats        jobs served, cache hit rate, p50/p99 latency
//	GET    /metrics      Prometheus scrape
//
// dpfill-coord answers the same /v1/* surface through the same HTTP
// front (internal/server's Front), so a client cannot tell the tiers
// apart by their requests, limits or errors.
// With -data-dir the async job queue is journaled there: a daemon
// killed mid-job re-runs accepted work on restart and answers with the
// same results the lost run would have produced.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, letting in-flight
// requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/debugz"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpfilld:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpfilld", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "engine worker bound (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 256, "result cache entries (negative disables)")
	maxRows := fs.Int("max-rows", 4096, "largest accepted cube count per set")
	maxCols := fs.Int("max-cols", 65536, "largest accepted cube width")
	maxBody := fs.Int64("max-body", 8<<20, "largest accepted request body in bytes")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-job deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "ceiling for requested deadlines")
	grace := fs.Duration("grace", 5*time.Second, "graceful shutdown window")
	accessLog := fs.Bool("access-log", false, "log one structured record per request (with X-Request-ID) to stderr")
	logLevel := fs.String("log-level", "info", "log severity floor: debug, info, warn or error")
	logFormat := fs.String("log-format", "logfmt", "log line encoding: logfmt or json")
	debugAddr := fs.String("debug-addr", "", "serve pprof profiles on this admin address (empty disables)")
	slowThreshold := fs.Duration("slow-threshold", time.Second, "latency SLO: slower /v1/* requests are captured in /stats slow_requests (negative disables)")
	dataDir := fs.String("data-dir", "", "journal async jobs here so they survive restarts (empty = memory only)")
	maxJobs := fs.Int("max-jobs", 256, "largest accepted async job backlog before 429")
	jobRetention := fs.Int("job-retention", 256, "settled async jobs kept queryable")
	jobWorkers := fs.Int("job-workers", 1, "async jobs executed concurrently")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := server.LoggerFromFlags(os.Stderr, *accessLog, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		FrontConfig: server.FrontConfig{
			MaxBodyBytes:  *maxBody,
			ShutdownGrace: *grace,
			Log:           logger,
			SlowThreshold: *slowThreshold,
			DataDir:       *dataDir,
			MaxQueuedJobs: *maxJobs,
			JobRetention:  *jobRetention,
			JobWorkers:    *jobWorkers,
		},
		Workers:        *workers,
		CacheSize:      *cacheSize,
		MaxRows:        *maxRows,
		MaxCols:        *maxCols,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
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
				fmt.Fprintln(os.Stderr, "dpfilld: debug listener:", derr)
			}
		}()
	}
	fmt.Fprintf(stdout, "dpfilld listening on %s (workers=%d cache=%d)\n",
		l.Addr(), *workers, *cacheSize)
	err = srv.Serve(ctx, l)
	if err == nil {
		fmt.Fprintln(stdout, "dpfilld: shut down cleanly")
	}
	return err
}
