// Command served runs the experiment registry as an HTTP service: jobs are
// POSTed as JSON (the same strict wire configs the CLIs use), queued into a
// bounded work queue, fanned across runner pools with panic isolation and
// per-job timeouts, and every job of a warm-capable study forks its
// convergence prefix from a shared LRU snapshot cache, so concurrent sweeps
// that share a prefix converge once.
//
// Usage:
//
//	served [-addr :8080] [-workers N] [-queue N] [-point-parallel N]
//	       [-cache-entries N] [-max-points N]
//	       [-job-timeout 0] [-state-dir DIR]
//
// -state-dir persists every finished job's status and result envelopes as
// JSON under DIR; a restarted server loads the newest 64 back so GET
// /v1/jobs/{id} and GET /v1/jobs/{id}/result keep answering for jobs that
// completed before the restart, and new job IDs continue past the
// persisted ones. Running or not, the server keeps only the newest 64
// finished jobs in memory; older ids answer 410 Gone.
//
// -addr :0 binds an ephemeral port; the bound address is printed on stdout
// as "listening on <addr>" either way, so scripts can scrape it.
//
// API:
//
//	GET    /v1/experiments            registry listing with default configs
//	POST   /v1/jobs                   submit {experiment, config, seed, points}
//	GET    /v1/jobs                   list jobs
//	GET    /v1/jobs/{id}              job status
//	DELETE /v1/jobs/{id}              cancel a queued or running job
//	GET    /v1/jobs/{id}/result       versioned result envelopes (409 until done)
//	GET    /v1/jobs/{id}/metrics      obs metrics snapshot as JSONL
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gptpfta/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "served:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 2, "number of jobs executed concurrently")
	queue := fs.Int("queue", 16, "bounded job queue depth (full queue answers 503)")
	pointParallel := fs.Int("point-parallel", 1, "worker count of each job's point pool")
	cacheEntries := fs.Int("cache-entries", 8, "warm-snapshot LRU entry bound (-1 = unbounded)")
	maxPoints := fs.Int("max-points", 64, "cap on a single job's point fan-out")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job execution timeout (0 = none)")
	stateDir := fs.String("state-dir", "", "persist finished jobs as JSON here and reload them on restart")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := serve.New(serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		PointParallel:  *pointParallel,
		CacheEntries:   *cacheEntries,
		MaxPoints:      *maxPoints,
		DefaultTimeout: *jobTimeout,
		StateDir:       *stateDir,
	})
	s.Start()
	defer s.Stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
	}

	// Graceful drain: stop accepting connections, finish in-flight
	// requests, then cancel running jobs via the deferred s.Stop.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
