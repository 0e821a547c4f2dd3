// Command bceworker is the worker half of a distributed sweep: it
// serves batches of timing simulations over HTTP for a coordinating
// bcetables -workers-remote invocation (see docs/distributed.md).
//
// Usage:
//
//	bceworker -addr 127.0.0.1:8371                  # serve
//	bceworker -addr 127.0.0.1:8371 -cache .cache/w1 # with a persistent result cache
//	bceworker -addr 127.0.0.1:8371 -debug-addr localhost:6061
//
// A worker is stateless between batches apart from its result cache:
// killing one mid-sweep loses only in-flight work, and the coordinator
// requeues the unfinished batch for the surviving workers. Re-delivered
// jobs whose results are already in the worker's cache are served, not
// re-simulated.
//
// The API port also answers /healthz (liveness), /readyz (flips to 503
// once shutdown begins, so health checkers stop routing to a draining
// worker), and /metrics (Prometheus text format).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/manifest"
	"bce/internal/runner"
	"bce/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8371", "address to serve the worker API on (host:port; port 0 picks a free one, printed on stderr)")
		name      = flag.String("name", "", "worker name stamped on replies and manifests (default: the listen address)")
		workers   = flag.Int("workers", 0, "parallel simulations per batch (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache", "", "directory for this worker's on-disk timing-result cache (empty = in-memory only)")
		debugAddr = flag.String("debug-addr", "", "serve pprof + expvar + live stats on this address; Prometheus text format on /metrics")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version   = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()

	logger, err := telemetry.InitLogging(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bceworker:", err)
		os.Exit(2)
	}
	logger = logger.With("bin", "bceworker")
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("dist_schema", fmt.Sprint(dist.SchemaVersion))
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}

	if *cacheDir != "" {
		if err := core.SetResultCacheDir(*cacheDir); err != nil {
			logger.Error("result cache setup failed", "err", err)
			os.Exit(1)
		}
	}
	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr, map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
			"bce_dist":   func() any { return dist.Snapshot() },
			"bce_result_cache": func() any {
				hits, misses := core.ResultCacheStats()
				return map[string]uint64{"hits": hits, "misses": misses}
			},
		})
		if err != nil {
			logger.Error("debug endpoint failed", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	if *name == "" {
		*name = ln.Addr().String()
	}
	logger = logger.With("worker", *name)
	w := dist.NewWorker(dist.WorkerOptions{
		Name:   *name,
		Pool:   runner.New(runner.Options{Workers: *workers}),
		Logger: logger,
	})
	srv := &http.Server{Handler: w.Handler()}
	start := time.Now()

	// First SIGINT/SIGTERM drains in-flight batches and exits; a second
	// kills the process (runner.ShutdownContext semantics).
	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	go func() {
		<-ctx.Done()
		// Fail /readyz first so health checkers and load balancers stop
		// routing here while in-flight batches drain.
		w.SetReady(false)
		logger.Info("shutdown requested; draining in-flight batches")
		srv.Shutdown(context.Background()) //nolint:errcheck // exiting anyway
	}()

	logger.Info("serving", "url", "http://"+ln.Addr().String(), "schema", dist.SchemaVersion)
	// The plain-print line below keeps the startup address greppable in
	// smoke scripts independent of the log record layout.
	fmt.Fprintf(os.Stderr, "bceworker: %q serving on http://%s (schema v%d)\n",
		*name, ln.Addr(), dist.SchemaVersion)
	err = srv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	// Final structured summary: what this worker did over its lifetime.
	snap := dist.Snapshot()
	hits, misses := core.ResultCacheStats()
	logger.Info("worker shutdown complete",
		"batches_served", snap.BatchesServed,
		"jobs_received", snap.JobsReceived,
		"jobs_ok", snap.JobsOK,
		"jobs_failed", snap.JobsFailed,
		"cache_hits", hits,
		"cache_misses", misses,
		"uptime", time.Since(start).Round(time.Second).String())
}
