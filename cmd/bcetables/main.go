// Command bcetables regenerates the tables and figures of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	bcetables -exp table2          # one experiment
//	bcetables -exp all             # everything (minutes)
//	bcetables -exp fig4 -bench gcc # density figures accept -bench
//	bcetables -quick               # reduced run lengths (smoke)
//	bcetables -exp fig5 -csv       # density data as CSV
//	bcetables -exp fidelity -manifest run.json  # scorecard feedstock
//
// Experiments: table2 table3 table4 table5 table6 fig4 fig5 fig6 fig7
// fig8 fig9 latency all — plus the extension studies ablate-signal,
// ablate-reversal, ablate-site, ablate-threshold, ablate-history and
// variability (run with -exp extras for all of those). -exp fidelity
// runs the scorecard core (table2 + table3 + table4 + fig8), the
// composite the CI fidelity gate sweeps.
//
// With -manifest the invocation also writes a run manifest: config
// fingerprint, git revision, per-simulation results and runner/cache
// statistics, the input cmd/bcereport consumes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/manifest"
	"bce/internal/metrics"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

// fleetMon holds the coordinator-side fleet monitor once a distributed
// sweep starts. The debug server's var map is registered before the
// coordinator exists, so the vars sample through this holder.
var fleetMon atomic.Pointer[dist.Fleet]

// coordMon likewise exposes the live coordinator's shard-latency
// statistics.
var coordMon atomic.Pointer[dist.Coordinator]

// workloadSeeds maps every benchmark to its deterministic base seed,
// recorded in run manifests so a result can be traced to its exact
// input stream.
func workloadSeeds() map[string]int64 {
	seeds := make(map[string]int64)
	for _, name := range workload.Names() {
		if wl, err := workload.ByName(name); err == nil {
			seeds[name] = wl.Seed
		}
	}
	return seeds
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to regenerate (table2..table6, fig4..fig9, latency, all)")
		bench      = flag.String("bench", "gcc", "benchmark for the density figures (fig4-fig7)")
		quick      = flag.Bool("quick", false, "use reduced run lengths")
		segments   = flag.Int("segments", 1, "independent trace segments per benchmark (the paper uses 2)")
		csv        = flag.Bool("csv", false, "emit density data as CSV (fig4-fig7 only)")
		workers    = flag.Int("workers", 0, "parallel simulations per sweep (0 = GOMAXPROCS); results are identical under any setting")
		progress   = flag.Bool("progress", false, "report per-sweep progress and ETA on stderr")
		cacheDir   = flag.String("cache", "", "directory for the on-disk timing-result cache (empty = in-memory only)")
		resume     = flag.Bool("resume", false, "replay the checkpoint journal from a killed run (needs -cache); completed simulations are not re-run and merged output is identical to an uninterrupted run")
		jobTimeout = flag.Duration("job-timeout", 0, "per-simulation deadline (0 = none); timed-out jobs are retried per -retries")
		retries    = flag.Int("retries", 0, "retries per job for transient failures, with exponential backoff")
		debugAddr  = flag.String("debug-addr", "", "serve pprof + expvar + live sweep stats on this address (e.g. localhost:6060); Prometheus text format on /metrics")
		manifestTo = flag.String("manifest", "", "write a run manifest (provenance + per-job results) to this file")
		remote     = flag.String("workers-remote", "", "comma-separated bceworker base URLs (e.g. http://127.0.0.1:8371); shard the sweep's timing simulations across them, then aggregate locally — output is byte-identical to a single-process run")
		distBatch  = flag.Int("dist-batch", 0, "jobs per batch request to remote workers (0 = default)")
		traceSpans = flag.String("trace-spans", "", "write the distributed sweep's merged cross-process span timeline (Chrome trace_event JSON, needs -workers-remote) to this file")
		hedge      = flag.Bool("hedge", true, "speculatively re-issue batches that outlive the adaptive latency threshold to a second worker and take the first result; duplicate executions never merge twice")
		adaptDL    = flag.Bool("adaptive-deadline", false, "derive each worker's per-job deadline from its own batch-latency history (p99 x 4, clamped) instead of the fixed -job-timeout")
		brkFails   = flag.Int("breaker-failures", 0, "consecutive batch failures that trip a worker's circuit breaker (0 = default 2)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "cooldown before the first half-open probe of a tripped worker, doubled per failed probe (0 = derived from retry backoff)")
		brkProbes  = flag.Int("breaker-probes", 0, "failed half-open probes before a tripped worker is declared permanently lost (0 = default 6)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		profDir    = prof.RegisterFlags()
		version    = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()

	logger, err := telemetry.InitLogging(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcetables:", err)
		os.Exit(2)
	}
	logger = logger.With("bin", "bcetables")
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("dist_schema", fmt.Sprint(dist.SchemaVersion))
	telemetry.RegisterBuildLabel("manifest_schema", fmt.Sprint(manifest.SchemaVersion))
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}

	// One CPU profile for the whole invocation into the -profile-dir
	// ring; the manifest (if any) records the digests.
	stopProf, err := prof.Enable(*profDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcetables:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *traceSpans != "" && *remote == "" {
		fmt.Fprintln(os.Stderr, "bcetables: -trace-spans needs -workers-remote (spans trace the distributed sweep)")
		os.Exit(2)
	}

	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr, map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
			"bce_result_cache": func() any {
				hits, misses := core.ResultCacheStats()
				return map[string]uint64{"hits": hits, "misses": misses}
			},
			"bce_dist": func() any { return dist.Snapshot() },
			"bce_fleet": func() any {
				if f := fleetMon.Load(); f != nil {
					return f.Snapshot()
				}
				return nil
			},
			"bce_dist_coordinator": func() any {
				if c := coordMon.Load(); c != nil {
					return c.Stats()
				}
				return nil
			},
			"bce_breakers": func() any {
				if c := coordMon.Load(); c != nil {
					return c.Breakers()
				}
				return nil
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcetables:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}

	core.SetParallelism(*workers)
	core.SetJobTimeout(*jobTimeout)
	core.SetRetries(*retries, 100*time.Millisecond)
	if *progress {
		core.SetProgress(func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "bcetables: %d/%d jobs, elapsed %s, eta %s\n",
				p.Done, p.Total, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		})
	}
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "bcetables: -resume needs -cache (the journal lives next to the result store)")
		os.Exit(2)
	}
	if *cacheDir != "" {
		if err := core.SetResultCacheDir(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "bcetables:", err)
			os.Exit(1)
		}
		replayed, err := core.SetCheckpoint(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcetables:", err)
			os.Exit(1)
		}
		if *resume {
			logger.Info("resumed from checkpoint",
				"path", core.CheckpointPath(), "simulations", replayed)
		}
	}

	// First SIGINT/SIGTERM cancels the sweep (in-flight jobs finish and
	// checkpoint); a second kills the process.
	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	core.SetBaseContext(ctx)

	sz := core.DefaultSizes()
	if *quick {
		sz = core.QuickSizes()
	}
	sz.Segments = *segments

	var mb *manifest.Builder
	if *manifestTo != "" {
		mb = manifest.NewBuilder("bcetables", os.Args[1:])
		mb.SetSizes(manifest.Sizes{
			Warmup: sz.Warmup, Measure: sz.Measure,
			FuncWarmup: sz.FuncWarmup, FuncMeasure: sz.FuncMeasure,
			Segments: *segments,
		})
		mb.SetSeeds(workloadSeeds())
		mb.SetConfig("exp", *exp)
		mb.SetConfig("bench", *bench)
		core.SetJobObserver(func(rec core.JobRecord) {
			mb.AddJob(manifest.Job{
				Key: rec.Key, Kind: rec.Kind, Bench: rec.Bench, Cached: rec.Cached,
				Run: rec.Run, Confusion: rec.Confusion,
			})
		})
	}

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			interrupted()
		}
		core.CloseCheckpoint(false)
		stopProf()
		fmt.Fprintln(os.Stderr, "bcetables:", err)
		os.Exit(1)
	}

	// Distributed execution: enumerate the sweep's job space, shard it
	// across the remote workers, and merge every result into the local
	// cache/store. The aggregation pass below then runs fully
	// cache-hit, so its stdout is byte-identical to a single-process
	// sweep by construction.
	if *remote != "" {
		urls := splitList(*remote)
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "bcetables: -workers-remote lists no worker URLs")
			os.Exit(2)
		}
		tuning := distTuning{
			hedge:            *hedge,
			adaptiveDeadline: *adaptDL,
			breakerFailures:  *brkFails,
			breakerCooldown:  *brkCool,
			breakerProbes:    *brkProbes,
		}
		if err := distribute(ctx, urls, *exp, *bench, *csv, sz, mb, *distBatch, *jobTimeout, *retries, *traceSpans, tuning); err != nil {
			fail(err)
		}
	}

	if err := run(*exp, *bench, *csv, sz, mb, os.Stdout); err != nil {
		fail(err)
	}
	if err := core.CloseCheckpoint(true); err != nil {
		fmt.Fprintln(os.Stderr, "bcetables: checkpoint:", err)
	}
	if mb != nil {
		// Stop profiling first so the manifest records the profiles.
		mb.AddProfiles(stopProf()...)
		hits, misses := core.ResultCacheStats()
		if err := mb.WriteFile(*manifestTo, hits, misses); err != nil {
			fmt.Fprintln(os.Stderr, "bcetables:", err)
			os.Exit(1)
		}
		logger.Info("run manifest written", "path", *manifestTo)
	}
	if *progress {
		hits, misses := core.ResultCacheStats()
		logger.Info("result cache summary", "hits", hits, "misses", misses, "avoided", hits)
	}
}

// interrupted prints the partial-results summary after a graceful
// shutdown: what completed, and how to pick the sweep back up.
func interrupted() {
	ls := runner.LiveSnapshot()
	slog.Warn("interrupted before completion",
		"finished", ls.JobsDone, "cached", ls.JobsCached, "retried", ls.JobsRetried)
	if path := core.CheckpointPath(); path != "" {
		slog.Info("completed work is checkpointed; rerun with -resume to continue", "path", path)
	}
}

// splitList parses a comma-separated flag value, trimming whitespace
// and dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// distTuning carries the self-healing knobs (-hedge,
// -adaptive-deadline, -breaker-*) from flags into dist.Options.
type distTuning struct {
	hedge            bool
	adaptiveDeadline bool
	breakerFailures  int
	breakerCooldown  time.Duration
	breakerProbes    int
}

// distribute runs the remote leg of a distributed sweep: plan the job
// space with a silent recording pass, ping the workers, shard and
// dispatch, and inject every remote result into the local cache (and
// any attached store/journal) under its cache key. Jobs whose results
// are already stored — a resumed coordinator — are excluded from the
// plan, so only missing work is dispatched.
func distribute(ctx context.Context, urls []string, exp, bench string, csv bool,
	sz core.Sizes, mb *manifest.Builder, batch int, jobTimeout time.Duration, retries int,
	traceSpans string, tuning distTuning) error {
	log := slog.Default().With("component", "coordinator")
	var tracer *telemetry.Tracer
	if traceSpans != "" {
		tracer = telemetry.NewTracer("coordinator")
	}
	coord, err := dist.NewCoordinator(dist.Options{
		Workers:          urls,
		BatchSize:        batch,
		JobTimeout:       jobTimeout,
		Retries:          retries,
		DisableHedging:   !tuning.hedge,
		AdaptiveDeadline: tuning.adaptiveDeadline,
		Breaker: dist.BreakerOptions{
			ConsecutiveFailures: tuning.breakerFailures,
			Cooldown:            tuning.breakerCooldown,
			MaxProbeFailures:    tuning.breakerProbes,
		},
		Logger: log,
		Tracer: tracer,
		OnResult: func(worker string, job dist.Job, run metrics.Run) {
			core.InjectResult(job.Key, run)
			if mb != nil {
				r := run
				mb.AddJob(manifest.Job{
					Key: job.Key, Kind: "timing", Bench: job.Spec.Bench,
					Worker: worker, Run: &r,
				})
			}
		},
	})
	if err != nil {
		return err
	}
	coordMon.Store(coord)
	defer coordMon.Store(nil)
	if err := coord.Ping(ctx); err != nil {
		return err
	}

	// The fleet monitor is observational: it polls worker /metrics and
	// /readyz for the debug endpoint's bce_fleet var and stops when the
	// sweep ends. Its failures never affect job routing.
	fleetCtx, stopFleet := context.WithCancel(ctx)
	fleet := dist.NewFleet(dist.FleetOptions{Workers: urls, Logger: log})
	fleet.SetBreakerSource(coord.Breakers)
	fleet.Start(fleetCtx)
	fleetMon.Store(fleet)
	defer func() {
		fleetMon.Store(nil)
		stopFleet()
		fleet.Wait()
	}()

	plan, err := core.CollectJobs(func() error {
		return run(exp, bench, csv, sz, nil, io.Discard)
	})
	if err != nil {
		return err
	}
	log.Info("plan ready",
		"jobs", len(plan.Jobs), "workers", len(urls), "stored", plan.Stored)
	if len(plan.Jobs) == 0 {
		return nil
	}
	start := time.Now()
	runErr := coord.Run(ctx, plan.Jobs, plan.Keys)
	if tracer != nil {
		// Write whatever spans were collected even on failure — a partial
		// timeline is exactly what debugs a failed sweep.
		if werr := writeSpanFile(traceSpans, tracer); werr != nil {
			log.Warn("span trace not written", "path", traceSpans, "err", werr)
		} else {
			started, ended := tracer.Counts()
			log.Info("span trace written", "path", traceSpans, "spans", ended, "started", started)
		}
	}
	if runErr != nil {
		return runErr
	}
	log.Info("remote simulations merged",
		"jobs", len(plan.Jobs), "elapsed", time.Since(start).Round(100*time.Millisecond).String())
	return nil
}

// writeSpanFile drains the tracer and writes the merged cross-process
// Chrome trace (coordinator + worker spans in one timeline).
func writeSpanFile(path string, tracer *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanTrace(f, tracer.Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp, bench string, csv bool, sz core.Sizes, mb *manifest.Builder, out io.Writer) error {
	// A planning pass (distribute) runs this function against
	// io.Discard purely to enumerate jobs; keep its stderr decoration
	// quiet too.
	errOut := io.Writer(os.Stderr)
	if out == io.Discard {
		errOut = io.Discard
	}
	// record stores an experiment's structured result in the manifest;
	// a nil builder (no -manifest, or the planning pass) makes it a
	// no-op.
	record := func(name string, v any) error {
		if mb == nil {
			return nil
		}
		return mb.AddResult(name, v)
	}
	density := func(scheme, figs string) error {
		d, err := core.Density(bench, scheme, sz)
		if err != nil {
			return err
		}
		if err := record("density-"+scheme, d); err != nil {
			return err
		}
		fmt.Fprintf(out, "== %s (%s estimator output density, benchmark %s)\n", figs, scheme, bench)
		if csv {
			fmt.Fprint(out, d.CSV())
		} else {
			fmt.Fprint(out, d.String())
		}
		return nil
	}
	all := exp == "all"
	// fidelity is the scorecard composite: the experiments the paper
	// fidelity gate scores, at one flag.
	fid := exp == "fidelity"
	ran := false
	timed := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// Wall-clock decoration goes to stderr so stdout carries only
		// the deterministic results — a resumed run's stdout is
		// byte-identical to an uninterrupted one.
		fmt.Fprintf(errOut, "[%s regenerated in %.1fs]\n", name, time.Since(start).Seconds())
		fmt.Fprintln(out)
		ran = true
		return nil
	}

	if all || fid || exp == "table2" {
		if err := timed("table2", func() error {
			t, err := core.Table2(sz)
			if err != nil {
				return err
			}
			if err := record("table2", t); err != nil {
				return err
			}
			fmt.Fprint(out, t)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || fid || exp == "table3" {
		if err := timed("table3", func() error {
			t, err := core.Table3(sz)
			if err != nil {
				return err
			}
			if err := record("table3", t); err != nil {
				return err
			}
			fmt.Fprint(out, t)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || fid || exp == "table4" {
		if err := timed("table4", func() error {
			t, err := core.Table4(sz)
			if err != nil {
				return err
			}
			if err := record("table4", t); err != nil {
				return err
			}
			fmt.Fprint(out, t)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "table5" {
		if err := timed("table5", func() error {
			t, err := core.Table5(sz)
			if err != nil {
				return err
			}
			if err := record("table5", t); err != nil {
				return err
			}
			fmt.Fprint(out, t)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "table6" {
		if err := timed("table6", func() error {
			t, err := core.Table6(sz)
			if err != nil {
				return err
			}
			if err := record("table6", t); err != nil {
				return err
			}
			fmt.Fprint(out, t)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "fig4" || exp == "fig5" {
		if err := timed("fig4/5", func() error { return density("cic", "Figures 4-5") }); err != nil {
			return err
		}
	}
	if all || exp == "fig6" || exp == "fig7" {
		if err := timed("fig6/7", func() error { return density("tnt", "Figures 6-7") }); err != nil {
			return err
		}
	}
	if all || fid || exp == "fig8" {
		if err := timed("fig8", func() error {
			c, err := core.Combined(config.Baseline40x4(), sz)
			if err != nil {
				return err
			}
			if err := record("fig8", c); err != nil {
				return err
			}
			fmt.Fprint(out, c)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "fig9" {
		if err := timed("fig9", func() error {
			c, err := core.Combined(config.Wide20x8(), sz)
			if err != nil {
				return err
			}
			if err := record("fig9", c); err != nil {
				return err
			}
			fmt.Fprint(out, c)
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "latency" {
		if err := timed("latency", func() error {
			l, err := core.Latency(sz)
			if err != nil {
				return err
			}
			if err := record("latency", l); err != nil {
				return err
			}
			fmt.Fprint(out, l)
			return nil
		}); err != nil {
			return err
		}
	}
	extras := exp == "extras"
	if extras || exp == "ablate-signal" {
		if err := timed("ablate-signal", func() error {
			a, err := core.AblateTrainingSignal(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "ablate-reversal" {
		if err := timed("ablate-reversal", func() error {
			a, err := core.AblateReversalSource(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "ablate-site" {
		if err := timed("ablate-site", func() error {
			a, err := core.AblateTrainingSite(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "ablate-threshold" {
		if err := timed("ablate-threshold", func() error {
			a, err := core.AblateTrainThreshold(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "ablate-history" {
		if err := timed("ablate-history", func() error {
			a, err := core.AblateHistoryLength(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "ablate-jrs" {
		if err := timed("ablate-jrs", func() error {
			a, err := core.AblateJRSIndexing(sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, a)
			return nil
		}); err != nil {
			return err
		}
	}
	if extras || exp == "variability" {
		if err := timed("variability", func() error {
			v, err := core.Variability(0, 1, sz)
			if err != nil {
				return err
			}
			fmt.Fprint(out, v)
			return nil
		}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want table2..table6, fig4..fig9, latency, all, fidelity, extras, ablate-*, variability)", exp)
	}
	return nil
}
