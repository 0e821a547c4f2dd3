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
	"slices"
	"strings"
	"time"

	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/dist"
	"bce/internal/manifest"
	"bce/internal/metrics"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

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
		exp        = flag.String("exp", "all", "experiment to regenerate ("+expNames+")")
		bench      = flag.String("bench", "gcc", "benchmark for the density figures (fig4-fig7)")
		quick      = flag.Bool("quick", false, "use reduced run lengths")
		segments   = flag.Int("segments", 1, "independent trace segments per benchmark (the paper uses 2)")
		csv        = flag.Bool("csv", false, "emit density data as CSV (fig4-fig7 only)")
		workers    = flag.Int("workers", 0, "parallel simulations per sweep (0 = GOMAXPROCS); results are identical under any setting")
		progress   = flag.Bool("progress", false, "report per-sweep progress and ETA on stderr")
		cacheDir   = flag.String("cache", "", "directory for the on-disk timing-result cache (empty = in-memory only)")
		resume     = flag.Bool("resume", false, "replay the checkpoint journal from a killed run (needs -cache); completed simulations are not re-run and merged output is identical to an uninterrupted run")
		debugAddr  = flag.String("debug-addr", "", "serve pprof + expvar + live sweep stats on this address (e.g. localhost:6060); Prometheus text format on /metrics")
		manifestTo = flag.String("manifest", "", "write a run manifest (provenance + per-job results) to this file")
		remote     = flag.String("workers-remote", "", "comma-separated bceworker base URLs (e.g. http://127.0.0.1:8371); shard the sweep's timing simulations across them, then aggregate locally — output is byte-identical to a single-process run")
		distBatch  = flag.Int("dist-batch", 0, "jobs per batch request to remote workers (0 = default)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version    = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()

	logger, err := telemetry.InitLogging(*logLevel)
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

	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr, map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
			"bce_result_cache": func() any {
				hits, misses := core.ResultCacheStats()
				return map[string]uint64{"hits": hits, "misses": misses}
			},
			"bce_dist": func() any { return dist.Snapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcetables:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}

	core.SetParallelism(*workers)
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
		if err := distribute(ctx, urls, *exp, *bench, *csv, sz, mb, *distBatch); err != nil {
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
		"finished", ls.JobsDone, "cached", ls.JobsCached)
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

// distribute runs the remote leg of a distributed sweep: plan the job
// space with a silent recording pass, ping the workers, shard and
// dispatch, and inject every remote result into the local cache (and
// any attached store/journal) under its cache key. Jobs whose results
// are already stored — a resumed coordinator — are excluded from the
// plan, so only missing work is dispatched: a sweep that failed on a
// worker finishes with -resume.
func distribute(ctx context.Context, urls []string, exp, bench string, csv bool,
	sz core.Sizes, mb *manifest.Builder, batch int) error {
	log := slog.Default().With("component", "coordinator")
	coord, err := dist.NewCoordinator(dist.Options{
		Workers:   urls,
		BatchSize: batch,
		Logger:    log,
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
	if err := coord.Ping(ctx); err != nil {
		return err
	}

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
	if err := coord.Run(ctx, plan.Jobs, plan.Keys); err != nil {
		return err
	}
	log.Info("remote simulations merged",
		"jobs", len(plan.Jobs), "elapsed", time.Since(start).Round(100*time.Millisecond).String())
	return nil
}

// experiment is one regenerable result of the evaluation: the name
// its "[name regenerated …]" stderr line carries, the -exp values that
// select it (its own names plus the all, fidelity and extras
// composites it belongs to), the manifest result name it records
// under (empty: not recorded), and how to compute and render it.
type experiment struct {
	name   string
	exps   []string
	record string
	render func(sz core.Sizes, bench string, csv bool) (result any, text string, err error)
}

// show adapts a core result constructor to experiment.render.
func show[T fmt.Stringer](v T, err error) (any, string, error) {
	if err != nil {
		return nil, "", err
	}
	return v, v.String(), nil
}

// density renders one estimator-output density figure pair.
func density(scheme, figs string) func(core.Sizes, string, bool) (any, string, error) {
	return func(sz core.Sizes, bench string, csv bool) (any, string, error) {
		d, err := core.Density(bench, scheme, sz)
		if err != nil {
			return nil, "", err
		}
		body := d.String()
		if csv {
			body = d.CSV()
		}
		return d, fmt.Sprintf("== %s (%s estimator output density, benchmark %s)\n%s", figs, scheme, bench, body), nil
	}
}

const expNames = "table2..table6, fig4..fig9, latency, all, fidelity, extras, ablate-*, variability"

// experiments lists every experiment in output order. fidelity is the
// scorecard composite: the experiments the paper fidelity gate scores.
var experiments = []experiment{
	{"table2", []string{"table2", "all", "fidelity"}, "table2",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Table2(sz)) }},
	{"table3", []string{"table3", "all", "fidelity"}, "table3",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Table3(sz)) }},
	{"table4", []string{"table4", "all", "fidelity"}, "table4",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Table4(sz)) }},
	{"table5", []string{"table5", "all"}, "table5",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Table5(sz)) }},
	{"table6", []string{"table6", "all"}, "table6",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Table6(sz)) }},
	{"fig4/5", []string{"fig4", "fig5", "all"}, "density-cic", density("cic", "Figures 4-5")},
	{"fig6/7", []string{"fig6", "fig7", "all"}, "density-tnt", density("tnt", "Figures 6-7")},
	{"fig8", []string{"fig8", "all", "fidelity"}, "fig8",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) {
			return show(core.Combined(config.Baseline40x4(), sz))
		}},
	{"fig9", []string{"fig9", "all"}, "fig9",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) {
			return show(core.Combined(config.Wide20x8(), sz))
		}},
	{"latency", []string{"latency", "all"}, "latency",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Latency(sz)) }},
	{"ablate-signal", []string{"ablate-signal", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateTrainingSignal(sz)) }},
	{"ablate-reversal", []string{"ablate-reversal", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateReversalSource(sz)) }},
	{"ablate-site", []string{"ablate-site", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateTrainingSite(sz)) }},
	{"ablate-threshold", []string{"ablate-threshold", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateTrainThreshold(sz)) }},
	{"ablate-history", []string{"ablate-history", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateHistoryLength(sz)) }},
	{"ablate-jrs", []string{"ablate-jrs", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.AblateJRSIndexing(sz)) }},
	{"variability", []string{"variability", "extras"}, "",
		func(sz core.Sizes, _ string, _ bool) (any, string, error) { return show(core.Variability(0, 1, sz)) }},
}

func run(exp, bench string, csv bool, sz core.Sizes, mb *manifest.Builder, out io.Writer) error {
	// A planning pass (distribute) runs this function against
	// io.Discard purely to enumerate jobs; keep its stderr decoration
	// quiet too.
	errOut := io.Writer(os.Stderr)
	if out == io.Discard {
		errOut = io.Discard
	}
	ran := false
	for _, e := range experiments {
		if !slices.Contains(e.exps, exp) {
			continue
		}
		start := time.Now()
		result, text, err := e.render(sz, bench, csv)
		// A nil builder (no -manifest, or the planning pass) records
		// nothing.
		if err == nil && mb != nil && e.record != "" {
			err = mb.AddResult(e.record, result)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprint(out, text)
		// Wall-clock decoration goes to stderr so stdout carries only
		// the deterministic results — a resumed run's stdout is
		// byte-identical to an uninterrupted one.
		fmt.Fprintf(errOut, "[%s regenerated in %.1fs]\n", e.name, time.Since(start).Seconds())
		fmt.Fprintln(out)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want "+expNames+")", exp)
	}
	return nil
}
