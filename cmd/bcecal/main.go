// Command bcecal reports the synthetic-workload calibration against
// the paper's Table 2 targets: per-benchmark misprediction rates under
// the baseline hybrid predictor, with per-behavior-class attribution —
// the tooling used to tune internal/workload/profiles.go.
//
// Usage:
//
//	bcecal                  # rates vs targets for all benchmarks
//	bcecal -bench mcf       # per-class attribution for one benchmark
//	bcecal -uops 1000000    # longer measurement
//	bcecal -manifest cal.json  # also write a run manifest
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bce/internal/manifest"
	"bce/internal/predictor"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "", "show per-class attribution for one benchmark")
		uops       = flag.Int("uops", 400_000, "measured uops (after 100k warmup)")
		workers    = flag.Int("workers", 0, "parallel calibration runs (0 = GOMAXPROCS); results are identical under any setting")
		cacheDir   = flag.String("cache", "", "directory for the on-disk calibration cache (empty = no persistence)")
		resume     = flag.Bool("resume", false, "replay the checkpoint journal from a killed run (needs -cache)")
		debugAddr  = flag.String("debug-addr", "", "serve pprof + expvar on this address (e.g. localhost:6060); Prometheus text format on /metrics")
		manifestTo = flag.String("manifest", "", "write a run manifest (provenance + per-benchmark rates) to this file")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		profDir    = prof.RegisterFlags()
		version    = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()
	logger, err := telemetry.InitLogging(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcecal:", err)
		os.Exit(2)
	}
	logger = logger.With("bin", "bcecal")
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("manifest_schema", fmt.Sprint(manifest.SchemaVersion))
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}
	stopProf, err := prof.Enable(*profDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcecal:", err)
		os.Exit(1)
	}
	defer stopProf()
	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr, map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcecal:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "bcecal: -resume needs -cache (the journal lives next to the result store)")
		os.Exit(2)
	}
	var mb *manifest.Builder
	if *manifestTo != "" {
		mb = manifest.NewBuilder("bcecal", os.Args[1:])
		mb.SetConfig("bench", *bench)
		mb.SetConfig("uops", fmt.Sprint(*uops))
		seeds := make(map[string]int64)
		for _, name := range workload.Names() {
			if wl, err := workload.ByName(name); err == nil {
				seeds[name] = wl.Seed
			}
		}
		mb.SetSeeds(seeds)
	}
	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	if err := run(ctx, *bench, *uops, *workers, *cacheDir, *resume, mb); err != nil {
		if errors.Is(err, context.Canceled) {
			ls := runner.LiveSnapshot()
			fmt.Fprintf(os.Stderr, "bcecal: interrupted: %d calibration runs finished before shutdown", ls.JobsDone)
			if *cacheDir != "" {
				fmt.Fprintf(os.Stderr, "; rerun with -resume to continue")
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintln(os.Stderr, "bcecal:", err)
		os.Exit(1)
	}
	if mb != nil {
		// Stop profiling first so the manifest records the profiles.
		mb.AddProfiles(stopProf()...)
		if err := mb.WriteFile(*manifestTo, 0, 0); err != nil {
			fmt.Fprintln(os.Stderr, "bcecal:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bcecal: run manifest written to %s\n", *manifestTo)
	}
}

// openStore builds the checkpointed store stack for -cache/-resume:
// a crash-safe journal tiered in front of the DirStore. The cleanup
// removes the journal on success (results all merged into the store)
// and keeps it for -resume otherwise.
func openStore(cacheDir string, resume bool) (runner.Store, func(ok bool), error) {
	if cacheDir == "" {
		return nil, func(bool) {}, nil
	}
	ds, err := runner.NewDirStore(cacheDir)
	if err != nil {
		return nil, nil, err
	}
	jpath := filepath.Join(ds.Dir(), "sweep.journal")
	if !resume {
		os.Remove(jpath)
	}
	j, err := runner.OpenJournal(jpath)
	if err != nil {
		return nil, nil, err
	}
	if resume {
		fmt.Fprintf(os.Stderr, "bcecal: resumed from %s (%d checkpointed runs)\n", jpath, j.Replayed())
	}
	cleanup := func(ok bool) {
		if ok {
			j.Remove()
		} else {
			j.Close()
		}
	}
	return runner.Tiered(j, ds), cleanup, nil
}

func run(ctx context.Context, bench string, uops, workers int, cacheDir string, resume bool, mb *manifest.Builder) error {
	if bench != "" {
		return attribute(bench, uops)
	}
	store, cleanup, err := openStore(cacheDir, resume)
	if err != nil {
		return err
	}
	cache := runner.NewCache[float64]()
	if store != nil {
		cache.SetStore(store,
			func(v float64) ([]byte, error) { return json.Marshal(v) },
			func(b []byte) (float64, error) { var v float64; err := json.Unmarshal(b, &v); return v, err })
	}
	// The fan-out: one deterministic calibration run per benchmark,
	// results assembled in workload.Names() order so output is
	// identical under any worker count and across resumes.
	pool := runner.New(runner.Options{Workers: workers})
	rates, err := runner.Map(ctx, pool, workload.Names(),
		func(ctx context.Context, _ int, name string) (float64, error) {
			return cache.Do(runner.KeyOf("bcecal", 1, name, uops), func() (float64, error) {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				return mispRate(name, uops)
			})
		})
	cleanup(err == nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-9s %10s %10s %8s\n", "bench", "misp/Kuop", "target", "ratio")
	var worst float64 = 1
	type calRow struct {
		Bench             string
		MispPer1K, Target float64
	}
	var calRows []calRow
	for i, name := range workload.Names() {
		rate := rates[i]
		target := workload.Table2Target[name]
		ratio := rate / target
		if ratio > worst {
			worst = ratio
		}
		if 1/ratio > worst {
			worst = 1 / ratio
		}
		fmt.Printf("%-9s %10.2f %10.2f %7.2fx\n", name, rate, target, ratio)
		calRows = append(calRows, calRow{Bench: name, MispPer1K: rate, Target: target})
		if mb != nil {
			mb.AddJob(manifest.Job{
				Key: runner.KeyOf("bcecal", 1, name, uops), Kind: "calibration", Bench: name,
				Extra: map[string]float64{"misp_per_kuop": rate, "target": target},
			})
		}
	}
	fmt.Printf("\nworst deviation: %.2fx (calibration keeps every benchmark within 2x)\n", worst)
	if mb != nil {
		if err := mb.AddResult("calibration", map[string]any{
			"Rows": calRows, "WorstRatio": worst,
		}); err != nil {
			return err
		}
	}
	return nil
}

// warmup is the number of uops run before measurement starts.
const warmup = 100_000

// measuredBranches runs the baseline hybrid over warm+uops uops of g
// and calls f for every conditional branch in the measured span (uops
// warm to warm+uops-1) with its PC and whether the predictor missed
// it.
func measuredBranches(g *workload.Generator, warm, uops int, f func(pc uint64, miss bool)) {
	pred := predictor.NewBaselineHybrid()
	total := uint64(max(0, warm+uops))
	for next := uint64(0); ; {
		pc, taken, n := g.NextBranch()
		next += n // the branch is uop next-1
		if next > total {
			return
		}
		pt := pred.Predict(pc)
		pred.Update(pc, taken)
		if next > uint64(warm) {
			f(pc, pt != taken)
		}
	}
}

// mispRate returns the benchmark's mispredictions per 1000 measured
// uops.
func mispRate(name string, uops int) (float64, error) {
	g, err := workload.Load(name, 0)
	if err != nil {
		return 0, err
	}
	var misp int
	measuredBranches(g, warmup, uops, func(_ uint64, miss bool) {
		if miss {
			misp++
		}
	})
	return 1000 * float64(misp) / float64(uops), nil
}

// classCount counts a behavior class's measured branches and misses.
type classCount struct{ n, miss int }

// classCounts attributes the measured branches and mispredictions to
// behavior classes (the class name without its parameters).
func classCounts(name string, uops int) (map[string]*classCount, error) {
	g, err := workload.Load(name, 0)
	if err != nil {
		return nil, err
	}
	kinds := g.BranchKinds()
	byClass := map[string]*classCount{}
	measuredBranches(g, warmup, uops, func(pc uint64, miss bool) {
		k := kinds[pc]
		if j := strings.IndexByte(k, '('); j > 0 {
			k = k[:j]
		}
		a := byClass[k]
		if a == nil {
			a = &classCount{}
			byClass[k] = a
		}
		a.n++
		if miss {
			a.miss++
		}
	})
	return byClass, nil
}

func attribute(name string, uops int) error {
	byClass, err := classCounts(name, uops)
	if err != nil {
		return err
	}
	var ks []string
	for k := range byClass {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	fmt.Printf("benchmark %s: misprediction attribution by behavior class\n", name)
	fmt.Printf("%-10s %10s %10s %10s %12s\n", "class", "dynamic", "share", "missrate", "contribution")
	total, totalMiss := 0, 0
	for _, a := range byClass {
		total += a.n
		totalMiss += a.miss
	}
	for _, k := range ks {
		a := byClass[k]
		fmt.Printf("%-10s %10d %9.1f%% %9.1f%% %11.1f%%\n",
			k, a.n,
			100*float64(a.n)/float64(total),
			100*float64(a.miss)/float64(a.n),
			100*float64(a.miss)/float64(totalMiss))
	}
	fmt.Printf("%-10s %10d %9s %9.1f%%\n", "TOTAL", total, "",
		100*float64(totalMiss)/float64(total))
	return nil
}
