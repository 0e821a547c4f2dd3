// Command bcereport turns run manifests (bcetables -manifest, bcecal
// -manifest) into the paper-fidelity scorecard and cross-run drift
// reports.
//
// Usage:
//
//	bcereport run.json                      # text scorecard on stdout
//	bcereport -json FIDELITY.json run.json  # canonical scorecard JSON
//	bcereport -baseline FIDELITY.json run.json  # gate: fail on drift
//	bcereport -compare old.json new.json    # diff two manifests
//
// -compare prints the metric drift table and a wall/CPU headline. To
// find where the CPU moved, profile the two runs with pprof's own
// tools and diff them with `go tool pprof -diff_base` (see
// docs/observability.md "Profiling").
//
// Several manifests can be ingested at once (e.g. a bcetables sweep
// plus a bcecal run); later files win where experiments overlap. The
// scorecard JSON is canonical — identical sweeps produce identical
// bytes — so committing it as a baseline and gating on drift in CI is
// exact, not approximate.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"bce/internal/manifest"
	"bce/internal/report"
	"bce/internal/telemetry"
)

func main() {
	var (
		jsonOut  = flag.String("json", "", "write the canonical scorecard JSON to this file")
		baseline = flag.String("baseline", "", "scorecard JSON to gate against: exit 1 if any metric drifts beyond -tol")
		compare  = flag.Bool("compare", false, "diff two manifests (old new) instead of rendering a scorecard")
		tol      = flag.Float64("tol", 1e-9, "drift tolerance in the metric's own unit (simulations are deterministic, so near-zero is exact)")
		quiet    = flag.Bool("quiet", false, "suppress the text scorecard on stdout")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version  = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()
	logger, err := telemetry.InitLogging(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcereport:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger.With("bin", "bcereport"))
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("manifest_schema", fmt.Sprint(manifest.SchemaVersion))
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}
	if err := run(flag.Args(), *jsonOut, *baseline, *compare, *tol, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "bcereport:", err)
		os.Exit(1)
	}
}

func run(args []string, jsonOut, baseline string, compare bool, tol float64, quiet bool) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes exactly two manifests (old new), got %d", len(args))
		}
		old, err := manifest.Load(args[0])
		if err != nil {
			return err
		}
		new, err := manifest.Load(args[1])
		if err != nil {
			return err
		}
		drifts, notes, err := report.CompareManifests(old, new, tol)
		if err != nil {
			return err
		}
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "bcereport: note:", n)
		}
		fmt.Print(report.RenderDrift(drifts, tol))
		attributeDrift(old, new)
		if len(drifts) > 0 {
			return fmt.Errorf("%d metric(s) drifted", len(drifts))
		}
		return nil
	}

	if len(args) == 0 {
		return fmt.Errorf("no manifests given (usage: bcereport [flags] manifest.json ...)")
	}
	manifests := make([]*manifest.Manifest, len(args))
	for i, path := range args {
		m, err := manifest.Load(path)
		if err != nil {
			return err
		}
		manifests[i] = m
	}
	sc, err := report.Build(manifests...)
	if err != nil {
		return err
	}

	if !quiet {
		fmt.Print(sc.String())
	}
	if jsonOut != "" {
		buf, err := sc.Canonical()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bcereport: scorecard JSON written to %s\n", jsonOut)
	}
	if baseline != "" {
		base, err := report.LoadScorecard(baseline)
		if err != nil {
			return err
		}
		drifts := report.CompareScorecards(base, sc, tol)
		fmt.Print(report.RenderDrift(drifts, tol))
		if len(drifts) > 0 {
			return fmt.Errorf("fidelity gate failed: %d metric(s) drifted from %s", len(drifts), baseline)
		}
		fmt.Fprintf(os.Stderr, "bcereport: fidelity gate passed against %s\n", baseline)
	}
	return nil
}

// attributeDrift prints the headline wall/CPU deltas between two
// manifests, when the old one recorded its wall time.
func attributeDrift(old, new *manifest.Manifest) {
	if old.WallSeconds > 0 {
		fmt.Printf("wall %.2fs -> %.2fs (%+.1f%%), cpu %.2fs -> %.2fs\n",
			old.WallSeconds, new.WallSeconds,
			100*(new.WallSeconds-old.WallSeconds)/old.WallSeconds,
			old.CPUSeconds, new.CPUSeconds)
	}
}
