// Command bcereport turns run manifests (bcetables -manifest, bcecal
// -manifest) into the paper-fidelity scorecard and cross-run drift
// reports.
//
// Usage:
//
//	bcereport run.json                      # text scorecard on stdout
//	bcereport -json FIDELITY.json run.json  # canonical scorecard JSON
//	bcereport -html report.html run.json    # self-contained dashboard
//	bcereport -baseline FIDELITY.json run.json  # gate: fail on drift
//	bcereport -compare old.json new.json    # diff two manifests
//
// When comparing two manifests that carry profile records (runs made
// with -profile-dir), adding -profile-dir here attributes wall/CPU
// drift between the runs: the two runs' CPU profiles, and their heap
// snapshots, are diffed into per-function deltas and printed alongside
// the metric drift table.
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
	"bce/internal/prof"
	"bce/internal/report"
	"bce/internal/telemetry"
)

func main() {
	var (
		jsonOut    = flag.String("json", "", "write the canonical scorecard JSON to this file")
		htmlOut    = flag.String("html", "", "write the self-contained HTML dashboard to this file")
		baseline   = flag.String("baseline", "", "scorecard JSON to gate against: exit 1 if any metric drifts beyond -tol")
		compare    = flag.Bool("compare", false, "diff two manifests (old new) instead of rendering a scorecard")
		tol        = flag.Float64("tol", 1e-9, "drift tolerance in the metric's own unit (simulations are deterministic, so near-zero is exact)")
		quiet      = flag.Bool("quiet", false, "suppress the text scorecard on stdout")
		profDir    = prof.RegisterFlags()
		profileTop = flag.Int("profile-top", 10, "symbols per profile in the -compare attribution table")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		version    = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()
	logger, err := telemetry.InitLogging(*logLevel, *logFormat)
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
	if err := run(flag.Args(), *jsonOut, *htmlOut, *baseline, *compare, *tol, *quiet,
		*profDir, *profileTop); err != nil {
		fmt.Fprintln(os.Stderr, "bcereport:", err)
		os.Exit(1)
	}
}

func run(args []string, jsonOut, htmlOut, baseline string, compare bool, tol float64, quiet bool,
	profileDir string, profileTop int) error {
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
		attributeDrift(old, new, profileDir, profileTop)
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
	if htmlOut != "" {
		if err := os.WriteFile(htmlOut, []byte(report.WriteHTML(sc, manifests...)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bcereport: dashboard written to %s\n", htmlOut)
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

// attributeDrift explains where wall/CPU time moved between two
// manifests: it prints the headline wall/CPU deltas, then — when both
// manifests carry profile records and -profile-dir holds the bytes —
// a per-function delta table for every profile kind (cpu, heap)
// present on both sides. Purely advisory: problems degrade to stderr
// notes, never an exit status, because the drift verdict above is
// authoritative.
func attributeDrift(old, new *manifest.Manifest, profileDir string, top int) {
	if old.WallSeconds > 0 {
		fmt.Printf("wall %.2fs -> %.2fs (%+.1f%%), cpu %.2fs -> %.2fs\n",
			old.WallSeconds, new.WallSeconds,
			100*(new.WallSeconds-old.WallSeconds)/old.WallSeconds,
			old.CPUSeconds, new.CPUSeconds)
	}
	if len(old.Profiles) == 0 || len(new.Profiles) == 0 {
		if profileDir != "" {
			fmt.Fprintln(os.Stderr, "bcereport: note: one or both manifests carry no profile records (rerun the sweeps with -profile-dir)")
		}
		return
	}
	if profileDir == "" {
		fmt.Fprintln(os.Stderr, "bcereport: note: manifests carry profiles; pass -profile-dir to attribute the drift per function")
		return
	}
	ring, err := prof.OpenRing(profileDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcereport: note:", err)
		return
	}
	// Each process stores one profile per kind, so the kinds pair the
	// two runs' profiles exactly.
	oldByKind := map[string]string{}
	for _, r := range old.Profiles {
		oldByKind[r.Kind] = r.Digest
	}
	matched := 0
	for _, nr := range new.Profiles {
		od, ok := oldByKind[nr.Kind]
		if !ok {
			continue
		}
		d, err := ring.Diff(od, nr.Digest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcereport: note: %s profile: %v\n", nr.Kind, err)
			continue
		}
		matched++
		fmt.Printf("\nattribution for %s profile:\n%s", nr.Kind, d.Table(top))
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "bcereport: note: no profile kind is present in both manifests with bytes in the ring")
	}
}
