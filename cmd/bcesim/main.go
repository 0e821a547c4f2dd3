// Command bcesim runs timing simulations and prints their metrics:
// one or more benchmarks on a machine with a chosen predictor,
// confidence estimator and gating/reversal configuration.
//
// Examples:
//
//	bcesim -bench gzip
//	bcesim -bench all                                  # every benchmark, in parallel
//	bcesim -bench gzip,mcf,twolf -workers 2 -progress
//	bcesim -bench mcf -machine 20c8w -estimator cic -lambda 0 -pl 1
//	bcesim -bench twolf -estimator cic -lambda -75 -reversal 50 -pl 2
//	bcesim -bench gcc -estimator jrs -lambda 15 -pl 2
//	bcesim -bench vpr -perfect
//	bcesim -replay gzip.bcet -estimator cic -pl 1
//
// Observability (see docs/observability.md):
//
//	bcesim -bench gzip -estimator cic -pl 1 -trace out.json -audit out.csv
//	bcesim -bench gzip -stats
//	bcesim -bench all -debug-addr localhost:6060 -progress
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/manifest"
	"bce/internal/pipeline"
	"bce/internal/predictor"
	"bce/internal/prof"
	"bce/internal/runner"
	"bce/internal/telemetry"
	"bce/internal/trace"
	"bce/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "gzip", "benchmark name, comma-separated list, or \"all\" (gzip, vpr, gcc, mcf, crafty, link, eon, perlbmk, gap, vortex, bzip, twolf)")
		replayIn  = flag.String("replay", "", "replay a recorded .bcet trace instead of a synthetic benchmark")
		machine   = flag.String("machine", "40c4w", "machine model (40c4w, 20c4w, 20c8w)")
		predName  = flag.String("predictor", "bimodal-gshare", "branch predictor (bimodal-gshare, gshare-perceptron)")
		estName   = flag.String("estimator", "none", "confidence estimator (none, cic, tnt, jrs, pattern)")
		lambda    = flag.Int("lambda", 0, "estimator low-confidence threshold λ")
		reversal  = flag.Int("reversal", 0, "CIC reversal threshold (0 disables; enables branch reversal when set)")
		pl        = flag.Int("pl", 0, "pipeline gating branch-counter threshold (0 disables)")
		latency   = flag.Int("latency", 0, "estimator latency in cycles (§5.4.2)")
		warmup    = flag.Uint64("warmup", 60_000, "warmup uops")
		measure   = flag.Uint64("measure", 200_000, "measured uops")
		perfect   = flag.Bool("perfect", false, "oracle branch prediction")
		workers   = flag.Int("workers", 0, "parallel simulations for multi-benchmark runs (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "report multi-benchmark progress and ETA on stderr")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON timeline of the measured span (open in Perfetto or chrome://tracing; single benchmark or -replay only)")
		auditOut  = flag.String("audit", "", "write the per-branch-PC confidence audit CSV (single benchmark or -replay only)")
		stats     = flag.Bool("stats", false, "print the telemetry counter/histogram registry after the run")
		debugAddr = flag.String("debug-addr", "", "serve pprof + expvar + live sweep stats on this address (e.g. localhost:6060)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		profDir   = prof.RegisterFlags()
		version   = flag.Bool("version", false, "print the bce_build_info identity line and exit")
	)
	flag.Parse()

	logger, err := telemetry.InitLogging(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcesim:", err)
		os.Exit(2)
	}
	logger = logger.With("bin", "bcesim")
	slog.SetDefault(logger)
	telemetry.RegisterBuildLabel("revision", manifest.ShortRevision())
	telemetry.RegisterBuildLabel("trace_format", fmt.Sprint(trace.FormatVersion))
	if *version {
		fmt.Println(telemetry.BuildInfoLine())
		return
	}

	stopProf, err := prof.Enable(*profDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcesim:", err)
		os.Exit(2)
	}
	defer stopProf()

	if *debugAddr != "" {
		srv, err := telemetry.StartDebug(*debugAddr, map[string]func() any{
			"bce_runner": func() any { return runner.LiveSnapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcesim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("debug endpoint up", "url", "http://"+srv.Addr()+"/debug/")
	}

	cfg := simConfig{
		machine: *machine, predName: *predName, estName: *estName,
		lambda: *lambda, reversal: *reversal, pl: *pl, latency: *latency,
		warmup: *warmup, measure: *measure, perfect: *perfect,
		tracePath: *traceOut, auditPath: *auditOut, stats: *stats,
	}
	// First SIGINT/SIGTERM cancels multi-benchmark fan-outs gracefully;
	// a second kills the process.
	ctx, stop := runner.ShutdownContext(context.Background())
	defer stop()
	if err := run(ctx, *bench, *replayIn, cfg, *workers, *progress); err != nil {
		if errors.Is(err, context.Canceled) {
			ls := runner.LiveSnapshot()
			fmt.Fprintf(os.Stderr, "bcesim: interrupted: %d simulations finished before shutdown\n", ls.JobsDone)
		}
		// Store the profiles explicitly: a failed run's profile is the
		// one worth keeping, and os.Exit skips defers.
		stopProf()
		fmt.Fprintln(os.Stderr, "bcesim:", err)
		os.Exit(1)
	}
}

// timeUnit is the rounding granularity for progress timestamps.
const timeUnit = time.Second

// simConfig is the shared simulation configuration; stateful
// components (predictor, estimator) are built fresh per simulation.
type simConfig struct {
	machine, predName, estName string
	lambda, reversal, pl       int
	latency                    int
	warmup, measure            uint64
	perfect                    bool
	tracePath, auditPath       string
	stats                      bool
}

func (c simConfig) wantsSinks() bool { return c.tracePath != "" || c.auditPath != "" }

func run(ctx context.Context, bench, replayIn string, cfg simConfig, workers int, progress bool) error {
	if replayIn != "" {
		report, err := simTrace(replayIn, cfg)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	}
	benches, err := parseBenches(bench)
	if err != nil {
		return err
	}
	if len(benches) > 1 && cfg.wantsSinks() {
		return fmt.Errorf("-trace/-audit need a single benchmark or -replay (got %d benchmarks)", len(benches))
	}
	if len(benches) == 1 {
		report, err := simBench(benches[0], cfg)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil
	}
	// Multi-benchmark fan-out on the shared runner pool. Each job is a
	// self-contained simulation (workload seeds derive from the
	// benchmark profile), so results are identical under any -workers.
	opts := runner.Options{Workers: workers}
	if progress {
		opts.Progress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "bcesim: %d/%d done, elapsed %s, eta %s\n",
				p.Done, p.Total, p.Elapsed.Round(timeUnit), p.ETA.Round(timeUnit))
		}
	}
	reports, err := runner.Map(ctx, runner.New(opts), benches,
		func(_ context.Context, _ int, b string) (string, error) {
			return simBench(b, cfg)
		})
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Print(r)
	}
	return nil
}

func parseBenches(bench string) ([]string, error) {
	if bench == "all" {
		return workload.Names(), nil
	}
	var out []string
	for _, b := range strings.Split(bench, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if _, err := workload.ByName(b); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks in %q", bench)
	}
	return out, nil
}

// sinkSet holds the exporters attached to one simulation.
type sinkSet struct {
	sink      telemetry.Sink
	trace     *telemetry.ChromeTrace
	traceFile *os.File
	audit     *telemetry.Audit
	auditPath string
}

// openSinks builds the exporters the configuration asks for; the
// returned set's sink is nil when none are requested, keeping the
// simulator on its zero-cost path.
func openSinks(cfg simConfig) (*sinkSet, error) {
	s := &sinkSet{auditPath: cfg.auditPath}
	var sinks []telemetry.Sink
	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return nil, err
		}
		s.traceFile = f
		s.trace = telemetry.NewChromeTrace(f)
		sinks = append(sinks, s.trace)
	}
	if cfg.auditPath != "" {
		s.audit = telemetry.NewAudit()
		sinks = append(sinks, s.audit)
	}
	s.sink = telemetry.Multi(sinks...)
	return s, nil
}

// finish flushes the exporters to their files.
func (s *sinkSet) finish() error {
	if s.trace != nil {
		if err := s.trace.Close(); err != nil {
			return err
		}
		if err := s.traceFile.Close(); err != nil {
			return err
		}
	}
	if s.audit != nil {
		f, err := os.Create(s.auditPath)
		if err != nil {
			return err
		}
		if err := s.audit.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// makeOptions builds pipeline options with fresh stateful components.
func makeOptions(cfg simConfig) (pipeline.Options, bool, error) {
	m, err := config.ByName(cfg.machine)
	if err != nil {
		return pipeline.Options{}, false, err
	}
	opt := pipeline.Options{Machine: m, Perfect: cfg.perfect}

	switch cfg.predName {
	case "bimodal-gshare":
		opt.Predictor = predictor.NewBaselineHybrid()
	case "gshare-perceptron":
		opt.Predictor = predictor.NewGsharePerceptronHybrid()
	default:
		return pipeline.Options{}, false, fmt.Errorf("unknown predictor %q", cfg.predName)
	}

	useReversal := false
	switch cfg.estName {
	case "none":
	case "cic":
		c := confidence.CICConfig{Lambda: cfg.lambda, Reversal: confidence.DisableReversal}
		if cfg.reversal != 0 {
			c.Reversal = cfg.reversal
			useReversal = true
		}
		opt.Estimator = confidence.NewCICWith(c)
	case "tnt":
		opt.Estimator = confidence.NewTNT(cfg.lambda)
	case "jrs":
		opt.Estimator = confidence.NewEnhancedJRS(cfg.lambda)
	case "pattern":
		opt.Estimator = confidence.NewPattern(0, 0)
	default:
		return pipeline.Options{}, false, fmt.Errorf("unknown estimator %q", cfg.estName)
	}
	opt.Reversal = useReversal
	opt.Gating = gating.Policy{Threshold: cfg.pl, Latency: cfg.latency}
	return opt, useReversal, nil
}

func simBench(bench string, cfg simConfig) (string, error) {
	opt, useReversal, err := makeOptions(cfg)
	if err != nil {
		return "", err
	}
	gen, err := workload.Load(bench, 0)
	if err != nil {
		return "", err
	}
	sinks, err := openSinks(cfg)
	if err != nil {
		return "", err
	}
	opt.Sink = sinks.sink
	sim := pipeline.New(opt, gen)
	out, err := report(sim, bench, cfg, useReversal)
	if err != nil {
		return "", err
	}
	return out, sinks.finish()
}

func simTrace(replayIn string, cfg simConfig) (string, error) {
	opt, useReversal, err := makeOptions(cfg)
	if err != nil {
		return "", err
	}
	f, err := os.Open(replayIn)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sinks, err := openSinks(cfg)
	if err != nil {
		return "", err
	}
	opt.Sink = sinks.sink
	replay := workload.NewReplay(trace.NewReader(f))
	sim := pipeline.NewFromSource(opt, replay, replay.WrongPath(1))
	out, err := report(sim, replayIn, cfg, useReversal)
	if err != nil {
		return "", err
	}
	// A corrupt recording ends the reader mid-stream and Replay loops
	// its truncated prefix; the run "succeeds" on garbage. Surface the
	// decode error (with record index and PC context) instead.
	if err := replay.Err(); err != nil {
		return "", fmt.Errorf("replaying %s: %w", replayIn, err)
	}
	return out, sinks.finish()
}

func report(sim *pipeline.Sim, bench string, cfg simConfig, useReversal bool) (string, error) {
	sim.Run(cfg.warmup)
	r := sim.Run(cfg.measure)

	var b strings.Builder
	fmt.Fprintf(&b, "bench=%s machine=%s predictor=%s estimator=%s\n", bench, cfg.machine, cfg.predName, cfg.estName)
	fmt.Fprintf(&b, "  cycles             %12d\n", r.Cycles)
	fmt.Fprintf(&b, "  retired uops       %12d   (IPC %.3f)\n", r.Retired, r.IPC())
	fmt.Fprintf(&b, "  executed uops      %12d   (wrong-path %d)\n", r.Executed, r.WrongPathExecuted)
	fmt.Fprintf(&b, "  fetched uops       %12d\n", r.Fetched)
	fmt.Fprintf(&b, "  branches retired   %12d   (%.2f mispredicts/Kuop)\n", r.RetiredBranches, r.MispredictsPer1KUops())
	if cfg.estName != "none" {
		fmt.Fprintf(&b, "  confidence         PVN %.1f%%  Spec %.1f%%  Sens %.1f%%  PVP %.1f%%\n",
			100*r.Confusion.PVN(), 100*r.Confusion.Spec(),
			100*r.Confusion.Sens(), 100*r.Confusion.PVP())
	}
	if cfg.pl > 0 {
		fmt.Fprintf(&b, "  gating             %d stalled cycles in %d episodes\n", r.GatedCycles, r.GateEvents)
	}
	if useReversal {
		fmt.Fprintf(&b, "  reversals          %d (%d corrected a misprediction)\n", r.Reversals, r.ReversalsGood)
	}
	// Cache statistics.
	h := sim.Hierarchy()
	l1h, l1m := h.L1().Stats()
	l2h, l2m := h.L2().Stats()
	fmt.Fprintf(&b, "  L1D                %.1f%% hit (%d/%d)\n", 100*float64(l1h)/float64(l1h+l1m), l1h, l1h+l1m)
	fmt.Fprintf(&b, "  L2                 %.1f%% hit (%d/%d)\n", 100*float64(l2h)/float64(l2h+l2m), l2h, l2h+l2m)
	if pf := h.Prefetcher(); pf != nil {
		iss, adv := pf.Stats()
		fmt.Fprintf(&b, "  prefetcher         %d fills, %d stream advances\n", iss, adv)
	}
	if cfg.stats {
		b.WriteString("  telemetry registry (measured span):\n")
		for _, line := range strings.Split(strings.TrimRight(sim.Telemetry().String(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String(), nil
}
