package core

import (
	"context"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/pipeline"
	"bce/internal/predictor"
	"bce/internal/runner"
	"bce/internal/workload"
)

// Sizes groups the run lengths shared by the timing experiments. The
// paper runs 30M-instruction traces with 10M warmup (§4); the default
// here is scaled down to keep full-suite regeneration in minutes while
// staying well past estimator warmup. Override for higher fidelity.
type Sizes struct {
	// Warmup and Measure are uop counts for timing runs.
	Warmup, Measure uint64
	// FuncWarmup and FuncMeasure are uop counts for functional
	// (confidence-only) runs, which are much cheaper.
	FuncWarmup, FuncMeasure uint64
	// Segments is the number of independent trace segments to run and
	// merge per benchmark (the paper uses two, §4). Zero means one.
	Segments int
}

func (s Sizes) segments() int {
	if s.Segments < 1 {
		return 1
	}
	return s.Segments
}

// DefaultSizes returns the standard experiment sizes.
func DefaultSizes() Sizes {
	return Sizes{
		Warmup: 60_000, Measure: 200_000,
		FuncWarmup: 100_000, FuncMeasure: 400_000,
	}
}

// QuickSizes returns reduced sizes for tests and smoke runs.
func QuickSizes() Sizes {
	return Sizes{
		Warmup: 10_000, Measure: 30_000,
		FuncWarmup: 20_000, FuncMeasure: 60_000,
	}
}

// PredictorKind selects the baseline branch predictor for an
// experiment (§5.2 compares two).
type PredictorKind int

const (
	// BimodalGshare is the Table 1 baseline predictor.
	BimodalGshare PredictorKind = iota
	// GsharePerceptron is the better baseline of §5.2.
	GsharePerceptron
)

// String names the predictor kind.
func (k PredictorKind) String() string {
	if k == GsharePerceptron {
		return "gshare-perceptron"
	}
	return "bimodal-gshare"
}

func (k PredictorKind) make() predictor.Predictor {
	if k == GsharePerceptron {
		return predictor.NewGsharePerceptronHybrid()
	}
	return predictor.NewBaselineHybrid()
}

// TimingSpec is one timing simulation: a benchmark on a machine with a
// predictor, an optional estimator and the gating/reversal settings.
type TimingSpec struct {
	Bench     string
	Machine   config.Machine
	Predictor PredictorKind
	// EstSpec declaratively describes the confidence estimator (nil or
	// kind "none" = no estimator). A spec is JSON-serializable, so every
	// job can cross a process boundary (internal/dist ships sweeps to
	// remote workers).
	EstSpec  *confidence.Spec
	Gating   gating.Policy
	Reversal bool
	Perfect  bool
}

// makeEstimator resolves EstSpec into an estimator factory, nil for no
// estimator. An invalid EstSpec fails here, before any simulation
// runs.
func (s TimingSpec) makeEstimator() (func() confidence.Estimator, error) {
	if _, err := s.EstSpec.Build(); err != nil {
		return nil, err
	}
	if s.EstSpec == nil || s.EstSpec.Kind == confidence.KindNone {
		return nil, nil
	}
	spec := s.EstSpec
	return func() confidence.Estimator {
		est, err := spec.Build()
		if err != nil {
			// Unreachable: the spec validated above and Build is
			// deterministic.
			panic(err)
		}
		return est
	}, nil
}

// runTiming executes one spec and returns the measured-span counters.
// Results are served through the suite-wide content-addressed cache:
// the ungated baseline a dozen tables share runs once, not once per
// caller. The context classifies the enclosing runner job for
// progress ETAs (cache hit vs fresh simulation).
func runTiming(ctx context.Context, spec TimingSpec, sz Sizes) (metrics.Run, error) {
	return runTimingSpecTrain(ctx, spec, sz, false)
}

// runTimingSpecTrain is runTiming with control over the confidence
// training site (retire vs speculative fetch-time, an ablation knob).
func runTimingSpecTrain(ctx context.Context, spec TimingSpec, sz Sizes, speculativeTrain bool) (metrics.Run, error) {
	mkEst, err := spec.makeEstimator()
	if err != nil {
		return metrics.Run{}, err
	}
	key := timingKey(spec, mkEst, sz, speculativeTrain)
	// A collecting (plan-mode) sweep records the job instead of running
	// it; the zero result it returns feeds aggregation arithmetic whose
	// output the planner discards.
	if planRecording() {
		planRecord(spec, sz, speculativeTrain, key)
		return metrics.Run{}, nil
	}
	fresh := false
	r, err := resultCache.Do(key, func() (metrics.Run, error) {
		fresh = true
		return runTimingUncached(spec, mkEst, sz, speculativeTrain)
	})
	// A job is "cached" only if every simulation it asked for was
	// served from the cache; one fresh run re-latches it as computed.
	if fresh {
		runner.MarkComputed(ctx)
	} else {
		runner.MarkCached(ctx)
	}
	if err == nil {
		run := r
		observeJob(JobRecord{Key: key, Kind: "timing", Bench: spec.Bench, Cached: !fresh, Run: &run})
	}
	return r, err
}

// runTimingUncached executes the simulation itself. When sz requests
// multiple segments, each runs on a fresh machine over an independent
// runtime-randomness stream of the same static program — the segment
// index flows into the workload's seed derivation, so every
// (config, segment) job draws deterministic, order-independent
// randomness — and the counters are merged (the paper's
// two-segments-per-benchmark methodology, §4).
func runTimingUncached(spec TimingSpec, mkEst func() confidence.Estimator, sz Sizes, speculativeTrain bool) (metrics.Run, error) {
	var merged metrics.Run
	for seg := 0; seg < sz.segments(); seg++ {
		gen, err := workload.Load(spec.Bench, seg)
		if err != nil {
			return metrics.Run{}, err
		}
		opt := pipeline.Options{
			Machine:  spec.Machine,
			Perfect:  spec.Perfect,
			Reversal: spec.Reversal,
		}
		if !spec.Perfect {
			opt.Predictor = spec.Predictor.make()
		}
		if mkEst != nil {
			opt.Estimator = mkEst()
		}
		opt.Gating = spec.Gating
		opt.SpeculativeCETrain = speculativeTrain
		sim := pipeline.New(opt, gen)
		sim.Run(sz.Warmup)
		merged.Merge(sim.Run(sz.Measure))
	}
	return merged, nil
}

// GatingResult is one (U, P) measurement: the percentage reduction in
// executed uops and the percentage performance loss versus the ungated
// baseline, averaged across benchmarks as the paper reports.
type GatingResult struct {
	// Label identifies the configuration (e.g. "λ=0 PL1").
	Label string
	// U is the mean percentage reduction in executed uops.
	U float64
	// P is the mean percentage performance loss (negative = speedup).
	P float64
}

// variant pairs a display label with a per-benchmark timing spec.
type variant struct {
	Label string
	Of    func(bench string) TimingSpec
}

// gatingSweep measures U and P for each estimator configuration
// against per-benchmark ungated baselines, averaged across benchmarks
// as the paper reports. baselineOf must yield the ungated spec for a
// benchmark; variants yields the gated specs. Each benchmark is one
// runner job producing its per-variant (U, P) pairs; the average is a
// serial reduction over the ordered job results, so the output is
// bit-identical under any worker count.
func gatingSweep(sz Sizes, baselineOf func(bench string) TimingSpec, variants []variant) ([]GatingResult, error) {
	type up struct{ u, p float64 }
	perBench, err := mapBench(func(ctx context.Context, bench string) ([]up, error) {
		base, err := runTiming(ctx, baselineOf(bench), sz)
		if err != nil {
			return nil, err
		}
		rows := make([]up, len(variants))
		for i, v := range variants {
			r, err := runTiming(ctx, v.Of(bench), sz)
			if err != nil {
				return nil, err
			}
			rows[i] = up{u: r.UopReductionPercent(base), p: r.PerfLossPercent(base)}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]GatingResult, len(variants))
	n := float64(len(perBench))
	for i, v := range variants {
		out[i].Label = v.Label
		for _, rows := range perBench {
			out[i].U += rows[i].u
			out[i].P += rows[i].p
		}
		out[i].U /= n
		out[i].P /= n
	}
	return out, nil
}
