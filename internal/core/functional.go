// Package core is the experiment engine: it wires workloads,
// predictors, confidence estimators and the timing pipeline together
// and regenerates every table and figure in the paper's evaluation
// (see DESIGN.md §4 for the index).
//
// Two kinds of runs exist. Functional runs drive only the predictor
// and estimator state machines over the correct-path branch stream —
// exact for confidence metrics (Table 3, Figures 4-7) and orders of
// magnitude faster than timing. Timing runs use the full pipeline
// model (Tables 2, 4-6, Figures 8-9, the latency study).
package core

import (
	"context"
	"fmt"

	"bce/internal/confidence"
	"bce/internal/metrics"
	"bce/internal/predictor"
	"bce/internal/runner"
	"bce/internal/workload"
)

// FunctionalResult is what a functional confidence run produces.
type FunctionalResult struct {
	// Confusion is the estimator-vs-outcome confusion matrix over
	// measured branches.
	Confusion metrics.Confusion
	// Uops and Branches count the measured span.
	Uops     uint64
	Branches uint64
	// CorrectHist and WrongHist are the estimator raw-output density
	// functions for correctly predicted (CB) and mispredicted (MB)
	// branches, when histogram collection was requested.
	CorrectHist *metrics.Histogram
	WrongHist   *metrics.Histogram
}

// Merge folds another segment's results into r: counters and the
// confusion matrix add field-wise, histograms merge bin-wise (adopting
// o's histograms when r has none). Merging is commutative on the
// counters, but callers merge in segment order so histogram adoption
// is deterministic too.
func (r *FunctionalResult) Merge(o FunctionalResult) {
	r.Confusion.Merge(o.Confusion)
	r.Uops += o.Uops
	r.Branches += o.Branches
	if o.CorrectHist != nil {
		if r.CorrectHist == nil {
			r.CorrectHist, r.WrongHist = o.CorrectHist, o.WrongHist
		} else {
			r.CorrectHist.Merge(o.CorrectHist)
			r.WrongHist.Merge(o.WrongHist)
		}
	}
}

// MispredictsPer1KUops returns the Table 2 rate over the measured span.
func (r FunctionalResult) MispredictsPer1KUops() float64 {
	if r.Uops == 0 {
		return 0
	}
	return 1000 * float64(r.Confusion.Mispredicted()) / float64(r.Uops)
}

// FunctionalConfig configures a functional run.
type FunctionalConfig struct {
	// Bench is the benchmark name.
	Bench string
	// Predictor supplies the branch predictor; nil means the baseline
	// bimodal-gshare hybrid. With Segments > 1 prefer MakePredictor so
	// each segment gets fresh state.
	Predictor predictor.Predictor
	// Estimator supplies the confidence estimator; nil means
	// AlwaysHigh (useful when only the mispredict rate matters). With
	// Segments > 1 prefer MakeEstimator.
	Estimator confidence.Estimator
	// MakePredictor and MakeEstimator build fresh components per
	// segment; when set they take precedence over the instance fields.
	MakePredictor func() predictor.Predictor
	MakeEstimator func() confidence.Estimator
	// WarmupUops and MeasureUops size the run (defaults 100k / 300k,
	// mirroring the paper's warmup-then-measure discipline §4).
	WarmupUops, MeasureUops uint64
	// HistRange enables output-density collection over [-HistRange,
	// +HistRange] with HistBin-wide bins (Figures 4-7). Zero disables.
	HistRange int
	HistBin   int
	// Segments runs that many independent runtime-randomness segments
	// of the benchmark (fresh predictor and estimator each) and merges
	// the results — the paper's two-segment methodology (§4). Zero
	// means one. Requires Predictor/Estimator to be nil (defaults) or
	// freshly constructed per call; with Segments > 1 and explicit
	// instances the same instances carry over between segments.
	Segments int
}

// RunFunctional drives predictor and estimator over the benchmark's
// correct-path stream: for each conditional branch, predict, estimate,
// then immediately update and train in program order. This matches
// what the timing pipeline converges to for retired branches, without
// timing.
func RunFunctional(cfg FunctionalConfig) (FunctionalResult, error) {
	// A plan-mode (CollectJobs) pass skips functional work entirely:
	// functional runs are cheap, never distributed, and the planner
	// discards every result. Empty histograms stand in for requested
	// densities so downstream shaping code finds the structure it
	// expects.
	if planRecording() {
		var res FunctionalResult
		if cfg.HistRange > 0 {
			bin := cfg.HistBin
			if bin == 0 {
				bin = 10
			}
			res.CorrectHist = metrics.NewHistogram(-cfg.HistRange, cfg.HistRange, bin)
			res.WrongHist = metrics.NewHistogram(-cfg.HistRange, cfg.HistRange, bin)
		}
		return res, nil
	}
	segs := cfg.Segments
	if segs < 1 {
		segs = 1
	}
	if cfg.WarmupUops == 0 {
		cfg.WarmupUops = 100_000
	}
	if cfg.MeasureUops == 0 {
		cfg.MeasureUops = 300_000
	}
	var total FunctionalResult
	for seg := 0; seg < segs; seg++ {
		r, err := runFunctionalSegment(cfg, seg)
		if err != nil {
			return total, err
		}
		total.Merge(r)
	}
	if jobObserver != nil {
		c := total.Confusion
		observeJob(JobRecord{
			Key: functionalKey(cfg, segs), Kind: "functional",
			Bench: cfg.Bench, Confusion: &c,
		})
	}
	return total, nil
}

// functionalKey canonicalizes a functional run's configuration the way
// timingKey does for timing runs. Functional runs are not cached, so
// the key exists purely to identify the job in run manifests; the
// estimator is identified by building one throwaway instance (cheap
// next to the run itself).
func functionalKey(cfg FunctionalConfig, segs int) string {
	est := cfg.Estimator
	if cfg.MakeEstimator != nil {
		est = cfg.MakeEstimator()
	}
	name := "none"
	if est != nil {
		name = est.Name()
	}
	return runner.KeyOf("functional", 1, cfg.Bench, name,
		cfg.WarmupUops, cfg.MeasureUops, segs, cfg.HistRange, cfg.HistBin)
}

func runFunctionalSegment(cfg FunctionalConfig, segment int) (FunctionalResult, error) {
	gen, err := workload.Load(cfg.Bench, segment)
	if err != nil {
		return FunctionalResult{}, err
	}
	pred := cfg.Predictor
	if cfg.MakePredictor != nil {
		pred = cfg.MakePredictor()
	}
	if pred == nil {
		pred = predictor.NewBaselineHybrid()
	}
	est := cfg.Estimator
	if cfg.MakeEstimator != nil {
		est = cfg.MakeEstimator()
	}
	if est == nil {
		est = confidence.AlwaysHigh{}
	}

	var res FunctionalResult
	if cfg.HistRange > 0 {
		bin := cfg.HistBin
		if bin == 0 {
			bin = 10
		}
		res.CorrectHist = metrics.NewHistogram(-cfg.HistRange, cfg.HistRange, bin)
		res.WrongHist = metrics.NewHistogram(-cfg.HistRange, cfg.HistRange, bin)
	}

	total := cfg.WarmupUops + cfg.MeasureUops
	for n := uint64(0); n < total; n++ {
		u, ok := gen.Next()
		if !ok {
			return res, fmt.Errorf("core: %s stream ended early", cfg.Bench)
		}
		measuring := n >= cfg.WarmupUops
		if measuring {
			res.Uops++
		}
		if !u.Kind.IsConditional() {
			continue
		}
		predTaken := pred.Predict(u.PC)
		misp := predTaken != u.Taken
		if or, isOracle := est.(confidence.TraceOracle); isOracle {
			or.ObserveNext(misp)
		}
		tok := est.Estimate(u.PC, predTaken)
		pred.Update(u.PC, u.Taken)
		est.Train(u.PC, tok, misp, u.Taken)
		if !measuring {
			continue
		}
		res.Branches++
		res.Confusion.Add(misp, tok.Band.Low())
		if res.CorrectHist != nil {
			if misp {
				res.WrongHist.Add(tok.Output)
			} else {
				res.CorrectHist.Add(tok.Output)
			}
		}
	}
	return res, nil
}

// AverageConfusion runs the same functional configuration over every
// benchmark and merges the confusion matrices, the aggregation the
// paper's Table 3 reports. makeEst builds a fresh estimator per
// benchmark (estimator state must not leak across benchmarks);
// makePred likewise (nil means baseline hybrid per benchmark).
func AverageConfusion(
	makePred func() predictor.Predictor,
	makeEst func() confidence.Estimator,
	warmup, measure uint64,
) (metrics.Confusion, error) {
	return mergedConfusion(func(_ context.Context, bench string) (FunctionalResult, error) {
		cfg := FunctionalConfig{
			Bench:       bench,
			Estimator:   makeEst(),
			WarmupUops:  warmup,
			MeasureUops: measure,
		}
		if makePred != nil {
			cfg.Predictor = makePred()
		}
		return RunFunctional(cfg)
	})
}

// mergedConfusion runs one functional job per benchmark in parallel
// and merges the confusion matrices in workload.Names() order, so the
// aggregate is identical under any worker count.
func mergedConfusion(job func(ctx context.Context, bench string) (FunctionalResult, error)) (metrics.Confusion, error) {
	var total metrics.Confusion
	perBench, err := mapBench(job)
	if err != nil {
		return total, err
	}
	for _, r := range perBench {
		total.Merge(r.Confusion)
	}
	return total, nil
}

// AverageConfusionSized is AverageConfusion driven by a Sizes value:
// run lengths and segment count come from sz, and components are
// rebuilt fresh for every (benchmark, segment) pair.
func AverageConfusionSized(
	makePred func() predictor.Predictor,
	makeEst func() confidence.Estimator,
	sz Sizes,
) (metrics.Confusion, error) {
	return mergedConfusion(func(_ context.Context, bench string) (FunctionalResult, error) {
		return RunFunctional(FunctionalConfig{
			Bench:         bench,
			MakeEstimator: makeEst,
			MakePredictor: makePred,
			WarmupUops:    sz.FuncWarmup,
			MeasureUops:   sz.FuncMeasure,
			Segments:      sz.segments(),
		})
	})
}

// AverageConfusionLinked is AverageConfusion for estimators that read
// the predictor's own state (Smith's self-confidence estimator): make
// returns a linked (predictor, estimator) pair per benchmark.
func AverageConfusionLinked(
	make func() (predictor.Predictor, confidence.Estimator),
	warmup, measure uint64,
) (metrics.Confusion, error) {
	return mergedConfusion(func(_ context.Context, bench string) (FunctionalResult, error) {
		pred, est := make()
		return RunFunctional(FunctionalConfig{
			Bench:       bench,
			Predictor:   pred,
			Estimator:   est,
			WarmupUops:  warmup,
			MeasureUops: measure,
		})
	})
}
