package core

import (
	"context"
	"fmt"
	"strings"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/runner"
	"bce/internal/stats"
	"bce/internal/workload"
)

// This file holds the ablation studies DESIGN.md calls out beyond the
// paper's own tables: which design choices of the CIC estimator
// actually carry its results.

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Label string
	// PVN and Spec are the confidence metrics (functional runs).
	PVN, Spec float64
	// U and P are gating metrics when the ablation is a timing run
	// (zero for functional-only ablations).
	U, P float64
}

// AblationResult is a titled list of rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the ablation table.
func (a *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", a.Title)
	fmt.Fprintf(&b, "%-34s %8s %8s %8s %8s\n", "config", "PVN%", "Spec%", "U%", "P%")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-34s %8.1f %8.1f %8.1f %8.1f\n", r.Label, r.PVN, r.Spec, r.U, r.P)
	}
	return b.String()
}

// AblateTrainingSignal reruns Table 3's comparison with every training
// signal in the repository: CIC (correct/incorrect), TNT
// (taken/not-taken), plus the fused variants — quantifying §5.3's
// claim that the training signal, not the perceptron itself, is what
// makes the estimator work.
func AblateTrainingSignal(sz Sizes) (*AblationResult, error) {
	configs := []struct {
		label string
		mk    func() confidence.Estimator
	}{
		{"cic (correct/incorrect)", func() confidence.Estimator { return confidence.NewCIC(0) }},
		{"tnt λ=25 (taken/not-taken)", func() confidence.Estimator { return confidence.NewTNT(25) }},
		{"tnt λ=75 (taken/not-taken)", func() confidence.Estimator { return confidence.NewTNT(75) }},
		{"tnt λ=150 (taken/not-taken)", func() confidence.Estimator { return confidence.NewTNT(150) }},
		{"fused-both(jrs15, cic0)", func() confidence.Estimator {
			return confidence.NewFused(confidence.NewEnhancedJRS(15), confidence.NewCIC(0), confidence.FuseBoth)
		}},
		{"fused-either(jrs15, cic0)", func() confidence.Estimator {
			return confidence.NewFused(confidence.NewEnhancedJRS(15), confidence.NewCIC(0), confidence.FuseEither)
		}},
	}
	res := &AblationResult{Title: "training signal and estimator fusion (functional)"}
	for _, cfg := range configs {
		c, err := AverageConfusionSized(nil, cfg.mk, sz)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: cfg.label, PVN: 100 * c.PVN(), Spec: 100 * c.Spec(),
		})
	}
	return res, nil
}

// AblateReversalSource compares branch reversal driven by the CIC
// strongly-low band against naive "reverse everything flagged"
// policies built from the binary estimators — the experiment behind
// §5.3's conclusion that only the multi-valued CIC output supports
// reversal. Reported as U/P on the baseline machine.
func AblateReversalSource(sz Sizes) (*AblationResult, error) {
	variants := []variant{
		{
			Label: "cic bands (reverse y>=50, gate [-75,50))",
			Of: func(bench string) TimingSpec {
				return TimingSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					EstSpec: confidence.SpecCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50}),
					Gating:  gating.PL(2), Reversal: true,
				}
			},
		},
		{
			Label: "reverse all low-conf jrs λ=15",
			Of: func(bench string) TimingSpec {
				return TimingSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					EstSpec:  confidence.SpecPromoteLow(confidence.SpecJRS(15)),
					Reversal: true,
				}
			},
		},
		{
			Label: "reverse all low-conf tnt λ=75",
			Of: func(bench string) TimingSpec {
				return TimingSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					EstSpec:  confidence.SpecPromoteLow(confidence.SpecTNT(75)),
					Reversal: true,
				}
			},
		},
		{
			Label: "gating-only (demoted cic bands)",
			Of: func(bench string) TimingSpec {
				return TimingSpec{
					Bench: bench, Machine: config.Baseline40x4(),
					EstSpec: confidence.SpecDemoteStrong(confidence.SpecCICWith(
						confidence.CICConfig{Lambda: -75, Reversal: 50})),
					Gating: gating.PL(2),
				}
			},
		},
	}
	rows, err := gatingSweep(sz, func(bench string) TimingSpec {
		return TimingSpec{Bench: bench, Machine: config.Baseline40x4()}
	}, variants)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "what drives branch reversal (timing, 40c4w)"}
	for _, r := range rows {
		res.Rows = append(res.Rows, AblationRow{Label: r.Label, U: r.U, P: r.P})
	}
	return res, nil
}

// AblateTrainingSite compares retire-time confidence training (the
// paper's §3 choice) against speculative fetch-time training, using
// the same estimator and gating configuration.
func AblateTrainingSite(sz Sizes) (*AblationResult, error) {
	type acc struct {
		u, p, pvn, spec float64
		n               int
	}
	perBench, err := mapBench(func(ctx context.Context, bench string) ([2]acc, error) {
		var out [2]acc
		base, err := runTiming(ctx, TimingSpec{Bench: bench, Machine: config.Baseline40x4()}, sz)
		if err != nil {
			return out, err
		}
		for i, spec := range []bool{false, true} {
			s := TimingSpec{
				Bench: bench, Machine: config.Baseline40x4(),
				EstSpec: confidence.SpecCIC(0),
				Gating:  gating.PL(1),
			}
			r, err := runTimingSpecTrain(ctx, s, sz, spec)
			if err != nil {
				return out, err
			}
			out[i] = acc{
				u:    r.UopReductionPercent(base),
				p:    r.PerfLossPercent(base),
				pvn:  100 * r.Confusion.PVN(),
				spec: 100 * r.Confusion.Spec(),
				n:    1,
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var retireAcc, fetchAcc acc
	for _, pair := range perBench {
		for i, a := range []*acc{&retireAcc, &fetchAcc} {
			a.u += pair[i].u
			a.p += pair[i].p
			a.pvn += pair[i].pvn
			a.spec += pair[i].spec
			a.n += pair[i].n
		}
	}
	mk := func(label string, a acc) AblationRow {
		n := float64(a.n)
		return AblationRow{Label: label, PVN: a.pvn / n, Spec: a.spec / n, U: a.u / n, P: a.p / n}
	}
	return &AblationResult{
		Title: "confidence training site (CIC λ=0, PL1, 40c4w)",
		Rows: []AblationRow{
			mk("train at retirement (paper)", retireAcc),
			mk("train speculatively at fetch", fetchAcc),
		},
	}, nil
}

// AblateTrainThreshold sweeps the CIC training threshold T, the one
// free parameter of the paper's update rule.
func AblateTrainThreshold(sz Sizes) (*AblationResult, error) {
	res := &AblationResult{Title: "CIC training threshold T (functional, λ=0)"}
	for _, T := range []int{5, 20, 50, 75, 120, 200} {
		tt := T
		c, err := AverageConfusionSized(nil, func() confidence.Estimator {
			return confidence.NewCICWith(confidence.CICConfig{
				Lambda: 0, Reversal: confidence.DisableReversal, TrainThreshold: tt,
			})
		}, sz)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fmt.Sprintf("T=%d", tt), PVN: 100 * c.PVN(), Spec: 100 * c.Spec(),
		})
	}
	return res, nil
}

// AblateHistoryLength sweeps the CIC history length at fixed table
// budget orientation (complements Table 6, which co-varies size).
func AblateHistoryLength(sz Sizes) (*AblationResult, error) {
	res := &AblationResult{Title: "CIC history length (functional, λ=0, 128 entries, 8-bit weights)"}
	for _, h := range []int{8, 16, 24, 32, 48, 64} {
		hh := h
		c, err := AverageConfusionSized(nil, func() confidence.Estimator {
			return confidence.NewCICWith(confidence.CICConfig{
				HistoryLen: hh, Lambda: 0, Reversal: confidence.DisableReversal,
			})
		}, sz)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fmt.Sprintf("H=%d", hh), PVN: 100 * c.PVN(), Spec: 100 * c.Spec(),
		})
	}
	return res, nil
}

// VariabilityReport quantifies per-benchmark spread for one gating
// configuration: U and P summaries plus bootstrap CIs of the means,
// the honesty check behind every averaged row in Tables 4-6.
type VariabilityReport struct {
	Label        string
	USummary     stats.Summary
	PSummary     stats.Summary
	UCI, PCI     stats.Interval
	PerBenchmark map[string][2]float64 // bench -> {U, P}
}

// Variability measures the per-benchmark distribution of (U, P) for
// CIC gating at the given λ and PL on the baseline machine.
func Variability(lambda, pl int, sz Sizes) (*VariabilityReport, error) {
	rep := &VariabilityReport{
		Label:        fmt.Sprintf("cic λ=%d PL%d, 40c4w", lambda, pl),
		PerBenchmark: make(map[string][2]float64),
	}
	perBench, err := mapBench(func(ctx context.Context, bench string) ([2]float64, error) {
		base, err := runTiming(ctx, TimingSpec{Bench: bench, Machine: config.Baseline40x4()}, sz)
		if err != nil {
			return [2]float64{}, err
		}
		r, err := runTiming(ctx, TimingSpec{
			Bench: bench, Machine: config.Baseline40x4(),
			EstSpec: confidence.SpecCIC(lambda),
			Gating:  gating.PL(pl),
		}, sz)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{r.UopReductionPercent(base), r.PerfLossPercent(base)}, nil
	})
	if err != nil {
		return nil, err
	}
	var us, ps []float64
	for i, name := range workload.Names() {
		rep.PerBenchmark[name] = perBench[i]
		us = append(us, perBench[i][0])
		ps = append(ps, perBench[i][1])
	}
	rep.USummary = stats.Summarize(us)
	rep.PSummary = stats.Summarize(ps)
	// The bootstrap resampling seeds derive from the report label, so
	// the CIs are stable across runs and worker counts but decorrelated
	// between the U and P resamples.
	rep.UCI = stats.BootstrapMeanCI(us, 0.95, 2000, runner.Seed("variability", rep.Label, "u"))
	rep.PCI = stats.BootstrapMeanCI(ps, 0.95, 2000, runner.Seed("variability", rep.Label, "p"))
	return rep, nil
}

// String renders the variability report.
func (v *VariabilityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-benchmark variability for %s\n", v.Label)
	fmt.Fprintf(&b, "  U: %s   95%% CI of mean %s\n", v.USummary, v.UCI)
	fmt.Fprintf(&b, "  P: %s   95%% CI of mean %s\n", v.PSummary, v.PCI)
	for _, name := range workload.Names() {
		uv := v.PerBenchmark[name]
		fmt.Fprintf(&b, "  %-9s U=%6.1f%%  P=%6.1f%%\n", name, uv[0], uv[1])
	}
	return b.String()
}

// AblateJRSIndexing compares the original JRS estimator against
// Grunwald et al.'s enhanced variant (prediction folded into the
// index) — the §2.3 claim that enhancement improves the baseline we
// measure the perceptron against.
func AblateJRSIndexing(sz Sizes) (*AblationResult, error) {
	res := &AblationResult{Title: "JRS indexing: original vs enhanced (functional)"}
	for _, cfg := range []struct {
		label    string
		enhanced bool
		lambda   int
	}{
		{"original λ=7", false, 7},
		{"enhanced λ=7", true, 7},
		{"original λ=15", false, 15},
		{"enhanced λ=15", true, 15},
	} {
		c := cfg
		conf, err := AverageConfusionSized(nil, func() confidence.Estimator {
			return confidence.NewJRS(confidence.JRSConfig{Lambda: c.lambda, Enhanced: c.enhanced})
		}, sz)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: c.label, PVN: 100 * conf.PVN(), Spec: 100 * conf.Spec(),
		})
	}
	return res, nil
}
