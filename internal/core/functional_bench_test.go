package core

import (
	"testing"

	"bce/internal/confidence"
)

// BenchmarkRunFunctional times one functional run of gzip under CIC
// λ=0 over the baseline hybrid: 1M uops per iteration, 200k of them
// warmup. uops/s counts warmup and measured uops alike.
func BenchmarkRunFunctional(b *testing.B) {
	const warmup, measure = 200_000, 800_000
	cfg := FunctionalConfig{
		Bench:         "gzip",
		MakeEstimator: func() confidence.Estimator { return confidence.NewCIC(0) },
		WarmupUops:    warmup,
		MeasureUops:   measure,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFunctional(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((warmup+measure)*b.N)/b.Elapsed().Seconds(), "uops/s")
}
