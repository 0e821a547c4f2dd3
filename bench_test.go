package bce

import "testing"

// The end-to-end benchmarks (simulator throughput per machine,
// paper-scale functional runs, uncached regeneration of every table)
// live in benchmark/; run them with `sh benchmark/run.sh`.

// BenchmarkSimulatorThroughput measures raw timing-simulator speed.
// Each iteration simulates a fixed span, so the uops/s metric means the
// same at any -benchtime, including 1x.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const span = 100_000
	b.ReportAllocs()
	sim := NewSimulation(SimConfig{Bench: "gzip", Estimator: NewCIC(0), Gating: PL(1)})
	sim.Run(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(span)
	}
	b.ReportMetric(float64(span*b.N)/b.Elapsed().Seconds(), "uops/s")
}
