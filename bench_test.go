package bce

import (
	"testing"

	"bce/internal/config"
	"bce/internal/core"
)

// The benchmarks below are the regeneration harness: one per paper
// table/figure. Each iteration regenerates the experiment, uncached, at
// reduced (Quick) sizes and reports the headline numbers as custom metrics, so
// `go test -bench .` both exercises and summarizes the reproduction.
// For paper-scale output use `go run ./cmd/bcetables -exp all`.

func benchSizes() core.Sizes { return core.QuickSizes() }

// uncached empties the process-wide timing-result cache with the timer
// stopped, so every iteration simulates from scratch. Without it only
// the first iteration of a table benchmark simulates anything and the
// rest are cache hits.
func uncached(b *testing.B) {
	b.StopTimer()
	core.ResetResultCache()
	b.StartTimer()
}

// BenchmarkTable2 regenerates Table 2 (speculation waste per machine).
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		t, err := core.Table2(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.AvgWaste20x4, "waste20c4w_%")
		b.ReportMetric(t.AvgWaste20x8, "waste20c8w_%")
		b.ReportMetric(t.AvgWaste40x4, "waste40c4w_%")
		b.ReportMetric(t.AvgMispPer1K, "misp/Kuop")
	}
}

// BenchmarkTable3 regenerates Table 3 (JRS vs perceptron PVN/Spec).
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		t, err := core.Table3(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.JRS[3].PVN, "jrs_pvn_%")
		b.ReportMetric(t.JRS[3].Spec, "jrs_spec_%")
		b.ReportMetric(t.Perceptron[1].PVN, "cic_pvn_%")
		b.ReportMetric(t.Perceptron[1].Spec, "cic_spec_%")
	}
}

// BenchmarkTable4 regenerates Table 4 (gating U/P sweep, 40c4w).
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		t, err := core.Table4(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		// The paper's headline comparison: perceptron λ=25 vs JRS λ=7 PL2.
		b.ReportMetric(t.Perceptron[0].U, "cic_U_%")
		b.ReportMetric(t.Perceptron[0].P, "cic_P_%")
		b.ReportMetric(t.JRS[5].U, "jrs7pl2_U_%")
		b.ReportMetric(t.JRS[5].P, "jrs7pl2_P_%")
	}
}

// BenchmarkTable5 regenerates Table 5 (better baseline predictor).
func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		t, err := core.Table5(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.BimodalGshare[1].U, "bg_U_%")
		b.ReportMetric(t.GsharePerceptron[0].U, "gp_U_%")
	}
}

// BenchmarkTable6 regenerates Table 6 (estimator size sensitivity).
func BenchmarkTable6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		t, err := core.Table6(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].U, "4KB_U_%")
		b.ReportMetric(t.Rows[5].U, "2KB_w4_U_%")
		b.ReportMetric(t.Rows[6].U, "2KB_h16_U_%")
	}
}

// BenchmarkFig4 regenerates Figures 4-5 (CIC output density on gcc).
func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		d, err := core.Density("gcc", "cic", benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Regions[0].MB), "topregion_MB")
		b.ReportMetric(float64(d.Regions[0].CB), "topregion_CB")
	}
}

// BenchmarkFig6 regenerates Figures 6-7 (TNT output density on gcc).
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		d, err := core.Density("gcc", "tnt", benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.CB.Total()), "cb_branches")
		b.ReportMetric(float64(d.MB.Total()), "mb_branches")
	}
}

// BenchmarkFig8 regenerates Figure 8 (gating+reversal, 40c4w).
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		c, err := core.Combined(config.Baseline40x4(), benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.AvgUopReduction, "uop_red_%")
		b.ReportMetric(c.AvgSpeedupPct, "speedup_%")
	}
}

// BenchmarkFig9 regenerates Figure 9 (gating+reversal, 20c8w).
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		c, err := core.Combined(config.Wide20x8(), benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.AvgUopReduction, "uop_red_%")
		b.ReportMetric(c.AvgSpeedupPct, "speedup_%")
	}
}

// BenchmarkLatency regenerates the §5.4.2 estimator-latency study.
func BenchmarkLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		l, err := core.Latency(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(l.Ideal.U, "U1cyc_%")
		b.ReportMetric(l.Pipelined.U, "U9cyc_%")
	}
}

// BenchmarkSimulatorThroughput measures raw timing-simulator speed.
// Each iteration simulates a fixed span, so the uops/s metric means the
// same at any -benchtime, including the table suite's 1x.
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

// BenchmarkAblateReversal regenerates the reversal-source ablation
// (why only the multi-valued CIC output supports reversal).
func BenchmarkAblateReversal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		a, err := core.AblateReversalSource(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].P, "cic_P_%")
		b.ReportMetric(a.Rows[1].P, "jrsrev_P_%")
	}
}

// BenchmarkAblateSignal regenerates the training-signal ablation
// (correct/incorrect vs taken/not-taken training).
func BenchmarkAblateSignal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		a, err := core.AblateTrainingSignal(benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].PVN, "cic_pvn_%")
		b.ReportMetric(a.Rows[2].PVN, "tnt_pvn_%")
	}
}

// BenchmarkVariability regenerates the per-benchmark spread report.
func BenchmarkVariability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncached(b)
		v, err := core.Variability(0, 1, benchSizes())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v.USummary.Mean, "U_mean_%")
		b.ReportMetric(v.USummary.Std, "U_std_%")
	}
}
