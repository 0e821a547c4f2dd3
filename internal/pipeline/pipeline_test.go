package pipeline

import (
	"math/rand"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/telemetry"
	"bce/internal/trace"
	"bce/internal/workload"
)

func gen(t testing.TB, name string) *workload.Generator {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.New(p)
}

func run(t testing.TB, opt Options, bench string, warm, measure uint64) metrics.Run {
	t.Helper()
	s := New(opt, gen(t, bench))
	s.Run(warm)
	return s.Run(measure)
}

// randomTrials yields the default machine on gzip at full length, then
// n random machine shapes on random benchmarks at shorter lengths —
// the trials a metamorphic property runs over.
func randomTrials(t *testing.T, seed int64, n int, fn func(trial int, m config.Machine, bench string, warm, measure uint64)) {
	t.Helper()
	fn(0, config.Baseline40x4(), "gzip", 5000, 20000)
	rng := rand.New(rand.NewSource(seed))
	for trial := 1; trial <= n; trial++ {
		fn(trial, randomMachine(t, rng), workload.Names()[rng.Intn(12)], 2000, 6000)
	}
}

// TestTraceCacheGeometry pins the trace cache every machine builds.
// Table 1 gives 12K uops, 8-way. At 4 bytes a uop in 64-byte (16-uop)
// lines that is 96 sets, which cache.New rounds down to 64, so the
// modelled trace cache holds 8K uops. Building the full 12K changes the
// model and needs a recalibration check.
func TestTraceCacheGeometry(t *testing.T) {
	for _, m := range []config.Machine{config.Baseline40x4(), config.Mid20x4(), config.Wide20x8()} {
		if m.TraceCacheUops != 12*1024 || m.TraceCacheAssoc != 8 {
			t.Errorf("%s: configured trace cache %d uops %d-way, want 12K 8-way", m.Name, m.TraceCacheUops, m.TraceCacheAssoc)
		}
		s := New(Options{Machine: m}, gen(t, "gzip"))
		if sets, uops := s.tc.Sets(), s.tc.Sets()*s.tc.Assoc()*16; sets != 64 || uops != 8*1024 {
			t.Errorf("%s: trace cache built with %d sets, %d uops; want 64 sets, 8K uops", m.Name, sets, uops)
		}
	}
}

// TestPerfectRunHasNoWrongPath is a property over random machines:
// oracle prediction never mispredicts, so no machine shape ever fetches
// or executes a wrong-path uop.
func TestPerfectRunHasNoWrongPath(t *testing.T) {
	randomTrials(t, 31, 8, func(trial int, m config.Machine, bench string, warm, measure uint64) {
		r := run(t, Options{Machine: m, Perfect: true}, bench, warm, measure)
		if r.WrongPathExecuted != 0 {
			t.Errorf("trial %d (%s, %dw): perfect run executed %d wrong-path uops", trial, bench, m.FetchWidth, r.WrongPathExecuted)
		}
		if r.Mispredicts != 0 {
			t.Errorf("trial %d (%s, %dw): perfect run mispredicted %d branches", trial, bench, m.FetchWidth, r.Mispredicts)
		}
		if r.Retired < measure {
			t.Errorf("trial %d: retired %d < requested %d", trial, r.Retired, measure)
		}
		// Executed can exceed retired only by in-flight uops at the
		// boundary, not by squashed work.
		if r.Executed > r.Retired+512 {
			t.Errorf("trial %d: perfect run executed %d >> retired %d", trial, r.Executed, r.Retired)
		}
		if trial == 0 && r.IPC() <= 0.3 {
			t.Errorf("perfect IPC = %.3f, suspiciously low", r.IPC())
		}
	})
}

func TestRealPredictorWastesWork(t *testing.T) {
	r := run(t, Options{}, "gzip", 10000, 40000)
	if r.Mispredicts == 0 {
		t.Fatal("no mispredicts with real predictor")
	}
	if r.WrongPathExecuted == 0 {
		t.Fatal("mispredicts but no wrong-path execution")
	}
	if r.Executed <= r.Retired {
		t.Errorf("executed %d <= retired %d despite mispredicts", r.Executed, r.Retired)
	}
	if r.MispredictsPer1KUops() < 1 || r.MispredictsPer1KUops() > 40 {
		t.Errorf("gzip mispredicts/Kuop = %.2f, implausible", r.MispredictsPer1KUops())
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, Options{}, "vpr", 5000, 20000)
	b := run(t, Options{}, "vpr", 5000, 20000)
	if a != b {
		t.Fatalf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

// TestGatingWithAlwaysHighMatchesBaseline is a property over random
// machines: an estimator that never reports low confidence never gates,
// so PL gating with it must leave the run exactly as ungated.
func TestGatingWithAlwaysHighMatchesBaseline(t *testing.T) {
	randomTrials(t, 77, 8, func(trial int, m config.Machine, bench string, warm, measure uint64) {
		pol := gating.PL(1 + trial%3)
		base := run(t, Options{Machine: m}, bench, warm, measure)
		g := run(t, Options{Machine: m, Estimator: confidence.AlwaysHigh{}, Gating: pol}, bench, warm, measure)
		if base.Retired != g.Retired || base.Cycles != g.Cycles || base.Executed != g.Executed ||
			base.WrongPathExecuted != g.WrongPathExecuted {
			t.Errorf("trial %d (%s, PL%d, %dw): always-high gating changed the run:\n base:  %+v\n gated: %+v",
				trial, bench, pol.Threshold, m.FetchWidth, base, g)
		}
		if g.GatedCycles != 0 {
			t.Errorf("trial %d: always-high gated %d cycles", trial, g.GatedCycles)
		}
	})
}

// retireRecorder is a telemetry sink keeping the retired PC stream.
type retireRecorder struct{ pcs []uint64 }

func (r *retireRecorder) Emit(e telemetry.Event) {
	if e.Kind == telemetry.EvRetire {
		r.pcs = append(r.pcs, e.PC)
	}
}

// TestRetiredStreamIdentityAcrossGatingAndReversal is a property over
// random machines: gating only delays fetch and reversal only changes
// which path is fetched, so neither may change what retires. Every
// configuration's retired PC stream must equal the ungated one over
// their common prefix, and a single Run overshoots its target by less
// than one retire group, so the lengths differ by less than
// RetireWidth.
func TestRetiredStreamIdentityAcrossGatingAndReversal(t *testing.T) {
	cicRev := func() confidence.Estimator {
		return confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
	}
	configs := []struct {
		name             string
		opt              func() Options
		gates, reversals bool
	}{
		{"cic0-pl1", func() Options { return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)} }, true, false},
		{"cic0-pl3", func() Options { return Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(3)} }, true, false},
		{"cic-75-rev50", func() Options { return Options{Estimator: cicRev(), Reversal: true} }, false, true},
		{"cic-75-rev50-pl2", func() Options { return Options{Estimator: cicRev(), Reversal: true, Gating: gating.PL(2)} }, true, true},
		{"oracle-pl1", func() Options { return Options{Estimator: confidence.NewOracle(), Gating: gating.PL(1)} }, true, false},
	}
	// Reversals are tallied per configuration across trials: a short run
	// on some benchmarks never trains CIC outputs up to the reversal
	// threshold, but the property must not hold vacuously overall.
	reversals := make([]uint64, len(configs))
	randomTrials(t, 53, 8, func(trial int, m config.Machine, bench string, warm, measure uint64) {
		// One Run over the whole span: each Run call may overshoot by up
		// to RetireWidth-1, and a second call would double the slack.
		record := func(opt Options) ([]uint64, metrics.Run) {
			rec := &retireRecorder{}
			opt.Machine, opt.Sink = m, rec
			r := New(opt, gen(t, bench)).Run(warm + measure)
			return rec.pcs, r
		}
		base, _ := record(Options{})
		for ci, c := range configs {
			got, r := record(c.opt())
			if c.gates && r.GateEvents == 0 {
				t.Errorf("trial %d (%s, %s): no gate events; the property is vacuous", trial, bench, c.name)
			}
			reversals[ci] += r.Reversals
			n := min(len(base), len(got))
			for i := 0; i < n; i++ {
				if base[i] != got[i] {
					t.Errorf("trial %d (%s, %s): retired PC %d is %#x, ungated %#x", trial, bench, c.name, i, got[i], base[i])
					break
				}
			}
			if d := len(base) - len(got); d <= -m.RetireWidth || d >= m.RetireWidth {
				t.Errorf("trial %d (%s, %s): retired %d uops, ungated %d (RetireWidth %d)",
					trial, bench, c.name, len(got), len(base), m.RetireWidth)
			}
		}
	})
	for ci, c := range configs {
		if c.reversals && reversals[ci] == 0 {
			t.Errorf("%s: no reversals in any trial; the property is vacuous", c.name)
		}
	}
}

func TestGatingWithOracleEstimator(t *testing.T) {
	// The pipeline feeds ground truth to TraceOracle estimators right
	// before each Estimate, so the confidence oracle is exact.
	base := run(t, Options{}, "twolf", 5000, 30000)
	r := run(t, Options{
		Estimator: confidence.NewOracle(),
		Gating:    gating.PL(1),
	}, "twolf", 5000, 30000)

	if u := r.UopReductionPercent(base); u <= 3 {
		t.Errorf("oracle gating reduced uops by only %.1f%%", u)
	}
	// Oracle gating is not quite free: wrong-path execution warms the
	// trace cache and data caches (the paper's "there could be some
	// prefetch benefits" footnote), and gating forgoes that.
	p := r.PerfLossPercent(base)
	if p > 3 {
		t.Errorf("oracle gating lost %.1f%% performance; should be near-free", p)
	}
	if r.Confusion.PVN() < 0.99 {
		t.Errorf("oracle PVN = %.3f", r.Confusion.PVN())
	}
	if r.Confusion.Spec() < 0.99 {
		t.Errorf("oracle Spec = %.3f", r.Confusion.Spec())
	}
}

func TestReversalWithOracleFixesMispredicts(t *testing.T) {
	base := run(t, Options{}, "twolf", 5000, 30000)
	r := run(t, Options{
		Estimator: confidence.NewOracle(),
		Reversal:  true,
	}, "twolf", 5000, 30000)
	if r.Reversals == 0 {
		t.Fatal("no reversals happened")
	}
	if r.ReversalsGood != r.Reversals {
		t.Errorf("%d/%d reversals were good; oracle should be perfect",
			r.ReversalsGood, r.Reversals)
	}
	if r.Mispredicts != 0 {
		t.Errorf("oracle reversal left %d mispredicts (base %d)", r.Mispredicts, base.Mispredicts)
	}
	if s := r.SpeedupPercent(base); s <= 0 {
		t.Errorf("oracle reversal speedup = %.1f%%", s)
	}
}

func TestGatingReducesWrongPathWork(t *testing.T) {
	// Even an imperfect real estimator (CIC) must reduce executed
	// uops when gating, at some performance cost bounded well below
	// the reduction.
	base := run(t, Options{}, "mcf", 10000, 30000)
	g := run(t, Options{
		Estimator: confidence.NewCIC(0),
		Gating:    gating.PL(1),
	}, "mcf", 10000, 30000)
	if g.Executed >= base.Executed {
		t.Errorf("gating did not reduce executed uops: %d >= %d", g.Executed, base.Executed)
	}
	if g.GatedCycles == 0 {
		t.Error("no gated cycles recorded")
	}
}

func TestConfusionTotalsMatchRetiredBranches(t *testing.T) {
	r := run(t, Options{Estimator: confidence.NewCIC(0)}, "gcc", 5000, 30000)
	if r.Confusion.Branches() != r.RetiredBranches {
		t.Errorf("confusion counts %d != retired branches %d",
			r.Confusion.Branches(), r.RetiredBranches)
	}
	if r.RetiredBranches == 0 {
		t.Fatal("no branches retired")
	}
}

func TestAllMachinesAllBenchmarksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke sweep skipped in -short")
	}
	machines := []config.Machine{config.Baseline40x4(), config.Mid20x4(), config.Wide20x8()}
	for _, m := range machines {
		for _, name := range workload.Names() {
			r := run(t, Options{Machine: m}, name, 2000, 10000)
			if r.Retired < 10000 {
				t.Errorf("%s/%s: retired %d", m.Name, name, r.Retired)
			}
			if r.IPC() <= 0 || r.IPC() > float64(m.IssueWidth) {
				t.Errorf("%s/%s: IPC %.2f out of range", m.Name, name, r.IPC())
			}
		}
	}
}

func TestDeeperPipelineWastesMore(t *testing.T) {
	deep := run(t, Options{Machine: config.Baseline40x4()}, "vpr", 10000, 30000)
	shallow := run(t, Options{Machine: config.Mid20x4()}, "vpr", 10000, 30000)
	wasteDeep := float64(deep.WrongPathExecuted) / float64(deep.Retired)
	wasteShallow := float64(shallow.WrongPathExecuted) / float64(shallow.Retired)
	if wasteDeep <= wasteShallow {
		t.Errorf("deep pipeline waste %.3f <= shallow %.3f", wasteDeep, wasteShallow)
	}
}

func TestEstimatorLatencyDelaysGating(t *testing.T) {
	fast := run(t, Options{
		Estimator: confidence.NewCIC(0),
		Gating:    gating.Policy{Threshold: 1, Latency: 1},
	}, "mcf", 10000, 30000)
	slow := run(t, Options{
		Estimator: confidence.NewCIC(0),
		Gating:    gating.Policy{Threshold: 1, Latency: 9},
	}, "mcf", 10000, 30000)
	// Slower estimation gates later, so it saves (weakly) fewer uops.
	if slow.Executed < fast.Executed {
		t.Errorf("9-cycle estimator saved more than 1-cycle: %d < %d",
			slow.Executed, fast.Executed)
	}
}

func TestRunPanicsOnInvalidMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid machine did not panic")
		}
	}()
	m := config.Baseline40x4()
	m.ROB = 0
	New(Options{Machine: m}, gen(t, "gzip"))
}

func TestAccessors(t *testing.T) {
	s := New(Options{}, gen(t, "gzip"))
	if s.Machine().Name != "40c4w" {
		t.Error("default machine")
	}
	if s.Hierarchy() == nil {
		t.Error("nil hierarchy")
	}
	s.Run(100)
	if s.Cycle() == 0 {
		t.Error("cycle did not advance")
	}
}

func BenchmarkPipeline40c4w(b *testing.B) {
	s := New(Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)}, gen(b, "gzip"))
	s.Run(5000)
	b.ResetTimer()
	s.Run(uint64(b.N))
}

func TestReplayedTraceSimulation(t *testing.T) {
	// Record a trace, replay it through the pipeline via the generic
	// source interface, and compare against the live-generator run.
	replay := workload.NewReplay(trace.NewSliceSource(trace.Take(gen(t, "gzip"), 120_000)))
	sim := NewFromSource(Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)},
		replay, replay.WrongPath(1))
	sim.Run(20_000)
	r := sim.Run(60_000)
	if r.Retired < 60_000 {
		t.Fatalf("retired %d", r.Retired)
	}
	if r.Mispredicts == 0 || r.WrongPathExecuted == 0 {
		t.Fatalf("replayed run missing speculation: %+v", r)
	}

	// The same span simulated from the live generator must agree on
	// correct-path statistics (wrong-path differs: different
	// synthesizer).
	live := run(t, Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)}, "gzip", 20_000, 60_000)
	if live.Retired != r.Retired || live.RetiredBranches != r.RetiredBranches {
		t.Errorf("correct-path divergence: live %d/%d vs replay %d/%d",
			live.Retired, live.RetiredBranches, r.Retired, r.RetiredBranches)
	}
}

func TestNewFromSourceNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil source did not panic")
		}
	}()
	NewFromSource(Options{}, nil, nil)
}
