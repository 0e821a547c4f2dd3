package bce

import (
	"testing"

	"bce/internal/trace"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	gen := NewGenerator("gzip")
	pred := NewBaselinePredictor()
	est := NewCIC(0)
	var conf Confusion
	for i := 0; i < 60_000; i++ {
		u, ok := gen.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		if !u.Kind.IsConditional() {
			continue
		}
		p := pred.Predict(u.PC)
		tok := est.Estimate(u.PC, p)
		misp := p != u.Taken
		pred.Update(u.PC, u.Taken)
		est.Train(u.PC, tok, misp, u.Taken)
		conf.Add(misp, tok.Class().Low())
	}
	if conf.Branches() == 0 {
		t.Fatal("no branches observed")
	}
}

func TestFacadeSimulation(t *testing.T) {
	sim := NewSimulation(SimConfig{
		Bench:     "vpr",
		Estimator: NewCIC(0),
		Gating:    PL(1),
	})
	sim.Run(5_000)
	r := sim.Run(20_000)
	if r.Retired < 20_000 || r.IPC() <= 0 {
		t.Fatalf("run: %+v", r)
	}
	if sim.Machine().Name != "40c4w" {
		t.Error("default machine")
	}
	if sim.Cycle() == 0 {
		t.Error("cycle")
	}
}

func TestFacadeMachines(t *testing.T) {
	for _, m := range []Machine{Baseline40x4(), Mid20x4(), Wide20x8()} {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
	}
	if _, err := MachineByName("40c4w"); err != nil {
		t.Error(err)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Fatal("benchmark count")
	}
	if _, err := BenchmarkProfile("mcf"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkProfile("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFacadePanicsOnUnknownBench(t *testing.T) {
	for _, f := range []func(){
		func() { NewGenerator("nope") },
		func() { NewSimulation(SimConfig{Bench: "nope"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for unknown benchmark")
				}
			}()
			f()
		}()
	}
}

func TestFacadeEstimators(t *testing.T) {
	for _, e := range []Estimator{
		NewCIC(0),
		NewCICWith(CICConfig{Lambda: -75, Reversal: 50}),
		NewEnhancedJRS(15),
		NewJRS(JRSConfig{Lambda: 7}),
		NewTNT(75),
		NewTNTWith(TNTConfig{Lambda: 50}),
		NewPattern(0, 0),
		NewConfidenceOracle(),
	} {
		tok := e.Estimate(0x4000, true)
		e.Train(0x4000, tok, false, true)
		if e.Name() == "" {
			t.Errorf("%T name", e)
		}
	}
}

func TestFacadeAverageConfusion(t *testing.T) {
	c, err := AverageConfusion(func() Estimator { return NewEnhancedJRS(15) }, 5_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Branches() == 0 {
		t.Fatal("no branches")
	}
}

func TestFacadeConstantsDistinct(t *testing.T) {
	if High == WeakLow || WeakLow == StrongLow {
		t.Fatal("confidence bands collide")
	}
	if !WeakLow.Low() || High.Low() {
		t.Fatal("Low()")
	}
}

func TestFacadeReplaySimulation(t *testing.T) {
	// Record a short trace into memory, then replay it.
	rec := trace.NewSliceSource(trace.Take(NewGenerator("gzip"), 40_000))
	sim := NewReplaySimulation(SimConfig{
		Estimator: NewCIC(0),
		Gating:    PL(1),
	}, rec)
	sim.Run(10_000)
	r := sim.Run(20_000)
	if r.Retired < 20_000 || r.RetiredBranches == 0 {
		t.Fatalf("replay run: %+v", r)
	}
}
