package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"testing"

	"bce/internal/confidence"
	"bce/internal/metrics"
	"bce/internal/workload"
)

// Every test runs the workloads scaled down. measureSetup starts this
// test binary as its set-up probes.
func TestMain(m *testing.M) {
	sizeDiv = 100
	if spec, ok := os.LookupEnv(setupEnv); ok {
		if err := setupProbe(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesCode runs every workload, untraced and traced,
// for its fewest passes and checks that what it emits is exactly what
// BENCHMARK.json declares.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !valid.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}

	for _, w := range workloads {
		r, err := measureEndToEnd(w, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkEmitted(t, w.name+" untraced", r, spec.EndToEnd)
		r, err = measureLayers(w, 0, 0, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkEmitted(t, w.name+" traced", r, spec.PerLayer)
		if w.name == "sim-baseline" && r.Metrics["confidence.calls"].Value != 0 {
			t.Errorf("sim-baseline has no estimator but reports %v confidence calls", r.Metrics["confidence.calls"].Value)
		}
	}
}

func checkEmitted(t *testing.T, what string, r result, declared []specMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
	}
	for _, d := range declared {
		got, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		} else if got.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, d.Name, got.Unit, d.Unit)
		}
	}
	if len(r.Metrics) != len(declared) {
		t.Errorf("%s: emits %d metrics, BENCHMARK.json declares %d", what, len(r.Metrics), len(declared))
	}
}

// TestProbesAreTransparent checks that wrapping the layers changes
// nothing the simulation computes: the traced and untraced Runs of every
// sim-* workload are byte-identical, and the traced pass takes the same
// estimator path (batched where the pipeline batches).
func TestProbesAreTransparent(t *testing.T) {
	for _, w := range workloads[:3] {
		p := &probes{}
		plain, traced := w.newLoad(1, nil), w.newLoad(1, p)
		for _, l := range []load{plain, traced} {
			if err := l.setup(); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 2; pass++ {
			for _, key := range plain.keys() {
				a, err := plain.run(key)
				if err != nil {
					t.Fatalf("%s %s: %v", w.name, key, err)
				}
				b, err := traced.run(key)
				if err != nil {
					t.Fatalf("%s %s traced: %v", w.name, key, err)
				}
				if !bytes.Equal(a.output, b.output) {
					t.Fatalf("%s %s pass %d: traced Run differs\n%s\n%s", w.name, key, pass, a.output, b.output)
				}
			}
		}
		switch w.name {
		case "sim-baseline":
			if p.estimate.calls+p.estimateBatch.calls+p.train.calls+p.trainBatch.calls != 0 {
				t.Errorf("sim-baseline: estimator probe called without an estimator")
			}
		case "sim-cic-gate":
			if p.estimateBatch.calls == 0 || p.trainBatch.calls == 0 || p.estimate.calls != 0 {
				t.Errorf("sim-cic-gate: want the batched estimator path, got %+v", *p)
			}
		case "sim-wide-reversal":
			// Reversal needs each token at fetch, so only training batches.
			if p.estimate.calls == 0 || p.estimateBatch.calls != 0 || p.trainBatch.calls == 0 {
				t.Errorf("sim-wide-reversal: want sequential estimates and batched training, got %+v", *p)
			}
		}
		if p.next.calls == 0 || p.wrong.calls == 0 || p.predict.calls == 0 {
			t.Errorf("%s: workload or predictor probes saw no calls: %+v", w.name, *p)
		}
	}
}

// TestWrapEstimatorKeepsOptionalInterfaces also fails, by wrapEstimator's
// panic, when one of these estimators gains a combination of optional
// interfaces the probe does not cover.
func TestWrapEstimatorKeepsOptionalInterfaces(t *testing.T) {
	for _, est := range []confidence.Estimator{
		confidence.NewCIC(0), confidence.NewTNT(0), confidence.NewEnhancedJRS(0),
		confidence.NewOracle(), confidence.AlwaysHigh{},
	} {
		w := wrapEstimator(est, &probes{})
		for _, c := range []struct {
			name      string
			has, want bool
		}{
			{"BatchEstimator", is[confidence.BatchEstimator](w), is[confidence.BatchEstimator](est)},
			{"BatchTrainer", is[confidence.BatchTrainer](w), is[confidence.BatchTrainer](est)},
			{"TraceOracle", is[confidence.TraceOracle](w), is[confidence.TraceOracle](est)},
		} {
			if c.has != c.want {
				t.Errorf("%s: wrapper implements %s = %v, wrapped = %v", est.Name(), c.name, c.has, c.want)
			}
		}
	}
}

// batchOnly has an optional-interface combination no estimator has.
type batchOnly struct{ confidence.AlwaysHigh }

func (batchOnly) EstimateBatch([]uint64, []bool, []confidence.Token) {}

func TestWrapEstimatorRejectsUnknownCombination(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrapEstimator wrapped an estimator with only BatchEstimator")
		}
	}()
	wrapEstimator(batchOnly{}, &probes{})
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

func TestCheckRunRejectsDoctoredRuns(t *testing.T) {
	l := workloads[0].newLoad(0, nil).(*simLoad)
	if err := l.setup(); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	good := l.sims[workload.Names()[0]].Run(n)
	width := l.cfg.machine.RetireWidth
	if err := checkRun(good, good, n, width); err != nil {
		t.Fatalf("real run rejected: %v", err)
	}
	for name, doctor := range map[string]func(*metrics.Run){
		"short":           func(r *metrics.Run) { r.Retired = n - 1 },
		"overshoot":       func(r *metrics.Run) { r.Retired = n + uint64(width) },
		"executed<retire": func(r *metrics.Run) { r.Executed = r.Retired - 1 },
		"fetched<exec":    func(r *metrics.Run) { r.Fetched = r.Executed - 1 },
		"wrongpath>exec":  func(r *metrics.Run) { r.WrongPathExecuted = r.Executed + 1 },
		"confusion":       func(r *metrics.Run) { r.Confusion.WrongLow++ },
	} {
		r := good
		doctor(&r)
		if err := checkRun(r, r, n, width); err == nil {
			t.Errorf("%s: doctored run accepted", name)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) default, which the acceptance spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Name: "uops_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{100, 100.5, 99.5, 100, 101}, "unchanged"},
		{[]float64{90, 91, 89, 90, 90}, "worse"},
		{[]float64{110, 111, 109, 110, 110}, "better"},
		{[]float64{70, 130, 100, 60, 140}, "unresolved"},
		{[]float64{120, 180, 150, 125, 190}, "better"},
	} {
		if got := verdict(steady, c.head, m); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.head, got, c.want)
		}
	}
}
