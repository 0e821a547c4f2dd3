package pipeline

import (
	"bytes"
	"io"
	"testing"

	"bce/internal/confidence"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/telemetry"
	"bce/internal/workload"
)

// tracedOptions is a configuration exercising every telemetry emission
// site: estimator, gating, reversal, squashes.
func tracedOptions(sink telemetry.Sink) Options {
	return Options{
		Estimator: confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50}),
		Gating:    gating.PL(1),
		Reversal:  true,
		Sink:      sink,
	}
}

func runWithSink(t *testing.T, sink telemetry.Sink, n uint64) metrics.Run {
	t.Helper()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	sim := New(tracedOptions(sink), workload.New(prof))
	// No warmup: the sink observes exactly the measured span, so event
	// counts can be compared 1:1 against the Run counters.
	return sim.Run(n)
}

// TestTracedRunByteIdentical is the telemetry regression guarantee:
// attaching sinks must not move a single counter. Both runs flow
// through the same registry, so any divergence means an emission site
// has a side effect.
func TestTracedRunByteIdentical(t *testing.T) {
	const n = 30_000
	plain := runWithSink(t, nil, n)

	counting := &telemetry.CountingSink{}
	audit := telemetry.NewAudit()
	chrome := telemetry.NewChromeTrace(io.Discard)
	traced := runWithSink(t, telemetry.Multi(counting, audit, chrome), n)
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}

	pb, err := plain.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := traced.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, tb) {
		t.Errorf("traced run diverged from untraced run:\nuntraced: %s\ntraced:   %s", pb, tb)
	}

	// The sinks must actually have seen the run.
	if counting.Count(telemetry.EvRetire) != traced.Retired {
		t.Errorf("EvRetire count %d != retired %d", counting.Count(telemetry.EvRetire), traced.Retired)
	}
	if counting.Count(telemetry.EvFetch) != traced.Fetched {
		t.Errorf("EvFetch count %d != fetched %d", counting.Count(telemetry.EvFetch), traced.Fetched)
	}
	if counting.Count(telemetry.EvEstimate) == 0 {
		t.Error("no estimate events")
	}
	if counting.Count(telemetry.EvTrain) == 0 {
		t.Error("no training events")
	}
	if audit.Branches() == 0 {
		t.Error("audit saw no branches")
	}
}

// TestTelemetrySnapshotMatchesRun checks the registry snapshot agrees
// with the Run assembled from the same counters.
func TestTelemetrySnapshotMatchesRun(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sim := New(tracedOptions(nil), workload.New(prof))
	r := sim.Run(20_000)
	snap := sim.Telemetry()
	for name, want := range map[string]uint64{
		"retired_uops":     r.Retired,
		"executed_uops":    r.Executed,
		"fetched_uops":     r.Fetched,
		"retired_branches": r.RetiredBranches,
		"mispredicts":      r.Mispredicts,
		"reversals":        r.Reversals,
	} {
		got, ok := snap.Counter(name)
		if !ok {
			t.Errorf("snapshot missing %q", name)
			continue
		}
		if got != want {
			t.Errorf("snapshot %s = %d, run says %d", name, got, want)
		}
	}
}

// BenchmarkRun measures the telemetry overhead claim: the nil-sink
// path must be within noise (<1%) of the pre-telemetry simulator, and
// the benchmark pair quantifies the cost of a live sink. Compare with:
//
//	go test ./internal/pipeline -bench 'Run(NilSink|CountingSink)' -count 10 | benchstat
func BenchmarkRunNilSink(b *testing.B)      { benchmarkRun(b, nil) }
func BenchmarkRunCountingSink(b *testing.B) { benchmarkRun(b, &telemetry.CountingSink{}) }

func benchmarkRun(b *testing.B, sink telemetry.Sink) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	sim := New(tracedOptions(sink), workload.New(prof))
	sim.Run(10_000) // warmup
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.Cycle()
	for i := 0; i < b.N; i++ {
		sim.Run(10_000)
	}
	b.StopTimer()
	if cycles := sim.Cycle() - start; cycles > 0 {
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/sec")
	}
}

// TestRunNilSinkAllocFree pins the scheduler + telemetry fast path:
// once warmed up, a nil-sink simulation allocates nothing per cycle —
// no events are constructed, the scheduler queues are preallocated, and the
// perceptron tables are fully materialized.
func TestRunNilSinkAllocFree(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	sim := New(tracedOptions(nil), workload.New(prof))
	sim.Run(20_000) // warmup: materialize tables, grow any lazy buffers
	if n := testing.AllocsPerRun(3, func() { sim.Run(2_000) }); n > 0 {
		t.Errorf("nil-sink Run allocates %v times per call, want 0", n)
	}
}
