package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
)

// These tests pin the two guarantees the runner migration makes:
// results are bit-identical under any worker count, and identical
// timing configurations are simulated exactly once per suite.

// skipHeavyUnderRace skips full-size timing sweeps in race-detector
// builds: instrumentation slows them 10-15x past the package timeout.
// The sweep machinery still runs under race via
// TestDeterministicAcrossWorkerCounts at reduced run lengths.
func skipHeavyUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorOn {
		t.Skip("full timing sweep skipped under -race")
	}
}

// sweepResults runs a small timing sweep (per-benchmark baseline plus
// one gated configuration) with the given worker count and returns the
// JSON-serialized metrics.Run results in benchmark order.
func sweepResults(t *testing.T, workers int, sz Sizes) []byte {
	t.Helper()
	ResetResultCache()
	SetParallelism(workers)
	defer SetParallelism(0)
	runs, err := mapBench(func(ctx context.Context, bench string) ([2]metrics.Run, error) {
		base, err := runTiming(ctx, TimingSpec{Bench: bench, Machine: config.Baseline40x4()}, sz)
		if err != nil {
			return [2]metrics.Run{}, err
		}
		gated, err := runTiming(ctx, TimingSpec{
			Bench: bench, Machine: config.Baseline40x4(),
			EstSpec: confidence.SpecCIC(0),
			Gating:  gating.PL(1),
		}, sz)
		if err != nil {
			return [2]metrics.Run{}, err
		}
		return [2]metrics.Run{base, gated}, nil
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	b, err := json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicAcrossWorkerCounts is the determinism regression
// test: the same QuickSizes sweep, run serially and at full
// parallelism, must produce byte-identical metrics.Run results.
// Multi-segment runs are included so segment merge order is covered.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep in -short mode")
	}
	sz := QuickSizes()
	if raceDetectorOn {
		// Keep race coverage of the pool/cache concurrency while
		// staying inside the instrumented-build time budget.
		sz = Sizes{Warmup: 2_000, Measure: 6_000}
	}
	sz.Segments = 2
	serial := sweepResults(t, 1, sz)
	parallel := sweepResults(t, runtime.GOMAXPROCS(0), sz)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between workers=1 and workers=%d:\n serial:   %s\n parallel: %s",
			runtime.GOMAXPROCS(0), serial, parallel)
	}
}

// TestResultCacheServesRepeats checks the cache-hit counter: the
// second identical timing run must be a hit, not a second simulation,
// and must return the identical result.
func TestResultCacheServesRepeats(t *testing.T) {
	ResetResultCache()
	defer ResetResultCache()
	sz := Sizes{Warmup: 2_000, Measure: 5_000}
	spec := TimingSpec{Bench: "gzip", Machine: config.Baseline40x4()}

	first, err := runTiming(context.Background(), spec, sz)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := ResultCacheStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", hits, misses)
	}

	second, err := runTiming(context.Background(), spec, sz)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = ResultCacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("after repeat run: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if first != second {
		t.Errorf("cached result differs from original:\n first:  %+v\n second: %+v", first, second)
	}

	// A different configuration must not collide with the cached one.
	perf := spec
	perf.Perfect = true
	if _, err := runTiming(context.Background(), perf, sz); err != nil {
		t.Fatal(err)
	}
	if _, misses = ResultCacheStats(); misses != 2 {
		t.Errorf("distinct config did not miss: misses=%d, want 2", misses)
	}
}

// TestDistinctTrainThresholdsDistinctKeys pins the cache-key fix for
// the train-threshold ablation: CIC estimators differing only in T
// must hash to different timing keys.
func TestDistinctTrainThresholdsDistinctKeys(t *testing.T) {
	sz := QuickSizes()
	keyFor := func(T int) string {
		spec := TimingSpec{
			Bench: "gzip", Machine: config.Baseline40x4(),
			EstSpec: confidence.SpecCICWith(confidence.CICConfig{
				Lambda: 0, Reversal: confidence.DisableReversal, TrainThreshold: T,
			}),
		}
		mkEst, err := spec.makeEstimator()
		if err != nil {
			t.Fatal(err)
		}
		return timingKey(spec, mkEst, sz, false)
	}
	if keyFor(5) == keyFor(200) {
		t.Error("timing keys collide for distinct CIC training thresholds")
	}
	if keyFor(75) != keyFor(75) {
		t.Error("timing key not stable")
	}
}
