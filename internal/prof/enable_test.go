package prof

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bce/internal/runner"
)

func TestEnableDisabled(t *testing.T) {
	stop, err := Enable("")
	if err != nil {
		t.Fatal(err)
	}
	if recs := stop(); recs != nil {
		t.Errorf("Enable with no dir stored %+v", recs)
	}
}

// enabled starts the process profile into a fresh ring, skipping the
// test when the CPU profiler is owned elsewhere (go test -cpuprofile).
func enabled(t *testing.T) (*Ring, func() []Record) {
	t.Helper()
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.StopCPUProfile()
	dir := t.TempDir()
	stop, err := Enable(dir)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := OpenRing(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ring, stop
}

// storedProfiles checks recs holds one cpu and one heap record whose
// bytes are in ring and parse, and returns the parsed profiles by kind.
func storedProfiles(t *testing.T, ring *Ring, recs []Record) map[string]*Profile {
	t.Helper()
	out := map[string]*Profile{}
	for _, r := range recs {
		if r.DurationSeconds <= 0 || r.Bytes <= 0 {
			t.Errorf("record %+v: want positive duration and size", r)
		}
		data, err := ring.Get(r.Digest)
		if err != nil {
			t.Fatalf("record %s: %v", r.Kind, err)
		}
		if out[r.Kind], err = Parse(data); err != nil {
			t.Fatalf("stored %s profile does not parse: %v", r.Kind, err)
		}
	}
	if len(recs) != 2 || out["cpu"] == nil || out["heap"] == nil {
		t.Fatalf("records = %+v, want one cpu and one heap", recs)
	}
	if u := out["heap"].Unit(); u != "bytes" {
		t.Errorf("heap unit = %q, want bytes", u)
	}
	return out
}

func TestEnableProcessMode(t *testing.T) {
	ring, stop := enabled(t)
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		burnSink = burnCPU(1 << 12)
	}
	recs := stop()
	storedProfiles(t, ring, recs)
	if again := stop(); len(again) != len(recs) || again[0] != recs[0] {
		t.Errorf("second stop = %+v, want the first call's %+v", again, recs)
	}
	// stop released the CPU profiler.
	if err := pprof.StartCPUProfile(&bytes.Buffer{}); err != nil {
		t.Errorf("CPU profiler still busy after stop: %v", err)
	} else {
		pprof.StopCPUProfile()
	}
}

// TestCapturerPhaseLifecycle follows one capture from Enable to stop:
// nothing reaches the ring while the profile runs, stop stores both
// profiles with a duration covering the captured work, and a repeated
// stop stores nothing more.
func TestCapturerPhaseLifecycle(t *testing.T) {
	ring, stop := enabled(t)
	entries := func() int {
		t.Helper()
		list, err := ring.List()
		if err != nil {
			t.Fatal(err)
		}
		return len(list)
	}
	const window = 50 * time.Millisecond
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		burnSink = burnCPU(1 << 12)
	}
	if n := entries(); n != 0 {
		t.Fatalf("ring holds %d entries before stop, want 0", n)
	}
	recs := stop()
	storedProfiles(t, ring, recs)
	for _, r := range recs {
		if !ring.Has(r.Digest) {
			t.Errorf("record %s digest %s missing from ring", r.Kind, r.Digest)
		}
		if r.DurationSeconds < window.Seconds() {
			t.Errorf("record %s duration %.3fs shorter than the %v captured", r.Kind, r.DurationSeconds, window)
		}
	}
	stop()
	if n := entries(); n != len(recs) {
		t.Errorf("ring holds %d entries after a second stop, want %d", n, len(recs))
	}
}

// TestEnableSweepMode profiles a sweep as bcetables runs one: the
// runner.Map sweep's results are untouched and its jobs' CPU lands in
// the process's one CPU profile.
func TestEnableSweepMode(t *testing.T) {
	ring, stop := enabled(t)
	pool := runner.New(runner.Options{Workers: 2})
	burns := make([]float64, 3) // one slot per job: no shared writes
	got, err := runner.Map(context.Background(), pool, []int{1, 2, 3},
		func(ctx context.Context, i int, item int) (int, error) {
			deadline := time.Now().Add(100 * time.Millisecond)
			for time.Now().Before(deadline) {
				burns[i] = burnCPU(1 << 12)
			}
			return item * item, nil
		})
	if err != nil {
		t.Fatalf("runner.Map: %v", err)
	}
	if got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Errorf("sweep results corrupted under profiling: %v", got)
	}
	cpu := storedProfiles(t, ring, stop())["cpu"]
	if len(cpu.Samples) == 0 {
		t.Skip("no cpu samples collected (machine too loaded?)")
	}
	for _, s := range cpu.Samples {
		var burn, inRunner bool
		for _, f := range s.Stack {
			burn = burn || f.Function == "bce/internal/prof.burnCPU"
			inRunner = inRunner || strings.HasPrefix(f.Function, "bce/internal/runner.")
		}
		if burn && inRunner {
			return
		}
	}
	t.Error("no cpu sample attributes burnCPU to a runner worker")
}

// TestEnableYieldsBusyCPUProfiler: when the CPU profiler is already
// running, Enable neither fails nor fights for it; the process gets a
// heap record only.
func TestEnableYieldsBusyCPUProfiler(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	defer pprof.StopCPUProfile()
	stop, err := Enable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := stop()
	if len(recs) != 1 || recs[0].Kind != "heap" {
		t.Errorf("records = %+v, want a single heap record", recs)
	}
}
