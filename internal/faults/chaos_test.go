package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"bce/internal/pipeline"
	"bce/internal/runner"
	"bce/internal/workload"
)

// A hung simulation inside a sweep must die by watchdog, and the
// sweep's error must expose the structured diagnostic through the
// panic-recovery chain: *runner.PanicError wrapping
// *pipeline.WatchdogError.
func TestChaosWatchdogThroughSweep(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := runner.New(runner.Options{Workers: 2})
	_, err = runner.Map(context.Background(), p, []string{"hung-config"},
		func(ctx context.Context, i int, item string) (uint64, error) {
			s := pipeline.New(pipeline.Options{
				Hierarchy:        HangHierarchy(),
				WatchdogInterval: 4_000,
			}, workload.New(prof))
			r := s.Run(1_000_000)
			return r.Cycles, nil
		})
	if err == nil {
		t.Fatal("hung sweep completed")
	}
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != "hung-config" {
		t.Errorf("panic error names job %q", pe.Job)
	}
	var wde *pipeline.WatchdogError
	if !errors.As(err, &wde) {
		t.Fatalf("watchdog diagnostic not reachable through %v", err)
	}
	if wde.Head == nil || wde.Interval != 4_000 {
		t.Errorf("diagnostic incomplete: %+v", wde)
	}
}

// An injected panic must surface as a *PanicError naming the job, and
// the job must run once.
func TestChaosPanicInjection(t *testing.T) {
	boom := NewInjector(1)
	attempts := 0
	p := runner.New(runner.Options{Workers: 1})
	_, err := runner.Map(context.Background(), p, []string{"victim"},
		func(ctx context.Context, i int, item string) (int, error) {
			attempts++
			boom.Panic("injected panic")
			return 1, nil
		})
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != "victim" || attempts != 1 {
		t.Errorf("job %q attempts %d, want victim/1", pe.Job, attempts)
	}
}

// simSweep runs a small two-point sweep through a cache backed by the
// given store and returns the results marshalled to canonical JSON.
func simSweep(t *testing.T, store runner.Store, cancelAfter int) ([]byte, error) {
	t.Helper()
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cache := runner.NewCache[uint64]()
	if store != nil {
		cache.SetStore(store,
			func(v uint64) ([]byte, error) { return json.Marshal(v) },
			func(b []byte) (uint64, error) { var v uint64; err := json.Unmarshal(b, &v); return v, err })
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var opts runner.Options
	opts.Workers = 1
	if cancelAfter > 0 {
		n := 0
		opts.Progress = func(pr runner.Progress) {
			n++
			if n >= cancelAfter {
				cancel() // simulated kill: sweep dies mid-flight
			}
		}
	}
	p := runner.New(opts)
	items := []uint64{2_000, 4_000, 6_000}
	out, err := runner.Map(ctx, p, items, func(ctx context.Context, i int, n uint64) (uint64, error) {
		return cache.Do(runner.KeyOf("chaos-sweep", n), func() (uint64, error) {
			s := pipeline.New(pipeline.Options{}, workload.New(prof))
			return s.Run(n).Cycles, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(out)
}

// Killing a sweep mid-flight and resuming against the checkpoint
// journal must produce byte-identical merged output, with the
// already-done work served from the journal instead of recomputed.
func TestChaosKillAndResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sweep.journal")

	// Ground truth: one uninterrupted run, no persistence.
	want, err := simSweep(t, nil, 0)
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}

	// First attempt: journal-backed, killed after the first completed
	// job (context cancellation stands in for SIGKILL; the journal has
	// already fsynced the finished jobs either way).
	j, err := runner.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = simSweep(t, j, 1); err == nil {
		t.Fatal("killed sweep reported success")
	}
	j.Close()

	// Resume: reopen the journal; completed jobs replay, the rest
	// compute.
	j2, err := runner.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Replayed() == 0 {
		t.Fatal("journal lost the completed jobs")
	}
	got, err := simSweep(t, j2, 0)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed output diverged:\n  clean:   %s\n  resumed: %s", want, got)
	}
}

// A corrupted on-disk cache entry must be quarantined and recomputed;
// the sweep's results stay identical to a clean run.
func TestChaosStoreCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := runner.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simSweep(t, store, 0)
	if err != nil {
		t.Fatalf("populate: %v", err)
	}
	victim, err := CorruptDirEntry(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simSweep(t, store, 0)
	if err != nil {
		t.Fatalf("post-corruption sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("corruption changed results:\n  clean: %s\n  after: %s", want, got)
	}
	if _, err := filepath.Glob(victim + ".bad"); err != nil {
		t.Fatal(err)
	}
	bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bad) != 1 {
		t.Errorf("quarantine files = %d, want 1", len(bad))
	}
	// The victim slot must have been recomputed and refiled.
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(matches) != 3 {
		t.Errorf("cache entries = %d, want 3 (victim refiled)", len(matches))
	}
}

// FlipReader and Injector must behave as documented (unit sanity for
// the harness itself).
func TestHarnessReaders(t *testing.T) {
	src := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := io.ReadAll(NewFlipReader(bytes.NewReader(src), 3, 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != 3^0xFF {
		t.Errorf("byte 3 = %#x, want %#x", out[3], 3^0xFF)
	}
	for i, b := range out {
		if i != 3 && b != src[i] {
			t.Errorf("byte %d collateral damage: %#x", i, b)
		}
	}

	inj := NewInjector(2)
	if !inj.Trip() || !inj.Trip() {
		t.Error("armed injector did not trip twice")
	}
	if inj.Remaining() != 0 {
		t.Errorf("Remaining = %d after two trips, want 0", inj.Remaining())
	}
	if inj.Trip() {
		t.Error("exhausted injector still tripping")
	}
}
