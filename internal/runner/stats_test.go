package runner

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestProgressCached checks cache-classified jobs are excluded from
// the ETA pace: with every completed job cached, no rate exists and
// ETA stays zero; the Cached tally reaches the final report.
func TestProgressCached(t *testing.T) {
	var reports []Progress
	p := New(Options{Workers: 1, Progress: func(pr Progress) { reports = append(reports, pr) }})
	items := []int{0, 1, 2, 3}
	_, err := Map(context.Background(), p, items, func(ctx context.Context, i int, _ int) (int, error) {
		if i%2 == 0 {
			MarkCached(ctx)
		} else {
			MarkComputed(ctx)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(items) {
		t.Fatalf("reports = %d, want %d", len(reports), len(items))
	}
	last := reports[len(reports)-1]
	if last.Done != 4 || last.Cached != 2 {
		t.Errorf("final report Done=%d Cached=%d, want 4/2", last.Done, last.Cached)
	}
}

// TestProgressAllCachedNoETA pins the fix for cache-skewed ETAs: when
// every completed job is a cache hit there is no uncached pace to
// extrapolate from, so ETA must stay zero rather than projecting a
// near-instant finish.
func TestProgressAllCachedNoETA(t *testing.T) {
	var etas []time.Duration
	p := New(Options{Workers: 2, Progress: func(pr Progress) { etas = append(etas, pr.ETA) }})
	_, err := Map(context.Background(), p, make([]int, 8), func(ctx context.Context, _ int, _ int) (int, error) {
		MarkCached(ctx)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, eta := range etas {
		if eta != 0 {
			t.Errorf("report %d: ETA = %v with only cached completions, want 0", i, eta)
		}
	}
}

// TestMarkComputedWins checks the latch: a job that both hit a cache
// and ran a fresh computation counts as computed.
func TestMarkComputedWins(t *testing.T) {
	var last Progress
	p := New(Options{Workers: 1, Progress: func(pr Progress) { last = pr }})
	_, err := Map(context.Background(), p, []int{0}, func(ctx context.Context, _ int, _ int) (int, error) {
		MarkCached(ctx)   // one lookup hit...
		MarkComputed(ctx) // ...but a fresh simulation also ran
		MarkCached(ctx)   // later hits must not demote it back
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Cached != 0 {
		t.Errorf("Cached = %d, want 0 (computed latch)", last.Cached)
	}
}

// TestMarkCachedOutsideJob checks the context API degrades to a no-op
// without a runner job (e.g. runTiming called directly in tests).
func TestMarkCachedOutsideJob(t *testing.T) {
	MarkCached(context.Background())
	MarkComputed(context.Background())
}

// TestLiveSnapshotScrapedMidSweep is the debug-endpoint race audit:
// scraper goroutines hammer LiveSnapshot (and JSON-encode it, exactly
// as the expvar endpoint does) while a sweep with mixed
// cache classification runs. Under -race this proves the snapshot path
// is synchronization-clean; in any build it checks the invariants a
// torn snapshot would break.
func TestLiveSnapshotScrapedMidSweep(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := LiveSnapshot()
				if _, err := json.Marshal(s); err != nil {
					t.Errorf("snapshot not JSON-encodable: %v", err)
					return
				}
				if s.BusyWorkers < 0 {
					t.Errorf("BusyWorkers = %d mid-sweep", s.BusyWorkers)
					return
				}
				if s.JobsDone+s.JobsFailed > s.JobsStarted {
					t.Errorf("finished %d+%d jobs but started only %d",
						s.JobsDone, s.JobsFailed, s.JobsStarted)
					return
				}
			}
		}()
	}

	p := New(Options{Workers: 4})
	_, err := Map(context.Background(), p, make([]int, 64), func(ctx context.Context, i int, _ int) (int, error) {
		switch i % 3 {
		case 0:
			MarkCached(ctx)
		case 1:
			MarkComputed(ctx)
		}
		return i, nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if busy := LiveSnapshot().BusyWorkers; busy != 0 {
		t.Errorf("BusyWorkers = %d after sweep, want 0", busy)
	}
}

// TestLiveSnapshot checks the process-wide counters advance across a
// sweep and workers return to idle.
func TestLiveSnapshot(t *testing.T) {
	before := LiveSnapshot()
	p := New(Options{Workers: 3})
	_, err := Map(context.Background(), p, make([]int, 5), func(ctx context.Context, i int, _ int) (int, error) {
		if i == 0 {
			MarkCached(ctx)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := LiveSnapshot()
	if got := after.JobsStarted - before.JobsStarted; got != 5 {
		t.Errorf("JobsStarted advanced by %d, want 5", got)
	}
	if got := after.JobsDone - before.JobsDone; got != 5 {
		t.Errorf("JobsDone advanced by %d, want 5", got)
	}
	if got := after.JobsCached - before.JobsCached; got != 1 {
		t.Errorf("JobsCached advanced by %d, want 1", got)
	}
	if after.BusyWorkers != 0 {
		t.Errorf("BusyWorkers = %d after sweep, want 0", after.BusyWorkers)
	}
	if after.SweepTotal != 5 || after.SweepDone != 5 {
		t.Errorf("sweep progress = %d/%d, want 5/5", after.SweepDone, after.SweepTotal)
	}
}
