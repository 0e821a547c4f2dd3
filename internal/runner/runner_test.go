package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesItemOrder(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	p := New(Options{Workers: 8})
	out, err := Map(context.Background(), p, items, func(_ context.Context, i, item int) (int, error) {
		if i%3 == 0 {
			time.Sleep(time.Millisecond) // scramble completion order
		}
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), New(Options{}), nil, func(_ context.Context, i int, item string) (int, error) {
		t.Fatal("fn called for empty items")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapFirstErrorWinsAndCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	items := make([]int, 100)
	_, err := Map(context.Background(), New(Options{Workers: 2}), items, func(ctx context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cancellation must keep the sweep from running every job.
	if n := started.Load(); n == int32(len(items)) {
		t.Errorf("all %d jobs ran despite early failure", n)
	}
}

func TestMapPanicRecovery(t *testing.T) {
	type cfg struct{ Bench string }
	items := []cfg{{"gzip"}, {"mcf"}}
	_, err := Map(context.Background(), New(Options{Workers: 2}), items, func(_ context.Context, i int, c cfg) (int, error) {
		if c.Bench == "mcf" {
			panic("bad simulation state")
		}
		return 1, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "mcf") {
		t.Errorf("panic error does not name the failing job config: %v", pe)
	}
	if !strings.Contains(pe.Error(), "bad simulation state") {
		t.Errorf("panic error does not carry the panic value: %v", pe)
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Map(ctx, New(Options{Workers: 2}), []int{1, 2, 3}, func(ctx context.Context, i, item int) (int, error) {
		return item, nil
	})
	if err == nil {
		t.Fatalf("want context error, got out=%v", out)
	}
}

func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	p := New(Options{Workers: 4, Progress: func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		if pr.Total != 10 {
			t.Errorf("total = %d", pr.Total)
		}
		if pr.ETA < 0 || pr.Elapsed < 0 {
			t.Errorf("negative times: %+v", pr)
		}
		dones = append(dones, pr.Done)
	}})
	if _, err := Map(context.Background(), p, make([]int, 10), func(_ context.Context, i, _ int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != 10 {
		t.Fatalf("%d progress reports, want 10", len(dones))
	}
	// Reports are serialized, so Done must be strictly increasing.
	for i := 1; i < len(dones); i++ {
		if dones[i] != dones[i-1]+1 {
			t.Fatalf("done sequence not monotone: %v", dones)
		}
	}
	if dones[len(dones)-1] != 10 {
		t.Errorf("final done = %d", dones[len(dones)-1])
	}
}

func TestNilPoolUsable(t *testing.T) {
	var p *Pool
	if p.Workers() < 1 {
		t.Fatal("nil pool has no workers")
	}
	out, err := Map(context.Background(), p, []int{1, 2}, func(_ context.Context, i, item int) (int, error) {
		return item + 1, nil
	})
	if err != nil || out[0] != 2 || out[1] != 3 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestSeedDeterministic(t *testing.T) {
	a := Seed("timing", "gzip", 40, "cic(0)", 2)
	b := Seed("timing", "gzip", 40, "cic(0)", 2)
	if a != b {
		t.Fatalf("same config, different seeds: %d vs %d", a, b)
	}
	if a < 0 {
		t.Errorf("seed negative: %d", a)
	}
	if c := Seed("timing", "gzip", 40, "cic(0)", 3); c == a {
		t.Errorf("segment change did not move the seed")
	}
	// The separator must keep adjacent parts unambiguous.
	if Seed("ab", "c") == Seed("a", "bc") {
		t.Errorf("key parts ambiguous under concatenation")
	}
}
