package workload

import (
	"testing"

	"bce/internal/trace"
)

// recordTrace records the first n uops of a benchmark into memory.
func recordTrace(t *testing.T, bench string, n int) *trace.SliceSource {
	t.Helper()
	return trace.NewSliceSource(trace.Take(New(mustProfile(t, bench)), n))
}

func TestReplayMatchesRecording(t *testing.T) {
	const n = 5000
	r := NewReplay(recordTrace(t, "gzip", n))
	g := New(mustProfile(t, "gzip"))
	for i := 0; i < n; i++ {
		want, _ := g.Next()
		got, ok := r.Next()
		if !ok || got != want {
			t.Fatalf("uop %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if r.Recorded() != n {
		t.Fatalf("Recorded() = %d", r.Recorded())
	}
}

func TestReplayLoops(t *testing.T) {
	const n = 1000
	r := NewReplay(recordTrace(t, "vpr", n))
	first := make([]trace.Uop, n)
	for i := range first {
		first[i], _ = r.Next()
	}
	for i := 0; i < n; i++ {
		u, ok := r.Next()
		if !ok || u != first[i] {
			t.Fatalf("loop uop %d diverged", i)
		}
	}
}

func TestReplayEmpty(t *testing.T) {
	r := NewReplay(trace.NewSliceSource(nil))
	if _, ok := r.Next(); ok {
		t.Fatal("empty replay produced a uop")
	}
}

func TestReplayNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReplay(nil) did not panic")
		}
	}()
	NewReplay(nil)
}

func TestSyntheticWrongPathSeenTarget(t *testing.T) {
	const n = 3000
	r := NewReplay(recordTrace(t, "gzip", n))
	// Drain to index all PCs; find a branch target that was visited.
	var target uint64
	for i := 0; i < n; i++ {
		u, _ := r.Next()
		if u.Kind.IsConditional() && u.Taken {
			target = u.Target
		}
	}
	if target == 0 {
		t.Skip("no taken branch in recording prefix")
	}
	wp := r.WrongPath(1)
	if wp.Active() {
		t.Fatal("fresh synthetic active")
	}
	wp.Restart(target)
	u, ok := wp.Next()
	if !ok {
		t.Fatal("no wrong-path uop")
	}
	if u.PC != target {
		t.Fatalf("wrong path starts at %#x, want %#x", u.PC, target)
	}
	for i := 0; i < 2000; i++ {
		if _, ok := wp.Next(); !ok {
			t.Fatal("wrong path ended while active")
		}
	}
	wp.Stop()
	if wp.Active() {
		t.Fatal("Stop did not deactivate")
	}
	if _, ok := wp.Next(); ok {
		t.Fatal("stopped wrong path produced uops")
	}
}

func TestSyntheticWrongPathUnseenTarget(t *testing.T) {
	r := NewReplay(recordTrace(t, "gzip", 500))
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		if r.Recorded() >= 500 {
			break
		}
	}
	wp := r.WrongPath(2)
	wp.Restart(0xDEAD_0000) // never recorded
	kinds := map[trace.Kind]int{}
	for i := 0; i < 1000; i++ {
		u, ok := wp.Next()
		if !ok || u.Kind > trace.Ret {
			t.Fatal("synthetic mix broke")
		}
		kinds[u.Kind]++
	}
	if kinds[trace.ALU] == 0 || kinds[trace.Load] == 0 || kinds[trace.CondBranch] == 0 {
		t.Fatalf("synthetic mix missing kinds: %v", kinds)
	}
}
