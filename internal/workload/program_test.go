package workload

import (
	"reflect"
	"sync"
	"testing"

	"bce/internal/trace"
)

// TestProgramIndependentOfSegment pins Profile.Segment's promise: the
// static program (CFG, uops and behaviors) is the same for every
// segment; only the walk's randomness differs.
func TestProgramIndependentOfSegment(t *testing.T) {
	for _, p := range Profiles() {
		base := Build(p)
		for seg := 1; seg <= 3; seg++ {
			q := p
			q.Segment = seg
			if !reflect.DeepEqual(Build(q).blocks, base.blocks) {
				t.Errorf("%s: segment %d builds a different program", p.Name, seg)
			}
		}
	}
}

// walkStream records n uops of a walker, and after every 997th uop a
// burst of wrong-path uops restarted alternately at the last branch's
// target (a block start) and at a PC inside a block.
func walkStream(g *Generator, n int) []trace.Uop {
	w := NewWrongPath(g)
	out := make([]trace.Uop, 0, n+n/997*64)
	var target uint64
	for i := 0; i < n; i++ {
		u, _ := g.Next()
		out = append(out, u)
		if u.IsBranch() {
			target = u.Target
		}
		if i%997 != 996 {
			continue
		}
		if (i/997)%2 == 0 && target != 0 {
			w.Restart(target)
		} else {
			w.Restart(u.PC + 2)
		}
		for j := 0; j < 64; j++ {
			wu, _ := w.Next()
			out = append(out, wu)
		}
		w.Stop()
	}
	return out
}

func TestLoadMatchesNew(t *testing.T) {
	if _, err := Load("nope", 0); err == nil {
		t.Fatal("Load(nope) did not error")
	}
	const n = 200_000
	for _, name := range Names() {
		for seg := 0; seg < 2; seg++ {
			p := mustProfile(t, name)
			p.Segment = seg
			g, err := Load(name, seg)
			if err != nil {
				t.Fatal(err)
			}
			if g.Profile().Segment != seg || g.Name() != name {
				t.Fatalf("Load(%s, %d) walks %s segment %d", name, seg, g.Name(), g.Profile().Segment)
			}
			got, want := walkStream(g, n), walkStream(New(p), n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s segment %d: uop %d is %v from Load, %v from New", name, seg, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSharedProgramConcurrentWalks walks one Program from several
// goroutines at once; each must reproduce the stream it yields alone.
// Under -race it also checks that walking never writes the program.
func TestSharedProgramConcurrentWalks(t *testing.T) {
	const walkers, n = 4, 50_000
	prog := Build(mustProfile(t, "gcc"))
	want := make([][]trace.Uop, walkers)
	for seg := range want {
		want[seg] = walkStream(prog.Walk(seg), n)
	}
	var wg sync.WaitGroup
	for seg := 0; seg < walkers; seg++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := walkStream(prog.Walk(seg), n)
			if !reflect.DeepEqual(got, want[seg]) {
				t.Errorf("segment %d: concurrent walk differs from its sequential stream", seg)
			}
		}()
	}
	wg.Wait()
}

// Sinks keep the benchmarked calls from being optimized away.
var (
	programSink *Program
	uopSink     trace.Uop
)

// BenchmarkBuildPrograms builds all 12 benchmark programs per
// iteration: the set-up Load saves after the first use of each.
func BenchmarkBuildPrograms(b *testing.B) {
	ps := Profiles()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			programSink = Build(p)
		}
	}
}

// BenchmarkGeneratorNext times one uop of the correct path and of a
// wrong path restarted every 32 uops at a branch target.
func BenchmarkGeneratorNext(b *testing.B) {
	b.Run("correct", func(b *testing.B) {
		g := New(mustProfile(b, "gzip"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			uopSink, _ = g.Next()
		}
	})
	b.Run("wrong", func(b *testing.B) {
		g := New(mustProfile(b, "gzip"))
		w := NewWrongPath(g)
		var targets []uint64
		for len(targets) < 1024 {
			if u, _ := g.Next(); u.IsConditional() {
				targets = append(targets, u.Target)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%32 == 0 {
				w.Restart(targets[i/32%len(targets)])
			}
			uopSink, _ = w.Next()
		}
	})
}
