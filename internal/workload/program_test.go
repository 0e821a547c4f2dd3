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

// TestNextBranchMatchesNext checks NextBranch against Next filtered to
// conditional branches: the same PCs, directions and uop gaps, the
// same Counts and History at every branch, and the same walk state,
// so that Next after any number of NextBranch calls (and NextBranch
// after Next stopped mid-block) continues the reference stream,
// addresses included.
func TestNextBranchMatchesNext(t *testing.T) {
	const n = 200_000
	for _, name := range Names() {
		for seg := 0; seg < 2; seg++ {
			walk := func() *Generator {
				g, err := Load(name, seg)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			// The reference: n uops of Next plus a margin for the
			// last NextBranch, with the branch count and history
			// after each uop.
			ref := walk()
			m := n + 4096
			uops := make([]trace.Uop, m)
			branches := make([]uint64, m)
			hist := make([]uint64, m)
			for i := range uops {
				uops[i], _ = ref.Next()
				_, branches[i] = ref.Counts()
				hist[i] = ref.History()
			}
			// check compares g's state after it consumed the first
			// i uops of the reference.
			check := func(g *Generator, i int, how string) {
				t.Helper()
				gu, gb := g.Counts()
				if gu != uint64(i) || gb != branches[i-1] || g.History() != hist[i-1] {
					t.Fatalf("%s/%d after %d uops (%s): Counts %d,%d History %#x, want %d,%d %#x",
						name, seg, i, how, gu, gb, g.History(), i, branches[i-1], hist[i-1])
				}
			}
			branch := func(g *Generator, i int) int {
				t.Helper()
				pc, taken, k := g.NextBranch()
				if k == 0 {
					t.Fatalf("%s/%d: NextBranch after uop %d consumed no uops", name, seg, i)
				}
				i += int(k)
				if u := uops[i-1]; !u.IsConditional() || u.PC != pc || u.Taken != taken {
					t.Fatalf("%s/%d: NextBranch ended at uop %d as (%#x, %v), reference uop is %v", name, seg, i-1, pc, taken, u)
				}
				for _, u := range uops[i-int(k) : i-1] {
					if u.IsConditional() {
						t.Fatalf("%s/%d: NextBranch skipped the conditional branch %v before uop %d", name, seg, u, i-1)
					}
				}
				check(g, i, "NextBranch")
				return i
			}

			g := walk()
			for i := 0; i < n; {
				i = branch(g, i)
			}

			// Mixed: a varying number of Next calls, usually stopping
			// mid-block, then one to three NextBranch calls.
			g = walk()
			for i, step := 0, 0; i < n; step++ {
				for j := 0; j < step*7%23; j++ {
					if u, _ := g.Next(); u != uops[i] {
						t.Fatalf("%s/%d: mixed walk uop %d is %v, reference %v", name, seg, i, u, uops[i])
					}
					i++
					check(g, i, "Next")
				}
				for j := 0; j <= step%3; j++ {
					i = branch(g, i)
				}
			}
		}
	}
}

// Sinks keep the benchmarked calls from being optimized away.
var (
	programSink *Program
	uopSink     trace.Uop
	pcSink      uint64
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

// BenchmarkGeneratorNextBranch times the walk to one conditional
// branch, the functional path's step; uops/s counts the uops walked.
func BenchmarkGeneratorNextBranch(b *testing.B) {
	g := New(mustProfile(b, "gzip"))
	var uops uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, _, n := g.NextBranch()
		pcSink += pc
		uops += n
	}
	b.ReportMetric(float64(uops)/b.Elapsed().Seconds(), "uops/s")
}
