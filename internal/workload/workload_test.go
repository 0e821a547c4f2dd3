package workload

import (
	"math/rand"
	"testing"

	"bce/internal/trace"
)

func TestGeneratorDeterminism(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(p), New(p)
	for i := 0; i < 20000; i++ {
		ua, _ := a.Next()
		ub, _ := b.Next()
		if ua != ub {
			t.Fatalf("divergence at uop %d: %v vs %v", i, ua, ub)
		}
	}
}

func TestGeneratorBranchDensity(t *testing.T) {
	for _, p := range Profiles() {
		g := New(p)
		const n = 50000
		branches := 0
		for i := 0; i < n; i++ {
			u, ok := g.Next()
			if !ok {
				t.Fatalf("%s: stream ended", p.Name)
			}
			if u.IsConditional() {
				branches++
			}
		}
		// Expected ≈ 0.85/(MeanBlockLen+1) conditional terminals/uop.
		want := 0.85 / float64(p.MeanBlockLen+1)
		got := float64(branches) / n
		if got < want*0.5 || got > want*1.6 {
			t.Errorf("%s: branch density %.4f, expected near %.4f", p.Name, got, want)
		}
		uops, brs := g.Counts()
		if uops != n || brs != uint64(branches) {
			t.Errorf("%s: Counts() = %d,%d want %d,%d", p.Name, uops, brs, n, branches)
		}
	}
}

func TestGeneratorUopValidity(t *testing.T) {
	g := New(mustProfile(t, "mcf"))
	for i := 0; i < 30000; i++ {
		u, _ := g.Next()
		if u.Kind > trace.Ret {
			t.Fatalf("invalid kind at %d: %v", i, u)
		}
		if u.Kind.IsMem() && u.Addr == 0 {
			t.Fatalf("memory uop without address: %v", u)
		}
		if u.IsBranch() && !u.Kind.IsConditional() && !u.Taken {
			t.Fatalf("unconditional branch not taken: %v", u)
		}
		if u.Kind.IsConditional() && u.Target == 0 {
			t.Fatalf("branch without target: %v", u)
		}
		if u.PC < codeBase {
			t.Fatalf("uop below code base: %v", u)
		}
	}
}

func TestGeneratorControlFlowConsistency(t *testing.T) {
	// After a taken conditional branch, the next uop's PC must equal
	// the branch target; after a not-taken one it must not.
	g := New(mustProfile(t, "vpr"))
	var prev trace.Uop
	havePrev := false
	for i := 0; i < 30000; i++ {
		u, _ := g.Next()
		if havePrev && prev.Kind.IsConditional() {
			if prev.Taken && u.PC != prev.Target {
				t.Fatalf("taken branch %v followed by %v", prev, u)
			}
			if !prev.Taken && u.PC == prev.Target && prev.Target != prev.PC+4 {
				t.Fatalf("not-taken branch %v jumped to target", prev)
			}
		}
		prev, havePrev = u, true
	}
}

func TestGeneratorHotness(t *testing.T) {
	// Execution must concentrate: the top 10% of static branches
	// should carry well over 10% of dynamic instances.
	g := New(mustProfile(t, "gcc"))
	counts := map[uint64]int{}
	total := 0
	for i := 0; i < 200000; i++ {
		u, _ := g.Next()
		if u.IsConditional() {
			counts[u.PC]++
			total++
		}
	}
	if len(counts) < 20 {
		t.Fatalf("only %d static branches exercised", len(counts))
	}
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	// Select the top decile by simple pass.
	max10 := len(all) / 10
	if max10 < 1 {
		max10 = 1
	}
	// partial selection: repeatedly extract max (small N).
	top := 0
	for k := 0; k < max10; k++ {
		best := -1
		for i, c := range all {
			if c > 0 && (best < 0 || c > all[best]) {
				best = i
			}
		}
		top += all[best]
		all[best] = -1
	}
	if float64(top) < 0.3*float64(total) {
		t.Errorf("top decile carries only %.1f%% of branches; hotness too flat",
			100*float64(top)/float64(total))
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("%d profiles, want 12", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if _, ok := Table2Target[p.Name]; !ok {
			t.Errorf("profile %q missing Table2Target entry", p.Name)
		}
		g := New(p) // must not panic
		if g.StaticBranches() < 10 {
			t.Errorf("%s: only %d static branches", p.Name, g.StaticBranches())
		}
	}
	for name := range Table2Target {
		if !seen[name] {
			t.Errorf("Table2Target has %q but no profile", name)
		}
	}
	if len(Names()) != 12 || len(SortedNames()) != 12 {
		t.Error("Names()/SortedNames() size")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) did not error")
	}
}

func TestNewPanics(t *testing.T) {
	bad := []Profile{
		{Name: "x", Blocks: 1, MeanBlockLen: 5, Mix: []MixEntry{RandomMix(1)}},
		{Name: "x", Blocks: 10, MeanBlockLen: 0, Mix: []MixEntry{RandomMix(1)}},
		{Name: "x", Blocks: 10, MeanBlockLen: 5},
		{Name: "x", Blocks: 10, MeanBlockLen: 5, Mix: []MixEntry{{Weight: 0}}},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(p)
		}()
	}
}

func mustProfile(t testing.TB, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBehaviorClasses(t *testing.T) {
	rng := NewRand(1)
	var st BranchState

	b := Biased{PTaken: 0.9}
	taken := 0
	for i := 0; i < 10000; i++ {
		if b.Outcome(&st, Env{}, rng) {
			taken++
		}
	}
	if taken < 8700 || taken > 9300 {
		t.Errorf("Biased(0.9): %d/10000 taken", taken)
	}

	l := Loop{Period: 5}
	st = BranchState{}
	seq := make([]bool, 10)
	for i := range seq {
		seq[i] = l.Outcome(&st, Env{}, rng)
	}
	want := []bool{true, true, true, true, false, true, true, true, true, false}
	for i := range seq {
		if seq[i] != want[i] {
			t.Fatalf("Loop(5) seq = %v", seq)
		}
	}

	p := Pattern{Seq: []bool{true, false, true}}
	st = BranchState{}
	got := []bool{}
	for i := 0; i < 6; i++ {
		got = append(got, p.Outcome(&st, Env{}, rng))
	}
	for i, w := range []bool{true, false, true, true, false, true} {
		if got[i] != w {
			t.Fatalf("Pattern seq = %v", got)
		}
	}

	gc := GlobalCorr{Bits: []int{0, 2}, Signs: []int{1, 1}}
	// hist 0b101: bits 0 and 2 set -> sum +2 -> taken.
	if !gc.Outcome(&st, Env{Ghist: 0b101}, rng) {
		t.Error("GlobalCorr positive case")
	}
	// hist 0: both -1 -> sum -2 -> not taken.
	if gc.Outcome(&st, Env{}, rng) {
		t.Error("GlobalCorr negative case")
	}

	cb := ContextBiased{Bits: []int{3, 5}, Want: []bool{true, true}, PMajor: 1.0, PMinor: 0.0}
	if cb.Outcome(&st, Env{Ghist: 1<<3 | 1<<5}, rng) {
		t.Error("ContextBiased minority context not detected")
	}
	if !cb.Outcome(&st, Env{Ghist: 1 << 3}, rng) {
		t.Error("ContextBiased majority context misfired")
	}

	r := Random{}
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Outcome(&st, Env{}, rng) {
			n++
		}
	}
	if n < 4700 || n > 5300 {
		t.Errorf("Random: %d/10000", n)
	}

	for _, bh := range []Behavior{b, l, p, gc, cb, r} {
		if bh.Kind() == "" {
			t.Errorf("%T empty Kind", bh)
		}
	}
}

func TestWrongPath(t *testing.T) {
	g := New(mustProfile(t, "gzip"))
	w := NewWrongPath(g)
	if w.Active() {
		t.Fatal("fresh wrong path active")
	}
	if _, ok := w.Next(); ok {
		t.Fatal("inactive wrong path produced uops")
	}
	// Drive the generator to find a branch target, then restart the
	// wrong path there.
	var target uint64
	for i := 0; i < 1000; i++ {
		u, _ := g.Next()
		if u.IsConditional() {
			target = u.Target
			break
		}
	}
	if target == 0 {
		t.Fatal("no branch found")
	}
	before, _ := g.Counts()
	w.Restart(target)
	if !w.Active() {
		t.Fatal("Restart did not activate")
	}
	first, ok := w.Next()
	if !ok {
		t.Fatal("active wrong path produced nothing")
	}
	if first.PC != target {
		t.Errorf("wrong path starts at %#x, want %#x", first.PC, target)
	}
	for i := 0; i < 5000; i++ {
		u, ok := w.Next()
		if !ok || u.Kind > trace.Ret {
			t.Fatal("wrong path ended or invalid")
		}
	}
	// Wrong path must not mutate the main generator.
	after, _ := g.Counts()
	if before != after {
		t.Error("wrong path advanced the main generator")
	}
	w.Stop()
	if w.Active() {
		t.Error("Stop did not deactivate")
	}
	// Restart at a non-block PC hashes to some block; must not panic.
	w.Restart(0xDEAD_BEEF)
	if _, ok := w.Next(); !ok {
		t.Error("hashed restart produced nothing")
	}
}

func newMemGen2(p MemProfile) *memGen { return newMemGen(p, 0) }

func TestMemGenMixture(t *testing.T) {
	rng := NewRand(9)
	g := newMemGen2(MemProfile{SeqFrac: 1})
	a1 := g.next(rng)
	a2 := g.next(rng)
	_ = a1
	_ = a2
	// All-sequential: addresses from the same stream ascend by 8.
	one := newMemGen2(MemProfile{SeqFrac: 1, Streams: 1})
	prev := one.next(rng)
	for i := 0; i < 100; i++ {
		cur := one.next(rng)
		if cur != prev+8 {
			t.Fatalf("sequential stream jumped: %#x -> %#x", prev, cur)
		}
		prev = cur
	}
	// Chase stays within the working set.
	ch := newMemGen2(MemProfile{ChaseFrac: 1, WorkingSetBytes: 4096})
	for i := 0; i < 1000; i++ {
		a := ch.next(rng)
		if a < 0x2000_0000 || a >= 0x2000_0000+4096 {
			t.Fatalf("chase address %#x outside working set", a)
		}
		if a&7 != 0 {
			t.Fatalf("unaligned chase address %#x", a)
		}
	}
	// Stride advances by StrideBytes.
	st := newMemGen2(MemProfile{StrideFrac: 1, StrideBytes: 128})
	p1 := st.next(rng)
	p2 := st.next(rng)
	if p2 != p1+128 {
		t.Fatalf("stride %#x -> %#x", p1, p2)
	}
}

func TestMemGenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad mem profile did not panic")
		}
	}()
	newMemGen2(MemProfile{WorkingSetBytes: 1})
}

// The chunked call stack must behave exactly like a plain slice stack
// across chunk boundaries, including after a reset.
func TestCallStackMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cs callStack
	var ref []int32
	deepest := 0
	for step := 0; step < 6*callStackChunk; step++ {
		deepest = max(deepest, cs.n)
		if step == 3*callStackChunk {
			cs.n, ref = 0, ref[:0]
		}
		// Biased towards pushes, like the synthetic programs, so the
		// stack spans several chunks.
		if rng.Intn(8) < 7 {
			v := rng.Int31()
			cs.push(v)
			ref = append(ref, v)
			continue
		}
		got, ok := cs.pop()
		if len(ref) == 0 {
			if ok {
				t.Fatalf("step %d: pop of an empty stack returned %d", step, got)
			}
			continue
		}
		want := ref[len(ref)-1]
		ref = ref[:len(ref)-1]
		if !ok || got != want {
			t.Fatalf("step %d: pop = %d, %v; want %d", step, got, ok, want)
		}
	}
	if cs.n != len(ref) {
		t.Fatalf("depth %d, want %d", cs.n, len(ref))
	}
	if deepest < 2*callStackChunk {
		t.Fatalf("stack reached depth %d; the test never crossed two chunk boundaries", deepest)
	}
}
