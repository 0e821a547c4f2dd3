package workload

import (
	"strings"
	"testing"

	"bce/internal/trace"
)

// classShares measures each behavior class's share of dynamic
// conditional-branch execution (blends contribute to a "blend"
// bucket).
func classShares(t *testing.T, name string, uops int) map[string]float64 {
	t.Helper()
	g := New(mustProfile(t, name))
	kinds := g.BranchKinds()
	counts := map[string]int{}
	total := 0
	for i := 0; i < uops; i++ {
		u, _ := g.Next()
		if !u.Kind.IsConditional() {
			continue
		}
		k := kinds[u.PC]
		if j := strings.IndexByte(k, '('); j > 0 {
			k = k[:j]
		}
		counts[k]++
		total++
	}
	shares := map[string]float64{}
	for k, c := range counts {
		shares[k] = float64(c) / float64(total)
	}
	return shares
}

// The hotness-aware class allocation must hold each class's dynamic
// share near its configured weight — this is the property the whole
// calibration pipeline rests on. Loops are structural (LoopFrac) and
// blends absorb boundary mass, so the check allows generous but
// bounded slack.
func TestDynamicSharesTrackWeights(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "gcc", "twolf"} {
		prof := mustProfile(t, name)
		shares := classShares(t, name, 400_000)
		// Sum the mix weights (loops live outside the mix).
		var total float64
		for _, m := range prof.Mix {
			total += m.Weight
		}
		// The ctxbias class drives the confidence results; its dynamic
		// share must be within 3x of its weight either way (blends
		// blur the boundary, perfect equality is not expected).
		var ctxW float64
		// ctx weight is the CtxBiasMix entry; identify by generating
		// one behavior from each entry and checking its kind.
		for _, m := range prof.Mix {
			b := m.Make(newTestRng())
			if strings.HasPrefix(b.Kind(), "ctxbias") {
				ctxW += m.Weight / total
			}
		}
		got := shares["ctxbias"] + shares["blend"] // blends include ctx mass
		if ctxW > 0.001 && (got < ctxW/3 || got > ctxW*3+0.05) {
			t.Errorf("%s: ctxbias dynamic share %.3f vs weight %.3f (outside 3x)",
				name, got, ctxW)
		}
		// No class may silently vanish if its weight is meaningful.
		for _, m := range prof.Mix {
			b := m.Make(newTestRng())
			k := b.Kind()
			if j := strings.IndexByte(k, '('); j > 0 {
				k = k[:j]
			}
			w := m.Weight / total
			if w > 0.05 && shares[k]+shares["blend"] < 0.005 {
				t.Errorf("%s: class %s (weight %.2f) missing from dynamic stream", name, k, w)
			}
		}
	}
}

func newTestRng() *Rand { return NewRand(1) }

// The generator's phase bit must toggle at roughly the configured
// PhaseLen period.
func TestPhaseLength(t *testing.T) {
	p := mustProfile(t, "gzip")
	p.PhaseLen = 100
	g := New(p)
	toggles := 0
	last := false
	branches := 0
	for i := 0; i < 600_000; i++ {
		u, _ := g.Next()
		if !u.Kind.IsConditional() {
			continue
		}
		branches++
		if g.phase != last {
			toggles++
			last = g.phase
		}
	}
	if toggles == 0 {
		t.Fatal("phase never toggled")
	}
	meanLen := float64(branches) / float64(toggles)
	if meanLen < 50 || meanLen > 200 {
		t.Errorf("mean phase length %.0f branches, configured 100", meanLen)
	}
}

// Wrong-path generation across many diverge/recover cycles must stay
// inside the recorded CFG's PC space and never influence the main
// walk.
func TestWrongPathIsolationStress(t *testing.T) {
	g := New(mustProfile(t, "mcf"))
	w := NewWrongPath(g)
	// Interleave: advance main generator, periodically run wrong path.
	var mainUops []trace.Uop
	for i := 0; i < 20_000; i++ {
		u, _ := g.Next()
		mainUops = append(mainUops, u)
		if i%500 == 499 {
			w.Restart(u.PC)
			for j := 0; j < 200; j++ {
				if _, ok := w.Next(); !ok {
					t.Fatal("wrong path ended")
				}
			}
			w.Stop()
		}
	}
	// A fresh generator must reproduce the identical main stream.
	g2 := New(mustProfile(t, "mcf"))
	for i, want := range mainUops {
		got, _ := g2.Next()
		if got != want {
			t.Fatalf("wrong path leaked into main walk at uop %d", i)
		}
	}
}

// Segments share the static program but draw independent dynamic
// randomness: PCs match position-by-position only until outcomes
// diverge, and calibration-relevant statistics stay close.
func TestSegmentsIndependentButCalibrated(t *testing.T) {
	p := mustProfile(t, "gzip")
	s0 := New(p)
	p1 := p
	p1.Segment = 1
	s1 := New(p1)
	diverged := false
	for i := 0; i < 5000; i++ {
		a, _ := s0.Next()
		b, _ := s1.Next()
		if a != b {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("segment 1 replicated segment 0 exactly")
	}
	// Static branch population identical.
	k0 := New(p).BranchKinds()
	k1 := New(p1).BranchKinds()
	if len(k0) != len(k1) {
		t.Fatalf("static branch counts differ: %d vs %d", len(k0), len(k1))
	}
	for pc, kind := range k0 {
		if k1[pc] != kind {
			t.Fatalf("behavior at %#x differs across segments: %s vs %s", pc, kind, k1[pc])
		}
	}
}
