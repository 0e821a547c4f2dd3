package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bce/internal/manifest"
	"bce/internal/predictor"
	"bce/internal/workload"
)

// reference computes the calibration uop by uop with Next: the
// mispredictions over the measured span and the per-class counts.
func reference(t *testing.T, name string, warm, uops int) (int, map[string]classCount) {
	t.Helper()
	g, err := workload.Load(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := g.BranchKinds()
	pred := predictor.NewBaselineHybrid()
	classes := map[string]classCount{}
	misp := 0
	for i := 0; i < warm+uops; i++ {
		u, _ := g.Next()
		if !u.IsConditional() {
			continue
		}
		pt := pred.Predict(u.PC)
		pred.Update(u.PC, u.Taken)
		if i < warm {
			continue
		}
		k, _, _ := strings.Cut(kinds[u.PC], "(")
		c := classes[k]
		c.n++
		if pt != u.Taken {
			c.miss++
			misp++
		}
		classes[k] = c
	}
	return misp, classes
}

// TestCalibrationMatchesUopWalk checks that the branch walk behind
// mispRate and attribute measures exactly the branches a uop-by-uop
// walk does.
func TestCalibrationMatchesUopWalk(t *testing.T) {
	const uops = 300_000
	for _, name := range []string{"gzip", "mcf"} {
		misp, wantClasses := reference(t, name, warmup, uops)
		rate, err := mispRate(name, uops)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1000 * float64(misp) / uops; rate != want {
			t.Errorf("%s: mispRate %v, uop walk %v", name, rate, want)
		}
		classes, err := classCounts(name, uops)
		if err != nil {
			t.Fatal(err)
		}
		if len(classes) != len(wantClasses) {
			t.Errorf("%s: %d classes, uop walk %d", name, len(classes), len(wantClasses))
		}
		for k, want := range wantClasses {
			if got := classes[k]; got == nil || *got != want {
				t.Errorf("%s class %s: %+v, uop walk %+v", name, k, got, want)
			}
		}
	}
	if _, err := mispRate("nope", uops); err == nil {
		t.Error("mispRate(nope) did not error")
	}
	if _, err := classCounts("nope", uops); err == nil {
		t.Error("classCounts(nope) did not error")
	}
}

// TestMeasuredSpanBoundaries moves each end of the measured span
// across every uop of a short stretch, so branches fall on both
// boundaries: the branch walk must count exactly the branches at uop
// indices warm to warm+uops-1.
func TestMeasuredSpanBoundaries(t *testing.T) {
	for i := 0; i < 80; i++ {
		warm, uops := 1000+i, 2000
		if i >= 40 {
			warm, uops = 1000, 2000+i
		}
		misp, classes := reference(t, "gzip", warm, uops)
		want := classCount{miss: misp}
		for _, c := range classes {
			want.n += c.n
		}
		g, err := workload.Load("gzip", 0)
		if err != nil {
			t.Fatal(err)
		}
		var got classCount
		measuredBranches(g, warm, uops, func(_ uint64, miss bool) {
			got.n++
			if miss {
				got.miss++
			}
		})
		if got != want {
			t.Errorf("warm %d, uops %d: %+v branches, uop walk %+v", warm, uops, got, want)
		}
	}
}

// TestShortRunWithoutMispredictions runs a measured span short enough
// that gap mispredicts nothing: its ratio is 0, so it must be named on
// the summary line instead of turning the worst deviation into +Inf,
// and the manifest must still encode.
func TestShortRunWithoutMispredictions(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	mb := manifest.NewBuilder("bcecal", []string{"-uops", "20000"})
	err = run(context.Background(), "", 20_000, 1, "", false, mb)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if err := mb.WriteFile(filepath.Join(t.TempDir(), "cal.json"), 0, 0); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if s := string(printed); strings.Contains(s, "Inf") || strings.Contains(s, "NaN") ||
		!strings.Contains(s, "no mispredictions measured for gap\n") {
		t.Errorf("summary:\n%s", s)
	}
}
