package report

import (
	"strings"
	"testing"

	"bce/internal/manifest"
)

// fixtureManifest builds a manifest carrying small table2/table3/
// table4/fig8 results in core's JSON shapes.
func fixtureManifest(t *testing.T) *manifest.Manifest {
	t.Helper()
	b := manifest.NewBuilder("bcetables", []string{"-exp", "fidelity"})
	add := func(name string, v any) {
		if err := b.AddResult(name, v); err != nil {
			t.Fatal(err)
		}
	}
	type t2row struct {
		Bench                     string
		MispPer1K, PaperMispPer1K float64
	}
	add("table2", map[string]any{
		"Rows": []t2row{
			{Bench: "gzip", MispPer1K: 5.0, PaperMispPer1K: 5.2},
			{Bench: "mcf", MispPer1K: 14.5, PaperMispPer1K: 16},
			{Bench: "notinpaper", MispPer1K: 3.0},
		},
		"AvgMispPer1K": 4.3,
	})
	type t3row struct {
		Estimator string
		Lambda    int
		PVN, Spec float64
	}
	add("table3", map[string]any{
		"JRS": []t3row{
			{"jrs", 3, 35, 84}, {"jrs", 7, 27, 91}, {"jrs", 11, 25, 95}, {"jrs", 15, 21, 97},
		},
		"Perceptron": []t3row{
			{"perceptron", 25, 75, 33}, {"perceptron", 0, 73, 44},
			{"perceptron", -25, 70, 53}, {"perceptron", -50, 60, 65},
		},
	})
	add("table4", map[string]any{
		"JRS": []gatingRow{
			{Label: "jrs λ=3 PL1", U: 25, P: 16},
			{Label: "jrs λ=3 PL2", U: 13, P: 3.5},
		},
		"Perceptron": []gatingRow{
			{Label: "cic λ=0 PL1", U: 10.5, P: 1.2},
			{Label: "cic λ=-50 PL1", U: 17, P: 2.8},
		},
	})
	add("fig8", map[string]any{
		"Machine": "40c4w",
		"Rows": []map[string]any{
			{"Bench": "gzip", "SpeedupPct": 0.5, "UopReductionPct": 9.0},
			{"Bench": "mcf", "SpeedupPct": -0.5, "UopReductionPct": 12.0},
			{"Bench": "gcc", "SpeedupPct": 0.1, "UopReductionPct": 8.5},
		},
		"AvgSpeedupPct":   0.0333,
		"AvgUopReduction": 9.8333,
	})
	return b.Finish(0, 0)
}

func findRow(t *testing.T, sc *Scorecard, exp, metric string) Row {
	t.Helper()
	for _, r := range sc.Rows {
		if r.Experiment == exp && r.Metric == metric {
			return r
		}
	}
	t.Fatalf("scorecard has no row %s/%s; rows: %+v", exp, metric, sc.Rows)
	return Row{}
}

func TestBuildScorecard(t *testing.T) {
	sc, err := Build(fixtureManifest(t))
	if err != nil {
		t.Fatal(err)
	}

	r := findRow(t, sc, "table2", "gzip_misp_per_kuop")
	if r.Paper != 5.2 || r.Measured != 5.0 || r.Delta != -0.2 {
		t.Errorf("gzip row = %+v", r)
	}
	// Benchmarks absent from the paper's table are not scored.
	for _, row := range sc.Rows {
		if strings.Contains(row.Metric, "notinpaper") {
			t.Errorf("unreferenced benchmark scored: %+v", row)
		}
	}
	avg := findRow(t, sc, "table2", "avg_misp_per_kuop")
	if avg.CILo == nil || avg.CIHi == nil {
		t.Fatal("table2 average has no bootstrap CI")
	}
	// The CI resamples every benchmark the average includes (also ones
	// the paper's table omits), so it is bounded by the sample extremes.
	if *avg.CILo > *avg.CIHi || *avg.CILo < 3.0 || *avg.CIHi > 14.5 {
		t.Errorf("CI [%v, %v] outside sample range", *avg.CILo, *avg.CIHi)
	}

	r = findRow(t, sc, "table3", "cic_lm50_pvn")
	if r.Paper != 61 || r.Measured != 60 {
		t.Errorf("cic λ=-50 PVN row = %+v", r)
	}
	r = findRow(t, sc, "table4", "jrs_l3_pl2_p")
	if r.Paper != 4 || r.Measured != 3.5 {
		t.Errorf("jrs PL2 P row = %+v", r)
	}
	r = findRow(t, sc, "fig8", "avg_uop_reduction_pct")
	if r.Paper != 10 || r.CILo == nil {
		t.Errorf("fig8 row = %+v", r)
	}

	if sc.Summary.Rows != len(sc.Rows) || sc.Summary.WorstMetric == "" {
		t.Errorf("summary = %+v", sc.Summary)
	}

	text := sc.String()
	for _, want := range []string{"gzip_misp_per_kuop", "mean |rel err|", "bcetables"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

// TestScorecardByteStable: the same manifest content must produce
// byte-identical canonical JSON, regardless of wall-clock fields.
func TestScorecardByteStable(t *testing.T) {
	build := func() []byte {
		sc, err := Build(fixtureManifest(t))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := sc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Errorf("canonical scorecard JSON not byte-stable:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "wall_seconds") || strings.Contains(string(a), "git_revision") {
		t.Error("scorecard JSON leaked volatile manifest fields")
	}
}

func TestCompareScorecards(t *testing.T) {
	m := fixtureManifest(t)
	a, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if drifts := CompareScorecards(a, a, 0); len(drifts) != 0 {
		t.Errorf("self-comparison drifted: %+v", drifts)
	}

	b, _ := Build(m)
	for i := range b.Rows {
		if b.Rows[i].Metric == "gzip_misp_per_kuop" {
			b.Rows[i].Measured += 0.5
		}
	}
	b.Rows = b.Rows[:len(b.Rows)-1] // drop one metric entirely
	drifts := CompareScorecards(a, b, 0.1)
	var moved, missing bool
	for _, d := range drifts {
		if d.Metric == "table2/gzip_misp_per_kuop" && d.Delta == 0.5 {
			moved = true
		}
		if d.Missing == "new" {
			missing = true
		}
	}
	if !moved || !missing {
		t.Errorf("drifts = %+v; want a moved metric and a missing one", drifts)
	}
	// The same change stays silent under a loose tolerance, but the
	// missing metric is always reported.
	loose := CompareScorecards(a, b, 1.0)
	if len(loose) != 1 || loose[0].Missing != "new" {
		t.Errorf("loose tolerance drifts = %+v", loose)
	}

	out := RenderDrift(drifts, 0.1)
	if !strings.Contains(out, "gzip_misp_per_kuop") {
		t.Errorf("drift rendering missing metric:\n%s", out)
	}
	if RenderDrift(nil, 0.1) == "" {
		t.Error("empty drift list renders nothing")
	}
}
