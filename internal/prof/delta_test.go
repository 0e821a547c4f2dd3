package prof

import (
	"strings"
	"testing"
)

// cpuProfile builds a single-column cpu/nanoseconds profile from
// (leaf-first stack, value) pairs.
func cpuProfile(samples ...Sample) *Profile {
	return &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Samples:     samples,
	}
}

func stack(fns ...string) []Frame {
	out := make([]Frame, len(fns))
	for i, fn := range fns {
		out[i] = Frame{Function: fn}
	}
	return out
}

func TestAggregateFlatCum(t *testing.T) {
	p := cpuProfile(
		Sample{Stack: stack("leaf", "mid", "root"), Values: []int64{10}},
		Sample{Stack: stack("mid", "root"), Values: []int64{5}},
		// Recursive stack: "rec" appears twice but must be cum-counted
		// once for this sample.
		Sample{Stack: stack("rec", "rec", "root"), Values: []int64{7}},
	)
	got := Aggregate(p)
	want := map[string]FuncStats{
		"leaf": {Flat: 10, Cum: 10},
		"mid":  {Flat: 5, Cum: 15},
		"root": {Flat: 0, Cum: 22},
		"rec":  {Flat: 7, Cum: 7},
	}
	for fn, w := range want {
		if got[fn] != w {
			t.Errorf("Aggregate[%q] = %+v, want %+v", fn, got[fn], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("Aggregate has %d functions, want %d: %+v", len(got), len(want), got)
	}
}

func TestDiff(t *testing.T) {
	base := cpuProfile(
		Sample{Stack: stack("kernel", "sweep"), Values: []int64{100}},
		Sample{Stack: stack("parse", "sweep"), Values: []int64{50}},
	)
	cand := cpuProfile(
		Sample{Stack: stack("kernel", "sweep"), Values: []int64{400}},
		Sample{Stack: stack("parse", "sweep"), Values: []int64{60}},
	)
	d, err := Diff(base, cand)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Kind != "cpu" || d.Unit != "nanoseconds" {
		t.Errorf("Kind/Unit = %q/%q", d.Kind, d.Unit)
	}
	if d.BaseTotal != 150 || d.CandTotal != 460 {
		t.Errorf("totals = %d -> %d, want 150 -> 460", d.BaseTotal, d.CandTotal)
	}
	if len(d.Lines) != 3 {
		t.Fatalf("got %d lines, want 3 (kernel, sweep, parse)", len(d.Lines))
	}
	// Sorted by |flat delta| desc: kernel (+300), parse (+10), then
	// sweep (flat 0, cum +310).
	if d.Lines[0].Function != "kernel" || d.Lines[0].FlatDelta != 300 {
		t.Errorf("line 0 = %+v, want kernel +300", d.Lines[0])
	}
	if d.Lines[1].Function != "parse" || d.Lines[1].FlatDelta != 10 {
		t.Errorf("line 1 = %+v, want parse +10", d.Lines[1])
	}
	if d.Lines[2].Function != "sweep" || d.Lines[2].CumDelta != 310 {
		t.Errorf("line 2 = %+v, want sweep cum +310", d.Lines[2])
	}
	if top := d.Top(1); len(top) != 1 || top[0].Function != "kernel" {
		t.Errorf("Top(1) = %+v", top)
	}
	if top := d.Top(0); len(top) != 3 {
		t.Errorf("Top(0) returned %d lines, want all 3", len(top))
	}
}

func TestDiffFunctionOnlyInOneSide(t *testing.T) {
	base := cpuProfile(Sample{Stack: stack("gone"), Values: []int64{80}})
	cand := cpuProfile(Sample{Stack: stack("new"), Values: []int64{20}})
	d, err := Diff(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DeltaLine{}
	for _, l := range d.Lines {
		byName[l.Function] = l
	}
	if l := byName["gone"]; l.FlatDelta != -80 || l.CandFlat != 0 {
		t.Errorf("gone = %+v, want flat delta -80", l)
	}
	if l := byName["new"]; l.FlatDelta != 20 || l.BaseFlat != 0 {
		t.Errorf("new = %+v, want flat delta +20", l)
	}
}

func TestDiffUnitMismatch(t *testing.T) {
	base := cpuProfile(Sample{Stack: stack("f"), Values: []int64{1}})
	cand := &Profile{
		SampleTypes: []ValueType{{Type: "inuse_space", Unit: "bytes"}},
		Samples:     []Sample{{Stack: stack("f"), Values: []int64{1}}},
	}
	if _, err := Diff(base, cand); err == nil {
		t.Error("Diff accepted nanoseconds vs bytes")
	}
	if _, err := Diff(&Profile{}, cand); err == nil {
		t.Error("Diff accepted a profile with no sample types")
	}
}

func TestTable(t *testing.T) {
	base := cpuProfile(Sample{Stack: stack("bce/internal/perceptron.dotKernel"), Values: []int64{450_000_000}})
	cand := cpuProfile(Sample{Stack: stack("bce/internal/perceptron.dotKernel"), Values: []int64{980_000_000}})
	d, err := Diff(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	tbl := d.Table(10)
	for _, want := range []string{
		"profile delta (cpu, nanoseconds)",
		"450.0ms", "980.0ms", "+530.0ms",
		"bce/internal/perceptron.dotKernel",
		"+117.8%",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTableZeroBase(t *testing.T) {
	d, err := Diff(cpuProfile(), cpuProfile(Sample{Stack: stack("f"), Values: []int64{5}}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl := d.Table(5); !strings.Contains(tbl, "n/a") {
		t.Errorf("zero-base table should print n/a for the percent:\n%s", tbl)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    int64
		unit string
		want string
	}{
		{1_500_000_000, "nanoseconds", "1.50s"},
		{12_300_000, "nanoseconds", "12.3ms"},
		{4_500, "nanoseconds", "4.5µs"},
		{999, "nanoseconds", "999ns"},
		{-12_300_000, "nanoseconds", "-12.3ms"},
		{3 << 30, "bytes", "3.00GiB"},
		{5 << 20, "bytes", "5.00MiB"},
		{2 << 10, "bytes", "2.0KiB"},
		{512, "bytes", "512B"},
		{42, "count", "42"},
	}
	for _, c := range cases {
		if got := formatValue(c.v, c.unit); got != c.want {
			t.Errorf("formatValue(%d, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
	if got := formatSigned(500, "count"); got != "+500" {
		t.Errorf("formatSigned(500) = %q", got)
	}
	if got := formatSigned(-500, "count"); got != "-500" {
		t.Errorf("formatSigned(-500) = %q", got)
	}
}
