package prof

import "testing"

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
