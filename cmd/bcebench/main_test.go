package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bce/internal/bench"
	"bce/internal/prof"
)

// TestAttributeNamesRegressedSymbol drives the regression-attribution
// path end to end without running a benchmark: two hand-built reports
// reference CPU profiles by digest, the candidate's profile spends four
// times as long in one perceptron kernel, and the attribution table
// printed for the regressed suite must name that kernel.
func TestAttributeNamesRegressedSymbol(t *testing.T) {
	const kernel = "bce/internal/perceptron.dotKernel"
	profiles := map[string]*prof.Profile{}
	put := func(kernelNs int64) string {
		digest := fmt.Sprintf("kernel-%d", kernelNs)
		profiles[digest] = &prof.Profile{
			SampleTypes: []prof.ValueType{{Type: "cpu", Unit: "nanoseconds"}},
			Samples: []prof.Sample{
				{Stack: []prof.Frame{{Function: kernel}, {Function: "testing.(*B).runN"}}, Values: []int64{kernelNs}},
				{Stack: []prof.Frame{{Function: "runtime.mallocgc"}, {Function: "testing.(*B).runN"}}, Values: []int64{5e6}},
			},
		}
		return digest
	}
	diff := func(base, cand string) (*prof.Delta, error) {
		return prof.Diff(profiles[base], profiles[cand])
	}
	report := func(nsPerOp float64, digest string) *bench.Report {
		r := bench.NewReport()
		r.Results = []bench.Result{{Suite: "kernel", Name: "Output32", NsPerOp: nsPerOp}}
		r.Profiles = []bench.ProfileRef{{Suite: "kernel", Kind: "cpu", Digest: digest}}
		return r
	}
	old, cand := report(4, put(10e6)), report(16, put(40e6))

	bad := bench.Regressions(bench.Compare(old, cand), 10)
	if len(bad) != 1 {
		t.Fatalf("regressions = %+v, want the one kernel benchmark", bad)
	}
	var out bytes.Buffer
	attribute(&out, bad, old, cand, diff, 10)
	got := out.String()
	for _, want := range []string{`attribution for suite "kernel"`, "profile delta", kernel, "+30.0ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("attribution output lacks %q:\n%s", want, got)
		}
	}
}
