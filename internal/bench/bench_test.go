package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: bce/internal/perceptron
cpu: some cpu
BenchmarkOutput32-8             	181651112	         6.400 ns/op	       0 B/op	       0 allocs/op
BenchmarkOutput32-8             	180000000	         6.600 ns/op	       0 B/op	       0 allocs/op
BenchmarkOutputReference32-8    	 88234567	        13.50 ns/op	       0 B/op	       0 allocs/op
BenchmarkRunNilSink-8           	     285	   4190000 ns/op	   7500000 sim-cycles/sec	      12 B/op	       0 allocs/op
PASS
ok  	bce/internal/perceptron	5.123s
`

func TestParse(t *testing.T) {
	rs, err := Parse("kernel", []byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(rs), rs)
	}
	out := rs[0]
	if out.Name != "Output32" || out.Samples != 2 {
		t.Errorf("first result = %+v, want Output32 with 2 samples", out)
	}
	if out.NsPerOp != 6.5 {
		t.Errorf("Output32 mean ns/op = %v, want 6.5", out.NsPerOp)
	}
	if out.MinNsPerOp != 6.4 {
		t.Errorf("Output32 min ns/op = %v, want 6.4", out.MinNsPerOp)
	}
	if out.Iters != 181651112+180000000 {
		t.Errorf("Output32 iters = %d", out.Iters)
	}
	sink := rs[2]
	if sink.Name != "RunNilSink" {
		t.Fatalf("third result = %+v", sink)
	}
	if got := sink.Metrics["sim-cycles/sec"]; got != 7500000 {
		t.Errorf("custom metric = %v, want 7500000", got)
	}
	if sink.BytesPerOp != 12 {
		t.Errorf("B/op = %v, want 12", sink.BytesPerOp)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse("kernel", []byte("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error for output with no benchmark lines")
	}
}

func TestParseMalformedLine(t *testing.T) {
	if _, err := Parse("kernel", []byte("BenchmarkX-8 notanumber 1 ns/op\n")); err == nil {
		t.Fatal("want error for bad iteration count")
	}
}

func report(results ...Result) *Report {
	r := NewReport()
	r.Results = results
	return r
}

func TestCompareAndRegressions(t *testing.T) {
	old := report(
		Result{Suite: "kernel", Name: "Output32", NsPerOp: 10},
		Result{Suite: "kernel", Name: "Train32", NsPerOp: 20},
		Result{Suite: "kernel", Name: "Removed", NsPerOp: 5},
	)
	new := report(
		Result{Suite: "kernel", Name: "Output32", NsPerOp: 12}, // +20%
		Result{Suite: "kernel", Name: "Train32", NsPerOp: 19},  // -5%
		Result{Suite: "kernel", Name: "Added", NsPerOp: 1},
	)
	cmps := Compare(old, new)
	if len(cmps) != 4 {
		t.Fatalf("got %d comparisons, want 4 (2 shared + new + removed): %+v", len(cmps), cmps)
	}
	if got := Shared(cmps); got != 2 {
		t.Errorf("Shared = %d, want 2", got)
	}
	status := map[string]string{}
	for _, c := range cmps {
		status[c.Name] = c.Status
	}
	if status["Added"] != StatusNew || status["Removed"] != StatusRemoved ||
		status["Output32"] != "" || status["Train32"] != "" {
		t.Errorf("statuses = %v, want Added=new Removed=removed others shared", status)
	}
	bad := Regressions(cmps, 10)
	if len(bad) != 1 || bad[0].Name != "Output32" {
		t.Fatalf("regressions = %+v, want just Output32 (one-sided entries never regress)", bad)
	}
	if got := bad[0].DeltaPct; got < 19.9 || got > 20.1 {
		t.Errorf("delta = %v, want ~20", got)
	}
	tbl := FormatComparisons(cmps, 10)
	if !strings.Contains(tbl, "REGRESSION") {
		t.Errorf("table missing regression flag:\n%s", tbl)
	}
	if !strings.Contains(tbl, "new") || !strings.Contains(tbl, "removed") {
		t.Errorf("table missing new/removed markers:\n%s", tbl)
	}
}

func TestKernelSpeedups(t *testing.T) {
	r := report(
		Result{Suite: "kernel", Name: "Output32", NsPerOp: 6.5},
		Result{Suite: "kernel", Name: "OutputReference32", NsPerOp: 13},
		Result{Suite: "kernel", Name: "Train32", NsPerOp: 10},
		// TrainReference32 missing: pair omitted, not zero.
	)
	sp := KernelSpeedups(r)
	if len(sp) != 1 {
		t.Fatalf("speedups = %+v, want 1", sp)
	}
	if sp[0].Ratio != 2 {
		t.Errorf("ratio = %v, want 2", sp[0].Ratio)
	}
}

func TestSuitesSelector(t *testing.T) {
	all, err := Suites("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("all = %+v", all)
	}
	if _, err := Suites("bogus"); err == nil {
		t.Fatal("want error for unknown selector")
	}
	for _, sel := range []string{"kernel", "pipeline", "table"} {
		ss, err := Suites(sel)
		if err != nil || len(ss) != 1 || ss[0].Name != sel {
			t.Fatalf("Suites(%q) = %+v, %v", sel, ss, err)
		}
	}
}

// TestReportRoundTrip writes a report through JSON and back — the
// path every BENCH_*.json takes — and checks the schema stamp and
// validation survive the trip.
func TestReportRoundTrip(t *testing.T) {
	r := NewReport()
	r.Results = append(r.Results, Result{
		Suite: "kernel", Name: "Output32", Samples: 2, Iters: 100,
		NsPerOp: 6.5, MinNsPerOp: 6.4,
		Metrics: map[string]float64{"sim-cycles/sec": 7.5e6},
	})
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema = %d, want %d", back.Schema, ReportSchema)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped report invalid: %v", err)
	}
	got := back.Find("kernel", "Output32")
	if got == nil || got.NsPerOp != 6.5 || got.Metrics["sim-cycles/sec"] != 7.5e6 {
		t.Errorf("result lost in round trip: %+v", got)
	}
}

func TestValidateReport(t *testing.T) {
	ok := Result{Suite: "kernel", Name: "Output32", NsPerOp: 1}
	cases := []struct {
		name string
		r    Report
		want string // substring of the error; empty = must pass
	}{
		// Pre-versioning trajectory files (e.g. the committed
		// BENCH_pr3.json) have no schema field: version 0 must load.
		{"legacy v0", Report{Results: []Result{ok}}, ""},
		{"current", Report{Schema: ReportSchema, Results: []Result{ok}}, ""},
		{"future schema", Report{Schema: ReportSchema + 1, Results: []Result{ok}}, "schema"},
		{"no results", Report{Schema: ReportSchema}, "no results"},
		{"empty name", Report{Results: []Result{{Suite: "kernel", NsPerOp: 1}}}, "empty suite/name"},
		{"zero ns/op", Report{Results: []Result{{Suite: "kernel", Name: "X"}}}, "non-positive"},
	}
	for _, tc := range cases {
		err := tc.r.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestSuitePatternsNameExistingBenchmarks keeps the suites honest: every
// benchmark a suite pattern names must exist in that suite's package,
// so deleting a benchmark cannot leave a suite silently measuring less.
func TestSuitePatternsNameExistingBenchmarks(t *testing.T) {
	suites, err := Suites("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		names := strings.TrimSuffix(strings.TrimPrefix(s.Pattern, "^Benchmark("), ")$")
		if names == s.Pattern {
			t.Fatalf("suite %s: pattern %q is not ^Benchmark(A|B|...)$", s.Name, s.Pattern)
		}
		files, err := filepath.Glob(filepath.Join("..", "..", s.Pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("suite %s: no test files for %s (%v)", s.Name, s.Pkg, err)
		}
		var src strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src.Write(b)
		}
		for _, name := range strings.Split(names, "|") {
			if !strings.Contains(src.String(), "func Benchmark"+name+"(b *testing.B)") {
				t.Errorf("suite %s: Benchmark%s not found in %s", s.Name, name, s.Pkg)
			}
		}
	}
}
