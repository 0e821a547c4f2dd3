package bench

import (
	"fmt"
	"strings"
)

// Comparison is the benchstat-style delta between two reports for one
// benchmark. Status distinguishes benchmarks shared by both reports
// (empty, a real delta) from ones present on only one side.
type Comparison struct {
	Suite, Name    string
	OldNs, NewNs   float64
	DeltaPct       float64 // (new-old)/old * 100; positive = slower
	OldAllocs      float64
	NewAllocs      float64
	AllocRegressed bool // allocs/op grew
	// Status is "" for a benchmark in both reports, StatusNew for one
	// only in the candidate, StatusRemoved for one only in the
	// baseline. One-sided entries carry only their side's numbers and
	// are never regressions — a new benchmark has no baseline to
	// regress from — but they are reported, not dropped, so a gate run
	// across a benchmark-set change stays informative.
	Status string
}

// Status values for benchmarks present in only one report.
const (
	StatusNew     = "new"
	StatusRemoved = "removed"
)

// Compare matches results by suite+name and computes ns/op deltas.
// Results present in only one report come back with Status set rather
// than being dropped.
func Compare(old, new *Report) []Comparison {
	var out []Comparison
	for _, n := range new.Results {
		o := old.Find(n.Suite, n.Name)
		if o == nil || o.NsPerOp <= 0 {
			out = append(out, Comparison{
				Suite:     n.Suite,
				Name:      n.Name,
				NewNs:     n.NsPerOp,
				NewAllocs: n.AllocsPerOp,
				Status:    StatusNew,
			})
			continue
		}
		out = append(out, Comparison{
			Suite:          n.Suite,
			Name:           n.Name,
			OldNs:          o.NsPerOp,
			NewNs:          n.NsPerOp,
			DeltaPct:       (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100,
			OldAllocs:      o.AllocsPerOp,
			NewAllocs:      n.AllocsPerOp,
			AllocRegressed: n.AllocsPerOp > o.AllocsPerOp,
		})
	}
	for _, o := range old.Results {
		if new.Find(o.Suite, o.Name) == nil {
			out = append(out, Comparison{
				Suite:     o.Suite,
				Name:      o.Name,
				OldNs:     o.NsPerOp,
				OldAllocs: o.AllocsPerOp,
				Status:    StatusRemoved,
			})
		}
	}
	return out
}

// FormatComparisons renders a fixed-width delta table, flagging rows
// whose slowdown exceeds maxRegressPct.
func FormatComparisons(cmps []Comparison, maxRegressPct float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-24s %14s %14s %9s\n", "suite", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, c := range cmps {
		switch c.Status {
		case StatusNew:
			fmt.Fprintf(&b, "%-10s %-24s %14s %14.2f %9s\n",
				c.Suite, c.Name, "-", c.NewNs, StatusNew)
		case StatusRemoved:
			fmt.Fprintf(&b, "%-10s %-24s %14.2f %14s %9s\n",
				c.Suite, c.Name, c.OldNs, "-", StatusRemoved)
		default:
			flag := ""
			if c.DeltaPct > maxRegressPct {
				flag = "  << REGRESSION"
			}
			fmt.Fprintf(&b, "%-10s %-24s %14.2f %14.2f %+8.1f%%%s\n",
				c.Suite, c.Name, c.OldNs, c.NewNs, c.DeltaPct, flag)
		}
	}
	return b.String()
}

// Regressions returns the comparisons whose slowdown exceeds
// maxRegressPct — the CI gate's failure list. One-sided entries are
// never regressions.
func Regressions(cmps []Comparison, maxRegressPct float64) []Comparison {
	var bad []Comparison
	for _, c := range cmps {
		if c.Status == "" && c.DeltaPct > maxRegressPct {
			bad = append(bad, c)
		}
	}
	return bad
}

// Shared counts the comparisons measured on both sides.
func Shared(cmps []Comparison) int {
	n := 0
	for _, c := range cmps {
		if c.Status == "" {
			n++
		}
	}
	return n
}

// Speedup is a measured optimized-vs-reference kernel ratio.
type Speedup struct {
	Name, Against string
	Ratio         float64
}

// KernelSpeedups extracts the speedup ratios the kernel suite carries:
// the production Output and Train kernels against the retained branchy
// reference kernels. A missing pair is simply omitted, so the caller
// can distinguish "not measured" from "slow". The ratios are
// informational: the kernels are a few percent of simulator time, so
// no gate rests on them.
func KernelSpeedups(r *Report) []Speedup {
	var out []Speedup
	for _, pair := range [][2]string{
		{"Output32", "OutputReference32"},
		{"Train32", "TrainReference32"},
	} {
		opt, ref := r.Find("kernel", pair[0]), r.Find("kernel", pair[1])
		if opt == nil || ref == nil || opt.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{Name: pair[0], Against: pair[1], Ratio: ref.NsPerOp / opt.NsPerOp})
	}
	return out
}
