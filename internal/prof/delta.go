package prof

import (
	"fmt"
	"sort"
	"strings"
)

// delta.go is the attribution engine: given two profiles of the same
// kind, it aggregates each into per-function flat/cum totals and
// diffs them, so "the sweep got 40% slower" becomes "the time
// went into perceptron.dotKernel". Flat is the value attributed to
// samples whose *leaf* is the function; Cum counts a sample once for
// every function appearing anywhere in its stack (each function at
// most once per sample, so recursion doesn't double-count).

// FuncStats is one function's aggregate within a single profile.
type FuncStats struct {
	Flat int64 `json:"flat"`
	Cum  int64 `json:"cum"`
}

// Aggregate folds a profile's samples into per-function stats over
// the attributed value column (see Profile.sampleIndex).
func Aggregate(p *Profile) map[string]FuncStats {
	idx := p.sampleIndex()
	out := map[string]FuncStats{}
	if idx < 0 {
		return out
	}
	seen := map[string]bool{}
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		v := s.Values[idx]
		if len(s.Stack) > 0 {
			st := out[s.Stack[0].Function]
			st.Flat += v
			out[s.Stack[0].Function] = st
		}
		clear(seen)
		for _, f := range s.Stack {
			if seen[f.Function] {
				continue
			}
			seen[f.Function] = true
			st := out[f.Function]
			st.Cum += v
			out[f.Function] = st
		}
	}
	return out
}

// DeltaLine is one function's base-vs-candidate comparison.
type DeltaLine struct {
	Function  string `json:"function"`
	BaseFlat  int64  `json:"base_flat"`
	CandFlat  int64  `json:"cand_flat"`
	FlatDelta int64  `json:"flat_delta"`
	BaseCum   int64  `json:"base_cum"`
	CandCum   int64  `json:"cand_cum"`
	CumDelta  int64  `json:"cum_delta"`
}

// Delta is the full per-function diff of two profiles.
type Delta struct {
	// Kind names the attributed dimension ("cpu", "inuse_space", ...).
	Kind string `json:"kind"`
	// Unit is the dimension's unit ("nanoseconds", "bytes", ...).
	Unit      string      `json:"unit"`
	BaseTotal int64       `json:"base_total"`
	CandTotal int64       `json:"cand_total"`
	Lines     []DeltaLine `json:"lines"`
}

// Diff computes the per-function delta from base to cand. The two
// profiles must attribute the same unit (sample counts/rates may
// differ; absolute values are compared as-is, which is correct for
// cpu-nanoseconds and byte dimensions).
func Diff(base, cand *Profile) (*Delta, error) {
	bi, ci := base.sampleIndex(), cand.sampleIndex()
	if bi < 0 || ci < 0 {
		return nil, fmt.Errorf("prof: diff: profile has no sample types")
	}
	bt, ct := base.SampleTypes[bi], cand.SampleTypes[ci]
	if bt.Unit != ct.Unit {
		return nil, fmt.Errorf("prof: diff: unit mismatch %q vs %q", bt.Unit, ct.Unit)
	}
	bStats, cStats := Aggregate(base), Aggregate(cand)
	names := map[string]bool{}
	for n := range bStats {
		names[n] = true
	}
	for n := range cStats {
		names[n] = true
	}
	d := &Delta{Kind: ct.Type, Unit: ct.Unit, BaseTotal: base.Total(), CandTotal: cand.Total()}
	for n := range names {
		b, c := bStats[n], cStats[n]
		if b == (FuncStats{}) && c == (FuncStats{}) {
			continue
		}
		d.Lines = append(d.Lines, DeltaLine{
			Function: n,
			BaseFlat: b.Flat, CandFlat: c.Flat, FlatDelta: c.Flat - b.Flat,
			BaseCum: b.Cum, CandCum: c.Cum, CumDelta: c.Cum - b.Cum,
		})
	}
	// Largest absolute flat movement first; ties broken by cum then
	// name so the table is deterministic.
	sort.Slice(d.Lines, func(i, j int) bool {
		a, b := d.Lines[i], d.Lines[j]
		if abs(a.FlatDelta) != abs(b.FlatDelta) {
			return abs(a.FlatDelta) > abs(b.FlatDelta)
		}
		if abs(a.CumDelta) != abs(b.CumDelta) {
			return abs(a.CumDelta) > abs(b.CumDelta)
		}
		return a.Function < b.Function
	})
	return d, nil
}

// Top returns the n largest-movement lines (all lines if n <= 0 or
// exceeds the count).
func (d *Delta) Top(n int) []DeltaLine {
	if n <= 0 || n > len(d.Lines) {
		n = len(d.Lines)
	}
	return d.Lines[:n]
}

// Table renders the top-n delta as an aligned text table, the form
// bcereport prints under -compare:
//
//	profile delta (cpu, nanoseconds): total 1.20s -> 1.86s (+55.0%)
//	     base flat     cand flat         delta   function
//	       450.0ms       980.0ms      +530.0ms   bce/internal/perceptron.dotKernel
func (d *Delta) Table(n int) string {
	var b strings.Builder
	pct := "n/a"
	if d.BaseTotal != 0 {
		pct = fmt.Sprintf("%+.1f%%", 100*float64(d.CandTotal-d.BaseTotal)/float64(d.BaseTotal))
	}
	fmt.Fprintf(&b, "profile delta (%s, %s): total %s -> %s (%s)\n",
		d.Kind, d.Unit, formatValue(d.BaseTotal, d.Unit), formatValue(d.CandTotal, d.Unit), pct)
	fmt.Fprintf(&b, "%14s %14s %14s   %s\n", "base flat", "cand flat", "delta", "function")
	for _, l := range d.Top(n) {
		fmt.Fprintf(&b, "%14s %14s %14s   %s\n",
			formatValue(l.BaseFlat, d.Unit),
			formatValue(l.CandFlat, d.Unit),
			formatSigned(l.FlatDelta, d.Unit),
			l.Function)
	}
	return b.String()
}

// formatValue renders v in a human unit: nanoseconds as seconds or
// milliseconds, bytes as KiB/MiB/GiB, anything else raw.
func formatValue(v int64, unit string) string {
	neg := ""
	u := v
	if u < 0 {
		neg, u = "-", -u
	}
	switch unit {
	case "nanoseconds":
		switch {
		case u >= 1_000_000_000:
			return fmt.Sprintf("%s%.2fs", neg, float64(u)/1e9)
		case u >= 1_000_000:
			return fmt.Sprintf("%s%.1fms", neg, float64(u)/1e6)
		case u >= 1_000:
			return fmt.Sprintf("%s%.1fµs", neg, float64(u)/1e3)
		default:
			return fmt.Sprintf("%s%dns", neg, u)
		}
	case "bytes":
		switch {
		case u >= 1<<30:
			return fmt.Sprintf("%s%.2fGiB", neg, float64(u)/(1<<30))
		case u >= 1<<20:
			return fmt.Sprintf("%s%.2fMiB", neg, float64(u)/(1<<20))
		case u >= 1<<10:
			return fmt.Sprintf("%s%.1fKiB", neg, float64(u)/(1<<10))
		default:
			return fmt.Sprintf("%s%dB", neg, u)
		}
	default:
		return fmt.Sprintf("%s%d", neg, u)
	}
}

func formatSigned(v int64, unit string) string {
	if v >= 0 {
		return "+" + formatValue(v, unit)
	}
	return formatValue(v, unit)
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
