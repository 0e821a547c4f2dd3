package main

import (
	"fmt"
	"sort"

	"bce/internal/workload"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the simulator sees, reported by the
// untraced run of every workload. A "pass" is one unit of each of the
// workload's keys (see load.keys).
var endToEnd = []metricDef{
	{"uops_per_s", "uop/s"}, // simulated uops per host second
	{"wall_s", "s"},         // host seconds per pass
	{"cpu_s", "s"},          // user+system CPU seconds per pass
	{"setup_s", "s"},        // median time to build the workload's inputs
	{"max_rss_mb", "MiB"},   // peak resident memory of the process
}

// sweepExperimentNames are the sweep-quick keys, in bcetables order.
var sweepExperimentNames = []string{
	"table2", "table3", "table4", "table5", "table6",
	"fig4", "fig6", "fig8", "fig9", "latency",
}

// perLayer are the numbers of the traced run. Every workload reports all
// of them; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"workload.next.calls", "count"},
		{"workload.next.ns_per_call", "ns"},
		{"workload.wrongpath.calls", "count"},
		{"workload.wrongpath.ns_per_call", "ns"},
		{"workload.new.share", "ratio"},
		{"workload.share", "ratio"},
		{"predictor.calls", "count"},
		{"predictor.ns_per_call", "ns"},
		{"predictor.misp_per_kuop", "misp/kuop"},
		{"predictor.share", "ratio"},
		{"confidence.calls", "count"},
		{"confidence.batch_calls", "count"},
		{"confidence.ns_per_branch", "ns"},
		{"confidence.pvn", "ratio"},
		{"confidence.spec", "ratio"},
		{"confidence.share", "ratio"},
		{"cache.l1.accesses", "count"},
		{"cache.l1.miss_ratio", "ratio"},
		{"cache.l2.miss_ratio", "ratio"},
		{"cache.prefetch.issued", "count"},
		{"cache.share", "ratio"},
		{"pipeline.cycles", "count"},
		{"pipeline.ipc", "uop/cycle"},
		{"pipeline.wrongpath_frac", "ratio"},
		{"pipeline.gated_frac", "ratio"},
		{"pipeline.ns_per_cycle", "ns"},
		{"pipeline.allocs_per_kuop", "alloc/kuop"},
	}
	for _, st := range pipelineStages {
		d = append(d, metricDef{"pipeline." + st + ".share", "ratio"})
	}
	d = append(d, metricDef{"pipeline.self.share", "ratio"})
	for _, e := range sweepExperimentNames {
		d = append(d, metricDef{"core." + e + ".s", "s"})
	}
	d = append(d,
		metricDef{"runner.jobs.timing", "count"},
		metricDef{"runner.jobs.functional", "count"},
		metricDef{"runner.cache.hit_ratio", "ratio"},
		metricDef{"runner.cpu_util", "ratio"},
	)
	for _, b := range workload.Names() {
		d = append(d, metricDef{"bench." + b + ".uops_per_s", "uop/s"})
	}
	return append(d, metricDef{"trace.overhead_frac", "ratio"})
}()

var pipelineStages = []string{"fetch", "dispatch", "issue", "complete", "retire"}

// metricSet collects one run's metrics, restricted to a declared list.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

// newMetricSet starts every declared metric at 0, so a layer a workload
// does not exercise is still reported.
func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.values[d.name] = 0
	}
	return m
}

// set records a metric; an undeclared name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
	}
	m.values[name] = v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) out() map[string]metricOut {
	o := make(map[string]metricOut, len(m.defs))
	for _, d := range m.defs {
		o[d.name] = metricOut{Value: m.values[d.name], Unit: d.unit}
	}
	return o
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones the acceptance procedure uses.
// Fewer than two values give the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
