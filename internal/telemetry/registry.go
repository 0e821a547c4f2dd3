package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing tally. It is deliberately not
// synchronized: one simulation runs on one goroutine, and an unshared
// uint64 increment through a pre-resolved pointer costs the same as a
// struct field increment — the property that lets the registry replace
// the pipeline's ad-hoc tallies without moving any timing numbers.
// Snapshot a Registry after the run (or from the owning goroutine) to
// read values safely.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current tally.
func (c *Counter) Value() uint64 { return c.v }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v = 0 }

// histBuckets is the fixed bucket count: bucket 0 holds the value 0,
// bucket i (i >= 1) holds values v with bits.Len64(v) == i, i.e. the
// range [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram is a fixed-geometry log2 histogram of uint64 observations.
// Like Counter it is unsynchronized; Observe is a bit-length
// computation and three increments.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of
// the observed values: the upper edge of the first log2 bucket whose
// cumulative count reaches ⌈q·count⌉. The log2 geometry makes this at
// most 2× the true quantile — adequate for the p50/p95/p99 gauges
// Snapshot feeds the Prometheus page, which show where latency sits
// rather than measure it exactly. Returns 0 when the histogram is
// empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if float64(target) < q*float64(h.count) {
		target++
	}
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			return uint64(1)<<i - 1
		}
	}
	return h.max
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Bucket is one non-empty log2 bucket: Count observations fell in
// [Lo, Hi] inclusive.
type Bucket struct {
	Lo, Hi uint64
	Count  uint64
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = uint64(1) << (i - 1)
			b.Hi = b.Lo<<1 - 1
		}
		out = append(out, b)
	}
	return out
}

// Registry is an ordered collection of named counters and histograms.
// Metric handles are resolved once (at construction of the subsystem
// that owns them) and incremented directly, so registration cost never
// reaches a hot path. Not synchronized; see Counter.
type Registry struct {
	order      []string
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. It
// panics if the name is already a histogram.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram", name))
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Histogram returns the named histogram, creating it on first use. It
// panics if the name is already a counter.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter", name))
	}
	h := &Histogram{}
	r.histograms[name] = h
	r.order = append(r.order, name)
	return h
}

// Reset zeroes every metric (registrations are kept).
func (r *Registry) Reset() {
	for _, c := range r.counters {
		c.Reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name  string
	Count uint64
	Sum   uint64
	Max   uint64
	Mean  float64
	// P50/P95/P99 are Histogram.Quantile(0.5/0.95/0.99) at snapshot
	// time, clamped to Max: Quantile reports the upper edge of the log2
	// bucket holding the quantile, which for the top bucket can exceed
	// anything actually observed — fine for steering policies, wrong in
	// a report.
	P50     uint64
	P95     uint64
	P99     uint64
	Buckets []Bucket
}

// Snapshot is a point-in-time copy of a registry's metrics, in
// registration order.
type Snapshot struct {
	Counters   []CounterValue
	Histograms []HistogramValue
}

// Snapshot copies the current metric values.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, name := range r.order {
		if c, ok := r.counters[name]; ok {
			s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
		} else if h, ok := r.histograms[name]; ok {
			s.Histograms = append(s.Histograms, HistogramValue{
				Name: name, Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
				Mean:    h.Mean(),
				P50:     min(h.Quantile(0.5), h.Max()),
				P95:     min(h.Quantile(0.95), h.Max()),
				P99:     min(h.Quantile(0.99), h.Max()),
				Buckets: h.Buckets(),
			})
		}
	}
	return s
}

// Counter returns the named counter's value and whether it exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Vars renders the snapshot as a flat name → value map, the shape the
// debug endpoint serves (histograms contribute count/sum/mean/max).
func (s Snapshot) Vars() map[string]any {
	m := make(map[string]any, len(s.Counters)+len(s.Histograms))
	for _, c := range s.Counters {
		m[c.Name] = c.Value
	}
	for _, h := range s.Histograms {
		m[h.Name+".count"] = h.Count
		m[h.Name+".sum"] = h.Sum
		m[h.Name+".mean"] = h.Mean
		m[h.Name+".max"] = h.Max
	}
	return m
}

// String renders the snapshot as an aligned two-column table with
// histogram bucket breakdowns, for terminal inspection (-stats).
func (s Snapshot) String() string {
	var b strings.Builder
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-*s %12d\n", width, c.Name, c.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-*s %12d observations, mean %.1f, max %d\n",
			width, h.Name, h.Count, h.Mean, h.Max)
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "%-*s   [%d..%d] %d\n", width, "", bk.Lo, bk.Hi, bk.Count)
		}
	}
	return b.String()
}

// sortedVarNames returns Vars keys in stable order (test helper shared
// with the debug endpoint rendering).
func sortedVarNames(m map[string]any) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
