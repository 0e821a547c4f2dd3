// Package prof parses pprof profiles and folds them into per-function
// flat/cum totals. The benchmark harness (benchmark/) reads the CPU
// profile of its traced phase through Parse, Aggregate and Total to
// report each simulator layer's share of host CPU.
//
// The package is dependency-free by construction: the pprof wire
// format is hand-decoded (decode.go) against the stable profile.proto
// field numbers, so no protobuf runtime is linked. The in-memory model
// below keeps only what Aggregate reads: locations are resolved to
// function names at parse time, and mappings, line numbers, labels and
// timestamps are dropped. Recording, merging and diffing profiles
// (-diff_base, flame graphs) is what `go tool pprof` is for; see
// docs/observability.md "Profiling".
package prof

// ValueType describes one sample-value dimension, e.g.
// {Type: "cpu", Unit: "nanoseconds"} or {Type: "inuse_space",
// Unit: "bytes"}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Frame is one resolved stack frame.
type Frame struct {
	// Function is the fully qualified function name
	// ("bce/internal/perceptron.dotKernel"). Unsymbolized locations
	// carry their hex address instead.
	Function string `json:"function"`
}

// Sample is one weighted stack. Stack[0] is the leaf (innermost)
// frame, matching pprof's location ordering; within one location's
// inline expansion the deepest inlined call also comes first.
type Sample struct {
	Stack  []Frame `json:"stack"`
	Values []int64 `json:"values"`
}

// Profile is the resolved in-memory form of one pprof profile.
type Profile struct {
	// SampleTypes describes Values[i] of every sample, in order.
	SampleTypes []ValueType `json:"sample_types"`
	// DefaultSampleType names the preferred display dimension, if the
	// producer set one ("" otherwise).
	DefaultSampleType string   `json:"default_sample_type,omitempty"`
	Samples           []Sample `json:"samples"`
}

// sampleIndex picks which Values column to attribute: the
// DefaultSampleType if present, else a type named "cpu", else the
// last column (pprof's own convention for e.g. heap profiles, where
// the last type is inuse_space).
func (p *Profile) sampleIndex() int {
	if len(p.SampleTypes) == 0 {
		return -1
	}
	if p.DefaultSampleType != "" {
		for i, st := range p.SampleTypes {
			if st.Type == p.DefaultSampleType {
				return i
			}
		}
	}
	for i, st := range p.SampleTypes {
		if st.Type == "cpu" {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// Total sums the attributed value column over all samples.
func (p *Profile) Total() int64 {
	idx := p.sampleIndex()
	if idx < 0 {
		return 0
	}
	var t int64
	for _, s := range p.Samples {
		if idx < len(s.Values) {
			t += s.Values[idx]
		}
	}
	return t
}
