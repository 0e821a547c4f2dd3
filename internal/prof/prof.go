// Package prof is the continuous-profiling subsystem: it captures
// sampled CPU/heap/mutex/block profiles around sweep and bench phases
// with a bounded overhead budget, stores them in a content-addressed
// ring next to the runner cache, and — the part the rest of the stack
// leans on — parses the pprof protobuf format and diffs two profiles
// into per-function flat/cum deltas so a benchmark or manifest
// regression can name the symbols responsible.
//
// The package is dependency-free by construction: the pprof wire
// format is hand-decoded (decode.go) and hand-encoded (encode.go)
// against the stable profile.proto field numbers, so no protobuf
// runtime is linked. The in-memory model below is deliberately
// simpler than profile.proto — locations are resolved to symbolized
// frames at parse time, and mappings are dropped (all profiles here
// come from Go binaries the repo built itself).
//
// Layering: prof sits above telemetry (span identity) and below the
// runner/bench/dist wiring. runner does NOT import prof — the
// phase-capture hook is injected as a function value
// (runner.SetCaptureHook) so the dependency points the right way.
package prof

// ValueType describes one sample-value dimension, e.g.
// {Type: "cpu", Unit: "nanoseconds"} or {Type: "inuse_space",
// Unit: "bytes"}.
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Frame is one resolved stack frame. Unsymbolized locations (no
// function record) carry the hex address in Function and a zero Line.
type Frame struct {
	// Function is the fully qualified function name
	// ("bce/internal/perceptron.dotKernel").
	Function string `json:"function"`
	// File is the source file path, if known.
	File string `json:"file,omitempty"`
	// Line is the source line, if known.
	Line int64 `json:"line,omitempty"`
}

// Sample is one weighted stack. Stack[0] is the leaf (innermost)
// frame, matching pprof's location ordering; within one location's
// inline expansion the deepest inlined call also comes first.
type Sample struct {
	Stack  []Frame `json:"stack"`
	Values []int64 `json:"values"`
	// Labels holds the string-valued pprof labels (e.g. worker="w0"
	// after a fleet merge).
	Labels map[string]string `json:"labels,omitempty"`
	// NumLabels holds the numeric pprof labels (e.g. bytes=4096 on
	// heap profiles).
	NumLabels map[string]int64 `json:"num_labels,omitempty"`
}

// Profile is the resolved in-memory form of one pprof profile.
type Profile struct {
	// SampleTypes describes Values[i] of every sample, in order.
	SampleTypes []ValueType `json:"sample_types"`
	// DefaultSampleType names the preferred display dimension, if the
	// producer set one ("" otherwise).
	DefaultSampleType string   `json:"default_sample_type,omitempty"`
	Samples           []Sample `json:"samples"`
	// TimeNanos is the capture start time (UnixNano), 0 if unset.
	TimeNanos int64 `json:"time_nanos,omitempty"`
	// DurationNanos is the capture duration, 0 if unset.
	DurationNanos int64 `json:"duration_nanos,omitempty"`
	// PeriodType/Period describe the sampling period (e.g. cpu
	// nanoseconds per sample).
	PeriodType ValueType `json:"period_type,omitempty"`
	Period     int64     `json:"period,omitempty"`
	// Comments carries the profile's free-form comment strings; the
	// fleet merge records per-worker provenance here.
	Comments []string `json:"comments,omitempty"`
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

// Unit returns the unit of the attributed value column ("" if the
// profile has no sample types).
func (p *Profile) Unit() string {
	idx := p.sampleIndex()
	if idx < 0 {
		return ""
	}
	return p.SampleTypes[idx].Unit
}
