package core

// jobspec.go defines the serializable form of a timing simulation: the
// job type the distributed sweep layer (internal/dist) ships to worker
// processes. A JobSpec is a TimingSpec in plain data — the machine
// embedded, the predictor named — plus the run sizes, so Key()
// reproduces exactly the content-addressed cache key the in-process
// path uses. Byte-identity of distributed sweeps rests on that
// equality: a worker files its result under the same key the
// coordinator's final aggregation pass looks up.

import (
	"context"
	"fmt"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
)

// Job-size sanity bounds. JobSpecs arrive over the wire, so hostile or
// corrupt values must fail validation rather than wedge a worker in a
// near-infinite simulation. The paper's full-fidelity runs are 30M
// uops; the cap leaves two orders of magnitude of headroom.
const (
	maxJobUops     = 4 << 30
	maxJobSegments = 1024
)

// JobSizes carries the timing-run lengths a job needs (the functional
// lengths in Sizes never reach a timing key).
type JobSizes struct {
	// Warmup and Measure are uop counts (Sizes.Warmup / Sizes.Measure).
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Segments is the normalized segment count (>= 1).
	Segments int `json:"segments"`
}

// JobSpec is one timing simulation in wire form. Every field is plain
// data; TimingSpec converts back to the executable form.
type JobSpec struct {
	// Bench is the workload name.
	Bench string `json:"bench"`
	// Machine is the full timing-model parameter set, embedded rather
	// than named so coordinator and worker need not agree on a preset
	// registry.
	Machine config.Machine `json:"machine"`
	// Predictor names the baseline predictor kind
	// ("bimodal-gshare" or "gshare-perceptron").
	Predictor string `json:"predictor"`
	// Estimator declaratively describes the confidence estimator; nil
	// means none (the ungated baseline).
	Estimator *confidence.Spec `json:"estimator,omitempty"`
	// GateThreshold and GateLatency mirror gating.Policy.
	GateThreshold int `json:"gate_threshold,omitempty"`
	GateLatency   int `json:"gate_latency,omitempty"`
	// Reversal, Perfect and SpeculativeTrain mirror the TimingSpec
	// flags and the training-site ablation knob.
	Reversal         bool `json:"reversal,omitempty"`
	Perfect          bool `json:"perfect,omitempty"`
	SpeculativeTrain bool `json:"speculative_train,omitempty"`
	// Sizes is the run length.
	Sizes JobSizes `json:"sizes"`
}

// predictorKindFromString is the inverse of PredictorKind.String.
func predictorKindFromString(s string) (PredictorKind, error) {
	switch s {
	case BimodalGshare.String():
		return BimodalGshare, nil
	case GsharePerceptron.String():
		return GsharePerceptron, nil
	}
	return 0, fmt.Errorf("core: unknown predictor kind %q", s)
}

// jobSpecOf converts an in-process timing job to wire form.
func jobSpecOf(spec TimingSpec, sz Sizes, speculativeTrain bool) JobSpec {
	return JobSpec{
		Bench:            spec.Bench,
		Machine:          spec.Machine,
		Predictor:        spec.Predictor.String(),
		Estimator:        spec.EstSpec,
		GateThreshold:    spec.Gating.Threshold,
		GateLatency:      spec.Gating.Latency,
		Reversal:         spec.Reversal,
		Perfect:          spec.Perfect,
		SpeculativeTrain: speculativeTrain,
		Sizes: JobSizes{
			Warmup:   sz.Warmup,
			Measure:  sz.Measure,
			Segments: sz.segments(),
		},
	}
}

// Validate rejects a JobSpec that could not have come from a real
// sweep: unknown predictor, inconsistent estimator spec, negative
// gating, or run sizes outside sanity bounds. Workers validate every
// decoded job before executing it.
func (j JobSpec) Validate() error {
	if j.Bench == "" {
		return fmt.Errorf("core: job spec: empty bench")
	}
	if err := j.Machine.Validate(); err != nil {
		return fmt.Errorf("core: job spec: machine: %w", err)
	}
	if _, err := predictorKindFromString(j.Predictor); err != nil {
		return fmt.Errorf("core: job spec: %w", err)
	}
	if err := j.Estimator.Validate(); err != nil {
		return fmt.Errorf("core: job spec: %w", err)
	}
	if j.GateThreshold < 0 || j.GateLatency < 0 {
		return fmt.Errorf("core: job spec: negative gating policy (%d, %d)", j.GateThreshold, j.GateLatency)
	}
	if j.Sizes.Measure == 0 {
		return fmt.Errorf("core: job spec: zero measure length")
	}
	if j.Sizes.Warmup > maxJobUops || j.Sizes.Measure > maxJobUops {
		return fmt.Errorf("core: job spec: run length %d/%d exceeds %d uops",
			j.Sizes.Warmup, j.Sizes.Measure, uint64(maxJobUops))
	}
	if j.Sizes.Segments < 1 || j.Sizes.Segments > maxJobSegments {
		return fmt.Errorf("core: job spec: segments %d outside [1,%d]", j.Sizes.Segments, maxJobSegments)
	}
	return nil
}

// timingSpec converts back to the executable form.
func (j JobSpec) timingSpec() (TimingSpec, Sizes, error) {
	kind, err := predictorKindFromString(j.Predictor)
	if err != nil {
		return TimingSpec{}, Sizes{}, err
	}
	spec := TimingSpec{
		Bench:     j.Bench,
		Machine:   j.Machine,
		Predictor: kind,
		EstSpec:   j.Estimator,
		Gating:    gating.Policy{Threshold: j.GateThreshold, Latency: j.GateLatency},
		Reversal:  j.Reversal,
		Perfect:   j.Perfect,
	}
	sz := Sizes{Warmup: j.Sizes.Warmup, Measure: j.Sizes.Measure, Segments: j.Sizes.Segments}
	return spec, sz, nil
}

// Key returns the job's content-addressed cache key — identical to the
// key the in-process sweep derives for the same configuration, which
// is what lets remote results merge back byte-identically.
func (j JobSpec) Key() (string, error) {
	if err := j.Validate(); err != nil {
		return "", err
	}
	spec, sz, err := j.timingSpec()
	if err != nil {
		return "", err
	}
	mkEst, err := spec.makeEstimator()
	if err != nil {
		return "", err
	}
	return timingKey(spec, mkEst, sz, j.SpeculativeTrain), nil
}

// ExecJob validates and executes one wire-form job in this process,
// through the normal cached path: the result lands in the local result
// cache (and any attached store), the job observer sees it, and
// repeated execution of the same job is served from cache. This is the
// entry point worker processes call for every job in a batch.
func ExecJob(ctx context.Context, j JobSpec) (metrics.Run, error) {
	if err := j.Validate(); err != nil {
		return metrics.Run{}, err
	}
	spec, sz, err := j.timingSpec()
	if err != nil {
		return metrics.Run{}, err
	}
	return runTimingSpecTrain(ctx, spec, sz, j.SpeculativeTrain)
}
