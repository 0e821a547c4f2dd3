// Package bce is a from-scratch reproduction of "Perceptron-Based
// Branch Confidence Estimation" (Akkary, Srinivasan, Koltur, Patil,
// Refaai — HPCA 2004): a perceptron confidence estimator trained on
// correct/incorrect prediction outcomes, the pipeline-gating and
// branch-reversal mechanisms built on it, every baseline estimator the
// paper compares against, and the out-of-order superscalar timing
// substrate the experiments run on.
//
// # Quick start
//
//	gen := bce.NewGenerator("gzip")              // synthetic SPECint-like workload
//	sim := bce.NewSimulation(bce.SimConfig{
//		Bench:     "gzip",
//		Estimator: bce.NewCIC(0),                // the paper's estimator, λ=0
//		Gating:    bce.PL(1),                    // gate fetch behind 1 low-confidence branch
//	})
//	sim.Run(50_000)                              // warmup
//	run := sim.Run(200_000)                      // measure
//	fmt.Println(run.IPC(), run.Confusion.PVN())
//	_ = gen
//
// Every table and figure of the paper's evaluation can be regenerated
// through the Reproduce* functions (or the bcetables command).
//
// The implementation lives in internal/ packages; this package is the
// stable public surface.
package bce

import (
	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/pipeline"
	"bce/internal/predictor"
	"bce/internal/telemetry"
	"bce/internal/trace"
	"bce/internal/workload"
)

// Re-exported core types. See the internal package docs for details.
type (
	// Estimator assigns confidence to conditional branch predictions.
	Estimator = confidence.Estimator
	// Token is one confidence estimate (made at fetch, trained at
	// retire).
	Token = confidence.Token
	// Class is the confidence band (High, WeakLow, StrongLow).
	Class = confidence.Class
	// CICConfig parameterizes the perceptron confidence estimator.
	CICConfig = confidence.CICConfig
	// JRSConfig parameterizes the JRS estimator.
	JRSConfig = confidence.JRSConfig
	// TNTConfig parameterizes the perceptron_tnt baseline.
	TNTConfig = confidence.TNTConfig

	// Predictor is a dynamic branch direction predictor.
	Predictor = predictor.Predictor

	// Machine is a timing-model configuration (Table 1).
	Machine = config.Machine
	// GatingPolicy configures pipeline gating (threshold + latency).
	GatingPolicy = gating.Policy
	// Run holds one timing simulation's measured counters.
	Run = metrics.Run
	// Confusion is the confidence confusion matrix (PVN/Spec/…).
	Confusion = metrics.Confusion
	// Histogram is a fixed-bin histogram (density figures).
	Histogram = metrics.Histogram

	// Uop is one micro-operation of a uop stream.
	Uop = trace.Uop
	// Profile describes a synthetic benchmark.
	Profile = workload.Profile
	// Generator produces a benchmark's uop stream.
	Generator = workload.Generator

	// Sizes sets experiment run lengths.
	Sizes = core.Sizes

	// TelemetrySink receives per-cycle pipeline and confidence events
	// (see internal/telemetry). Nil disables telemetry at zero cost.
	TelemetrySink = telemetry.Sink
	// TelemetryEvent is one emitted pipeline/confidence event.
	TelemetryEvent = telemetry.Event
	// TelemetrySnapshot is a point-in-time copy of a simulation's
	// counter/histogram registry.
	TelemetrySnapshot = telemetry.Snapshot
)

// Telemetry sink constructors.
var (
	// NewChromeTrace returns a sink writing a Chrome trace_event JSON
	// timeline (chrome://tracing, Perfetto). Call Close to flush.
	NewChromeTrace = telemetry.NewChromeTrace
	// NewAudit returns a sink building the per-branch-PC confidence
	// audit (WriteCSV renders it).
	NewAudit = telemetry.NewAudit
	// MultiSink fans events out to several sinks (nils dropped).
	MultiSink = telemetry.Multi
)

// Confidence bands.
const (
	High      = confidence.High
	WeakLow   = confidence.WeakLow
	StrongLow = confidence.StrongLow
)

// DisableReversal as CICConfig.Reversal turns branch reversal off.
const DisableReversal = confidence.DisableReversal

// Confidence estimator constructors.
var (
	// NewCIC returns the paper's 4 KB perceptron estimator (128
	// entries × 32-bit history × 8-bit weights) trained on
	// correct/incorrect outcomes, with low-confidence threshold λ.
	NewCIC = confidence.NewCIC
	// NewCICWith returns a CIC estimator with explicit geometry.
	NewCICWith = confidence.NewCICWith
	// NewEnhancedJRS returns the enhanced JRS estimator (8K 4-bit
	// resetting counters) with high-confidence threshold λ.
	NewEnhancedJRS = confidence.NewEnhancedJRS
	// NewJRS returns a JRS estimator with explicit configuration.
	NewJRS = confidence.NewJRS
	// NewTNT returns the perceptron_tnt baseline (Jimenez-style,
	// trained on taken/not-taken; |y| <= λ means low confidence).
	NewTNT = confidence.NewTNT
	// NewTNTWith returns a TNT estimator with explicit configuration.
	NewTNTWith = confidence.NewTNTWith
	// NewPattern returns Tyson's pattern-history estimator.
	NewPattern = confidence.NewPattern
	// NewConfidenceOracle returns a perfect estimator (bounding).
	NewConfidenceOracle = confidence.NewOracle
)

// Branch predictor constructors.
var (
	// NewBaselinePredictor returns the Table 1 bimodal/gshare/meta
	// hybrid.
	NewBaselinePredictor = predictor.NewBaselineHybrid
	// NewGsharePerceptronPredictor returns the §5.2 hybrid.
	NewGsharePerceptronPredictor = predictor.NewGsharePerceptronHybrid
	// NewPerceptronPredictor returns a Jimenez/Lin perceptron
	// predictor with the given geometry.
	NewPerceptronPredictor = predictor.NewPerceptron
)

// Machine models.
var (
	// Baseline40x4 is the paper's 4-wide, 40-cycle baseline machine.
	Baseline40x4 = config.Baseline40x4
	// Mid20x4 is the 4-wide, 20-cycle machine.
	Mid20x4 = config.Mid20x4
	// Wide20x8 is the 8-wide, 20-cycle machine of §5.5.
	Wide20x8 = config.Wide20x8
	// MachineByName resolves "40c4w", "20c4w" or "20c8w".
	MachineByName = config.ByName
)

// PL returns a gating policy with the given low-confidence branch
// counter threshold (the paper's PL1/PL2/PL3).
func PL(threshold int) GatingPolicy { return gating.PL(threshold) }

// Benchmarks returns the 12 synthetic SPECint 2000 benchmark names in
// Table 2 order.
func Benchmarks() []string { return workload.Names() }

// BenchmarkProfile returns the named benchmark's workload profile.
func BenchmarkProfile(name string) (Profile, error) { return workload.ByName(name) }

// NewGenerator returns a fresh trace generator over the named
// benchmark's program, which is built once per process. It panics on
// unknown names (use BenchmarkProfile to check first).
func NewGenerator(name string) *Generator {
	g, err := workload.Load(name, 0)
	if err != nil {
		panic(err)
	}
	return g
}

// SimConfig configures a timing simulation.
type SimConfig struct {
	// Bench is the benchmark name (required).
	Bench string
	// Machine is the timing model; zero value means Baseline40x4.
	Machine Machine
	// Predictor is the branch predictor; nil means the baseline
	// hybrid.
	Predictor Predictor
	// Estimator is the confidence estimator; nil disables confidence
	// machinery.
	Estimator Estimator
	// Gating is the pipeline-gating policy; zero disables gating.
	Gating GatingPolicy
	// Reversal reverses strongly-low-confidence branches (§5.5).
	Reversal bool
	// Perfect uses oracle prediction (no mispredictions).
	Perfect bool
	// Sink receives telemetry events; nil (the default) disables
	// telemetry entirely — the simulator then never constructs an
	// event.
	Sink TelemetrySink
}

// Simulation is a cycle-accurate out-of-order timing simulation.
type Simulation struct {
	sim *pipeline.Sim
}

// NewSimulation builds a simulation. It panics on unknown benchmarks
// or invalid machine configurations.
func NewSimulation(cfg SimConfig) *Simulation {
	gen, err := workload.Load(cfg.Bench, 0)
	if err != nil {
		panic(err)
	}
	return &Simulation{sim: pipeline.New(pipeline.Options{
		Machine:   cfg.Machine,
		Predictor: cfg.Predictor,
		Estimator: cfg.Estimator,
		Gating:    cfg.Gating,
		Reversal:  cfg.Reversal,
		Perfect:   cfg.Perfect,
		Sink:      cfg.Sink,
	}, gen)}
}

// Run advances the simulation until n more uops retire and returns
// the statistics for exactly that span. Call once for warmup (discard
// the result), then for measurement.
func (s *Simulation) Run(n uint64) Run { return s.sim.Run(n) }

// Machine returns the simulated machine model.
func (s *Simulation) Machine() Machine { return s.sim.Machine() }

// Cycle returns the current simulated cycle.
func (s *Simulation) Cycle() uint64 { return s.sim.Cycle() }

// Telemetry returns a snapshot of the simulation's internal counter
// and histogram registry (richer than the Run summary: squash-depth
// and resolve-latency histograms, gate-episode lengths, ...).
func (s *Simulation) Telemetry() TelemetrySnapshot { return s.sim.Telemetry() }

// Experiment regeneration: one entry point per paper table/figure.
// All accept a Sizes (use DefaultSizes for paper-scale fidelity or
// QuickSizes for smoke runs) and return printable result structs.
var (
	// DefaultSizes returns the standard experiment run lengths.
	DefaultSizes = core.DefaultSizes
	// QuickSizes returns reduced run lengths for smoke tests.
	QuickSizes = core.QuickSizes
	// ReproduceTable2 regenerates Table 2 (speculation waste).
	ReproduceTable2 = core.Table2
	// ReproduceTable3 regenerates Table 3 (JRS vs CIC metrics).
	ReproduceTable3 = core.Table3
	// ReproduceTable4 regenerates Table 4 (gating U/P sweep).
	ReproduceTable4 = core.Table4
	// ReproduceTable5 regenerates Table 5 (better baseline predictor).
	ReproduceTable5 = core.Table5
	// ReproduceTable6 regenerates Table 6 (size sensitivity).
	ReproduceTable6 = core.Table6
	// ReproduceDensity regenerates Figures 4-7 data ("cic" or "tnt").
	ReproduceDensity = core.Density
	// ReproduceCombined regenerates Figures 8-9 (gating + reversal).
	ReproduceCombined = core.Combined
	// ReproduceLatency regenerates the §5.4.2 latency study.
	ReproduceLatency = core.Latency
)

// AverageConfusion runs a functional confidence experiment over every
// benchmark with a fresh estimator each (built by mkEst) and merges
// the confusion matrices — the aggregation the paper's Table 3
// reports. Zero warmup/measure take the standard sizes.
func AverageConfusion(mkEst func() Estimator, warmup, measure uint64) (Confusion, error) {
	return core.AverageConfusion(nil, func() confidence.Estimator { return mkEst() }, warmup, measure)
}

// Trace replay. Any uop stream — a recording held in memory, or a
// caller's own decoder over its own trace format — can be run through
// the full timing model with NewReplaySimulation: the path for running
// workloads other than the built-in synthetic benchmarks.
type (
	// TraceSource is any uop stream (generators, replays).
	TraceSource = trace.Source
)

// NewReplaySimulation builds a timing simulation over a recorded
// trace: the recording supplies the correct path (looping if shorter
// than the run), and wrong-path instructions are re-served from the
// recorded code at the mispredicted target when possible. Bench is
// ignored; all other SimConfig fields apply.
func NewReplaySimulation(cfg SimConfig, src TraceSource) *Simulation {
	replay := workload.NewReplay(src)
	return &Simulation{sim: pipeline.NewFromSource(pipeline.Options{
		Machine:   cfg.Machine,
		Predictor: cfg.Predictor,
		Estimator: cfg.Estimator,
		Gating:    cfg.Gating,
		Reversal:  cfg.Reversal,
		Perfect:   cfg.Perfect,
		Sink:      cfg.Sink,
	}, replay, replay.WrongPath(1))}
}
