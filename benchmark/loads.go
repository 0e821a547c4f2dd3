package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/core"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/pipeline"
	"bce/internal/predictor"
	"bce/internal/workload"
)

// A load is one workload's work, cut into keyed units. One pass runs one
// unit of every key, in order; a run repeats passes until its time is up.
type load interface {
	// setup builds the workload's inputs, all the work a run does before
	// its first unit. setup_s times it in fresh processes (measureSetup).
	setup() error
	keys() []string
	// run executes one unit. Its output is what the pass digest covers.
	run(key string) (unitOut, error)
	// repeatable reports whether every unit of a key must reproduce the
	// first one's output exactly (true unless units carry state forward).
	repeatable() bool
	// layers records the exact per-layer counts of the first pass.
	layers(m *metricSet)
}

type unitOut struct {
	uops   uint64 // simulated uops
	cycles uint64 // simulated cycles, when the unit is one timing simulation
	output []byte
}

// sizeDiv scales every workload down; tests raise it to run quickly.
var sizeDiv uint64 = 1

// buildPrograms constructs the benchmark suite's workload programs over
// the given runtime stream.
func buildPrograms(segment int64) (map[string]*workload.Generator, error) {
	gens := make(map[string]*workload.Generator)
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		p.Segment = int(segment)
		gens[name] = workload.New(p)
	}
	return gens, nil
}

// checkRun verifies the invariants every timing simulation must hold,
// given one Run span r of a simulation and the sum of all its spans so
// far, total. Run stops at the end of the cycle in which the requested
// count retires, so up to retireWidth-1 more uops may retire. A span
// can dispatch uops fetched in an earlier span, so the ordering of
// fetch, dispatch and retirement holds only for the totals.
func checkRun(r, total metrics.Run, want uint64, retireWidth int) error {
	switch {
	case r.Retired < want || r.Retired >= want+uint64(retireWidth):
		return fmt.Errorf("retired %d uops, want %d (retire width %d)", r.Retired, want, retireWidth)
	case total.Executed < total.Retired:
		return fmt.Errorf("executed %d < retired %d", total.Executed, total.Retired)
	case total.Fetched < total.Executed:
		return fmt.Errorf("fetched %d < executed %d", total.Fetched, total.Executed)
	case r.WrongPathExecuted > r.Executed:
		return fmt.Errorf("wrong-path executed %d > executed %d", r.WrongPathExecuted, r.Executed)
	case r.Confusion.Branches() != r.RetiredBranches:
		return fmt.Errorf("confusion matrix holds %d branches, %d retired", r.Confusion.Branches(), r.RetiredBranches)
	}
	return nil
}

// pipelineLayers records the exact pipeline counts of a merged Run.
func pipelineLayers(m *metricSet, r metrics.Run) {
	m.set("pipeline.cycles", float64(r.Cycles))
	m.set("pipeline.ipc", r.IPC())
	m.set("pipeline.wrongpath_frac", ratio(r.WrongPathExecuted, r.Executed))
	m.set("pipeline.gated_frac", ratio(r.GatedCycles, r.Cycles))
}

// confusionLayers records the predictor's misprediction rate and the
// estimator's accuracy over a measured span of uops.
func confusionLayers(m *metricSet, c metrics.Confusion, uops uint64) {
	m.set("predictor.misp_per_kuop", 1000*ratio(c.Mispredicted(), uops))
	m.set("confidence.pvn", c.PVN())
	m.set("confidence.spec", c.Spec())
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simConfig is one machine/estimator/gating configuration of the sim-*
// workloads.
type simConfig struct {
	machine   config.Machine
	estimator func() confidence.Estimator // nil: no estimator
	gating    gating.Policy
	reversal  bool
}

// simChunk is the uops each benchmark retires per unit.
const simChunk = 150_000

// simLoad runs the twelve benchmarks on one simulation each. The
// simulations persist: each unit runs the next chunk, so the first pass
// is also the warmup, and only the first pass's Runs are digested.
type simLoad struct {
	cfg    simConfig
	seed   int64
	probes *probes // nil: untraced
	sims   map[string]*pipeline.Sim
	totals map[string]metrics.Run // every span each simulation has run

	first       metrics.Run
	l1Hit, l1Mi uint64
	l2Hit, l2Mi uint64
	prefetched  uint64
}

func (l *simLoad) keys() []string   { return workload.Names() }
func (l *simLoad) repeatable() bool { return false }

func (l *simLoad) setup() error {
	gens, err := buildPrograms(l.seed)
	if err != nil {
		return err
	}
	l.sims = make(map[string]*pipeline.Sim, len(gens))
	l.totals = make(map[string]metrics.Run, len(gens))
	for name, gen := range gens {
		opt := pipeline.Options{Machine: l.cfg.machine, Gating: l.cfg.gating, Reversal: l.cfg.reversal}
		if l.cfg.estimator != nil {
			opt.Estimator = l.cfg.estimator()
		}
		if l.probes == nil {
			l.sims[name] = pipeline.New(opt, gen)
			continue
		}
		opt.Predictor = &predictorProbe{pred: predictor.NewBaselineHybrid(), p: l.probes}
		if opt.Estimator != nil {
			opt.Estimator = wrapEstimator(opt.Estimator, l.probes)
		}
		l.sims[name] = pipeline.NewFromSource(opt,
			&sourceProbe{src: gen, m: &l.probes.next},
			&pathProbe{PathSource: workload.NewWrongPath(gen), m: &l.probes.wrong})
	}
	return nil
}

func (l *simLoad) run(key string) (unitOut, error) {
	sim := l.sims[key]
	chunk := simChunk / sizeDiv
	r := sim.Run(chunk)
	total, seen := l.totals[key]
	total.Merge(r)
	l.totals[key] = total
	if err := checkRun(r, total, chunk, l.cfg.machine.RetireWidth); err != nil {
		return unitOut{}, err
	}
	out, err := r.Canonical()
	if err != nil {
		return unitOut{}, err
	}
	if !seen {
		l.first.Merge(r)
		h := sim.Hierarchy()
		hit, miss := h.L1().Stats()
		l.l1Hit, l.l1Mi = l.l1Hit+hit, l.l1Mi+miss
		hit, miss = h.L2().Stats()
		l.l2Hit, l.l2Mi = l.l2Hit+hit, l.l2Mi+miss
		if pf := h.Prefetcher(); pf != nil {
			issued, _ := pf.Stats()
			l.prefetched += issued
		}
	}
	return unitOut{uops: r.Retired, cycles: r.Cycles, output: out}, nil
}

func (l *simLoad) layers(m *metricSet) {
	pipelineLayers(m, l.first)
	confusionLayers(m, l.first.Confusion, l.first.Retired)
	m.set("cache.l1.accesses", float64(l.l1Hit+l.l1Mi))
	m.set("cache.l1.miss_ratio", ratio(l.l1Mi, l.l1Hit+l.l1Mi))
	m.set("cache.l2.miss_ratio", ratio(l.l2Mi, l.l2Hit+l.l2Mi))
	m.set("cache.prefetch.issued", float64(l.prefetched))
}

// Paper-scale functional runs (§4): 10M warmup and 20M measured uops.
const (
	funcWarmup  = 10_000_000
	funcMeasure = 20_000_000
)

// functionalLoad runs core.RunFunctional with CIC λ=0 over the baseline
// hybrid, one benchmark per unit. A unit runs one segment, not the
// paper's two: the second is the same work over another stream, and
// halving the unit gives each benchmark four units in a 24 s run, enough
// for its median to shed a co-tenant's burst. core looks profiles up by
// name, so the seed does not reach these inputs.
type functionalLoad struct {
	probes *probes

	firstSeen map[string]bool
	first     metrics.Confusion
	firstUops uint64
}

func (l *functionalLoad) keys() []string   { return workload.Names() }
func (l *functionalLoad) repeatable() bool { return true }

// setup has nothing to build: every unit constructs its program,
// predictor and estimator inside core.RunFunctional.
func (l *functionalLoad) setup() error {
	l.firstSeen = make(map[string]bool)
	return nil
}

func (l *functionalLoad) run(key string) (unitOut, error) {
	warm, meas := funcWarmup/sizeDiv, funcMeasure/sizeDiv
	cfg := core.FunctionalConfig{
		Bench:         key,
		MakePredictor: func() predictor.Predictor { return predictor.NewBaselineHybrid() },
		MakeEstimator: func() confidence.Estimator { return confidence.NewCIC(0) },
		WarmupUops:    warm,
		MeasureUops:   meas,
	}
	if p := l.probes; p != nil {
		cfg.MakePredictor = func() predictor.Predictor {
			return &predictorProbe{pred: predictor.NewBaselineHybrid(), p: p}
		}
		cfg.MakeEstimator = func() confidence.Estimator { return wrapEstimator(confidence.NewCIC(0), p) }
	}
	r, err := core.RunFunctional(cfg)
	if err != nil {
		return unitOut{}, err
	}
	switch {
	case r.Uops != meas:
		return unitOut{}, fmt.Errorf("measured %d uops, want %d", r.Uops, meas)
	case r.Confusion.Branches() != r.Branches:
		return unitOut{}, fmt.Errorf("confusion matrix holds %d branches, %d measured", r.Confusion.Branches(), r.Branches)
	}
	out, err := json.Marshal(struct {
		Confusion      metrics.Confusion
		Uops, Branches uint64
	}{r.Confusion, r.Uops, r.Branches})
	if err != nil {
		return unitOut{}, err
	}
	if !l.firstSeen[key] {
		l.firstSeen[key] = true
		l.first.Merge(r.Confusion)
		l.firstUops += r.Uops
	}
	return unitOut{uops: warm + meas, output: out}, nil
}

func (l *functionalLoad) layers(m *metricSet) { confusionLayers(m, l.first, l.firstUops) }

// sweepWorkers is the sweep's runner parallelism: the 2 CPUs of the
// machine the baseline was measured on, fixed so that runs on other
// machines stay comparable.
const sweepWorkers = 2

// sweepLoad regenerates the evaluation at quick sizes through the core
// entry points, one experiment per unit, in bcetables order. The first
// experiment of each pass empties the result cache, so every pass
// simulates uncached, and the cache hits within a pass are the ones a
// real regeneration gets.
type sweepLoad struct {
	sz core.Sizes

	mu   sync.Mutex // guards unit; the observer runs on runner workers
	unit sweepCounts

	firstSeen map[string]bool
	first     sweepCounts
	hits      uint64
	misses    uint64
}

type sweepCounts struct {
	timing, functional uint64
	uops               uint64
	run                metrics.Run
}

func (l *sweepLoad) keys() []string   { return sweepExperimentNames }
func (l *sweepLoad) repeatable() bool { return true }

func (l *sweepLoad) setup() error {
	q := core.QuickSizes()
	l.sz = core.Sizes{
		Warmup: q.Warmup / sizeDiv, Measure: q.Measure / sizeDiv,
		FuncWarmup: q.FuncWarmup / sizeDiv, FuncMeasure: q.FuncMeasure / sizeDiv,
	}
	l.firstSeen = make(map[string]bool)
	core.SetParallelism(sweepWorkers)
	core.SetJobObserver(l.observe)
	return nil
}

// observe counts the simulations a unit runs. Cached timing results are
// not work done; the cache's own counters report them.
func (l *sweepLoad) observe(rec core.JobRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case rec.Kind == "functional":
		l.unit.functional++
	case !rec.Cached && rec.Run != nil:
		l.unit.timing++
		l.unit.uops += rec.Run.Retired + l.sz.Warmup*rec.Run.Segments
		l.unit.run.Merge(*rec.Run)
	}
}

func (l *sweepLoad) run(key string) (unitOut, error) {
	if key == sweepExperimentNames[0] {
		core.ResetResultCache()
	}
	l.mu.Lock()
	l.unit = sweepCounts{}
	l.mu.Unlock()
	hits0, misses0 := core.ResultCacheStats()
	res, err := experiment(key, l.sz)
	if err != nil {
		return unitOut{}, err
	}
	hits, misses := core.ResultCacheStats()
	l.mu.Lock()
	c := l.unit
	l.mu.Unlock()
	if !l.firstSeen[key] {
		l.firstSeen[key] = true
		l.first.timing += c.timing
		l.first.functional += c.functional
		l.first.run.Merge(c.run)
		l.hits += hits - hits0
		l.misses += misses - misses0
	}
	return unitOut{uops: c.uops, output: []byte(res.String())}, nil
}

func (l *sweepLoad) layers(m *metricSet) {
	pipelineLayers(m, l.first.run)
	m.set("runner.jobs.timing", float64(l.first.timing))
	m.set("runner.jobs.functional", float64(l.first.functional))
	m.set("runner.cache.hit_ratio", ratio(l.hits, l.hits+l.misses))
}

// experiment regenerates one table or figure of the evaluation, as
// bcetables -exp <name> -quick does (figures 4 and 6 on gcc).
func experiment(name string, sz core.Sizes) (fmt.Stringer, error) {
	switch name {
	case "table2":
		return core.Table2(sz)
	case "table3":
		return core.Table3(sz)
	case "table4":
		return core.Table4(sz)
	case "table5":
		return core.Table5(sz)
	case "table6":
		return core.Table6(sz)
	case "fig4":
		return core.Density("gcc", "cic", sz)
	case "fig6":
		return core.Density("gcc", "tnt", sz)
	case "fig8":
		return core.Combined(config.Baseline40x4(), sz)
	case "fig9":
		return core.Combined(config.Wide20x8(), sz)
	case "latency":
		return core.Latency(sz)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// workloadDef is one benchmark workload. workers is how many goroutines
// simulate at once; runner.cpu_util is measured against it.
type workloadDef struct {
	name    string
	workers int
	newLoad func(seed int64, p *probes) load
}

func simWorkload(name string, cfg simConfig) workloadDef {
	return workloadDef{name: name, workers: 1, newLoad: func(seed int64, p *probes) load {
		return &simLoad{cfg: cfg, seed: seed, probes: p}
	}}
}

// workloads are the benchmark's workloads; BENCHMARK.json records why
// each exists.
var workloads = []workloadDef{
	simWorkload("sim-baseline", simConfig{machine: config.Baseline40x4()}),
	simWorkload("sim-cic-gate", simConfig{
		machine:   config.Baseline40x4(),
		estimator: func() confidence.Estimator { return confidence.NewCIC(0) },
		gating:    gating.PL(1),
	}),
	simWorkload("sim-wide-reversal", simConfig{
		machine: config.Wide20x8(),
		estimator: func() confidence.Estimator {
			return confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
		},
		gating:   gating.PL(2),
		reversal: true,
	}),
	{name: "functional-paper", workers: 1, newLoad: func(_ int64, p *probes) load {
		return &functionalLoad{probes: p}
	}},
	{name: "sweep-quick", workers: sweepWorkers, newLoad: func(_ int64, _ *probes) load {
		return &sweepLoad{}
	}},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
