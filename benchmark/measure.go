package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bce/internal/prof"
	"bce/internal/telemetry"
)

// A run starts set-up probes for setupTime, and at least minSetupProbes;
// setup_s is their median. A probe takes 1 ms (process start alone) to
// 50 ms (the sim-* inputs), short enough for a co-tenant's burst to
// distort a single sample.
const (
	setupTime      = time.Second
	minSetupProbes = 9
)

// setupEnv, set to "<workload>:<seed>" in this program's environment,
// makes the process a set-up probe: it builds that workload's inputs and
// exits.
const setupEnv = "BENCHMARK_SETUP_ONLY"

// result is one run's outcome, in the shape the last output line takes.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	digest    string
}

type unitRec struct {
	key       string
	wall, cpu float64 // seconds
	uops      uint64
	cycles    uint64
}

// phase is what runPhase measured.
type phase struct {
	keys              []string
	units             []unitRec
	attempted, failed int
	digest            string // over the first output of every key
	mallocs           uint64
}

// runPhase runs passes over l's keys in a closed loop, one unit at a
// time, until budget is spent; the first minPasses passes always
// complete, so the digest always covers every key. A unit that fails (an error, a
// recovered panic such as *pipeline.WatchdogError, or an output that
// differs from its key's first one) is counted and its key is dropped.
// With a tracer, every unit gets a span under parent.
func runPhase(l load, budget time.Duration, minPasses int, tracer *telemetry.Tracer,
	parent telemetry.SpanContext, afterFirstPass func()) phase {
	keys := l.keys()
	ph := phase{keys: keys}
	first := make([][]byte, len(keys))
	last := make([]time.Duration, len(keys))
	dead := make([]bool, len(keys))
	live := len(keys)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
loop:
	for pass := 0; live > 0; pass++ {
		for i, key := range keys {
			if pass >= minPasses && time.Since(start)+last[i] > budget {
				break loop
			}
			if dead[i] {
				continue
			}
			ph.attempted++
			span := tracer.StartSpan(key, parent)
			t0, c0 := time.Now(), cpuSeconds()
			out, err := runUnit(l, key)
			wall := time.Since(t0)
			cpu := cpuSeconds() - c0
			span.End()
			if err == nil && pass > 0 && l.repeatable() && !bytes.Equal(out.output, first[i]) {
				err = fmt.Errorf("output differs from the first pass")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", key, err)
				ph.failed++
				dead[i] = true
				live--
				continue
			}
			if pass == 0 {
				first[i] = out.output
			}
			last[i] = wall
			ph.units = append(ph.units, unitRec{key: key, wall: wall.Seconds(), cpu: cpu, uops: out.uops, cycles: out.cycles})
		}
		if pass == 0 && afterFirstPass != nil {
			afterFirstPass()
		}
	}
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs0
	h := sha256.New()
	for i, key := range keys {
		fmt.Fprintf(h, "%s %d\n", key, len(first[i]))
		h.Write(first[i])
	}
	ph.digest = hex.EncodeToString(h.Sum(nil))
	return ph
}

// runUnit runs one unit, turning a panic into an error.
func runUnit(l load, key string) (out unitOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return l.run(key)
}

// perKey returns the median wall and CPU seconds of each key's units
// and the uops one unit of the key simulates.
func (ph phase) perKey() (wall, cpu map[string]float64, uops map[string]uint64) {
	walls, cpus := map[string][]float64{}, map[string][]float64{}
	uops = map[string]uint64{}
	for _, u := range ph.units {
		walls[u.key] = append(walls[u.key], u.wall)
		cpus[u.key] = append(cpus[u.key], u.cpu)
		uops[u.key] = u.uops
	}
	wall, cpu = map[string]float64{}, map[string]float64{}
	for k := range walls {
		wall[k], cpu[k] = median(walls[k]), median(cpus[k])
	}
	return wall, cpu, uops
}

// pass folds the per-key medians into one pass: its wall and CPU seconds
// and the uops it simulates.
func (ph phase) pass() (wall, cpu, uops float64) {
	w, c, u := ph.perKey()
	for _, k := range ph.keys {
		wall += w[k]
		cpu += c[k]
		uops += float64(u[k])
	}
	return wall, cpu, uops
}

func (ph phase) uopsPerSecond() float64 {
	wall, _, uops := ph.pass()
	if wall == 0 {
		return 0
	}
	return uops / wall
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func newResult(m *metricSet, phases ...phase) result {
	r := result{Metrics: m.out()}
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
	}
	if len(phases) > 0 {
		r.digest = phases[0].digest
	}
	r.Correct = r.Failed == 0
	return r
}

// measureEndToEnd is the untraced run: time the set-up in probes, build
// the inputs once more in this process, then run passes for the whole
// budget.
func measureEndToEnd(w workloadDef, seed int64, budget time.Duration) (result, error) {
	setup, err := measureSetup(w, seed)
	if err != nil {
		return result{}, err
	}
	l := w.newLoad(seed, nil)
	if err := l.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	// Three units per key let each key's median shed one burst of noise.
	ph := runPhase(l, budget, 3, nil, telemetry.SpanContext{}, nil)
	m := newMetricSet(endToEnd)
	wall, cpu, _ := ph.pass()
	m.set("uops_per_s", ph.uopsPerSecond())
	m.set("wall_s", wall)
	m.set("cpu_s", cpu)
	m.set("setup_s", setup)
	m.set("max_rss_mb", maxRSSMiB())
	return newResult(m, ph), nil
}

// measureSetup returns the median wall time of set-up probes: fresh
// processes of this program, one at a time, each timed from its start
// until it has built the workload's inputs and exited. A probe pays what
// a run pays before its first unit: process start, package
// initialisation and the workload's set-up.
func measureSetup(w workloadDef, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%s:%d", setupEnv, w.name, seed))
	var times []float64
	for start := time.Now(); len(times) < minSetupProbes || time.Since(start) < setupTime; {
		cmd := exec.Command(exe)
		cmd.Env = env
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// setupProbe is the whole run of a set-up probe, given setupEnv's value.
func setupProbe(spec string) error {
	name, seed, _ := strings.Cut(spec, ":")
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	s, err := strconv.ParseInt(seed, 10, 64)
	if err != nil {
		return fmt.Errorf("%s=%q: %w", setupEnv, spec, err)
	}
	return w.newLoad(s, nil).setup()
}

// measureLayers is the traced run. A third of the budget runs untraced,
// for the host-time metrics the probes would distort and as the
// reference for the tracing overhead; the rest runs with the layer
// probes, spans and a CPU profile. Both phases must produce the same
// digest.
func measureLayers(w workloadDef, seed int64, budget time.Duration, traceOut string) (result, error) {
	m := newMetricSet(perLayer)

	plain := w.newLoad(seed, nil)
	if err := plain.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	ph0 := runPhase(plain, budget/3, 1, nil, telemetry.SpanContext{}, nil)
	hostLayers(m, w, ph0)
	plain = nil // release the untraced inputs before building the traced ones
	runtime.GC()

	tracer := telemetry.NewTracer("benchmark")
	root := tracer.StartTrace("workload " + w.name)
	p := &probes{}
	traced := w.newLoad(seed, p)
	sp := tracer.StartSpan("setup", root.Context())
	err := traced.setup()
	sp.End()
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return result{}, err
	}
	var firstPass probes
	ph1 := runPhase(traced, budget-budget/3, 1, tracer, root.Context(), func() { firstPass = *p })
	pprof.StopCPUProfile()
	root.End()

	traced.layers(m)
	probeLayers(m, &firstPass, p, ph1)
	profileLayers(m, cpuProf.Bytes())
	if u := ph0.uopsPerSecond(); u > 0 {
		m.set("trace.overhead_frac", 1-ph1.uopsPerSecond()/u)
	}

	r := newResult(m, ph0, ph1)
	if ph0.digest != ph1.digest {
		fmt.Fprintf(os.Stderr, "benchmark: traced output digest %s differs from untraced %s\n", ph1.digest, ph0.digest)
		r.Failed++
		r.Correct = false
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, tracer.Drain()); err != nil {
			return result{}, err
		}
	}
	return r, nil
}

// hostLayers records the per-layer host times taken untraced.
func hostLayers(m *metricSet, w workloadDef, ph phase) {
	wall, cpu, _ := ph.pass()
	if wall > 0 {
		m.set("runner.cpu_util", cpu/(float64(w.workers)*wall))
	}
	var uops, simWall, cycles float64
	for _, u := range ph.units {
		uops += float64(u.uops)
		if u.cycles > 0 {
			simWall += u.wall
			cycles += float64(u.cycles)
		}
	}
	if uops > 0 {
		m.set("pipeline.allocs_per_kuop", 1000*float64(ph.mallocs)/uops)
	}
	if cycles > 0 {
		m.set("pipeline.ns_per_cycle", 1e9*simWall/cycles)
	}
	perWall, _, perUops := ph.perKey()
	for key, s := range perWall {
		switch {
		case w.name == "sweep-quick":
			m.set("core."+key+".s", s)
		case s > 0:
			m.set("bench."+key+".uops_per_s", float64(perUops[key])/s)
		}
	}
}

// probeLayers records the probes' counts over the first traced pass and
// their per-call times over the whole traced phase, and the pipeline's
// self time: the traced units' time less the time inside the probes.
func probeLayers(m *metricSet, first, all *probes, ph phase) {
	clock := clockCost()
	m.set("workload.next.calls", float64(first.next.calls))
	m.set("workload.wrongpath.calls", float64(first.wrong.calls))
	m.set("predictor.calls", float64(first.predict.calls+first.update.calls))
	m.set("confidence.calls", float64(first.estimate.items+first.train.items+
		first.estimateBatch.items+first.trainBatch.items))
	m.set("confidence.batch_calls", float64(first.estimateBatch.calls+first.trainBatch.calls))

	perCall := func(ns float64, calls uint64) float64 {
		if calls == 0 {
			return 0
		}
		return ns / float64(calls)
	}
	wl := all.next.totalNs(clock) + all.wrong.totalNs(clock)
	pr := all.predict.totalNs(clock) + all.update.totalNs(clock)
	cf := all.estimate.totalNs(clock) + all.train.totalNs(clock) +
		all.estimateBatch.totalNs(clock) + all.trainBatch.totalNs(clock)
	m.set("workload.next.ns_per_call", perCall(all.next.totalNs(clock), all.next.calls))
	m.set("workload.wrongpath.ns_per_call", perCall(all.wrong.totalNs(clock), all.wrong.calls))
	m.set("predictor.ns_per_call", perCall(pr, all.predict.calls+all.update.calls))
	m.set("confidence.ns_per_branch", perCall(cf, all.estimate.items+all.estimateBatch.items))

	var simWall float64
	for _, u := range ph.units {
		if u.cycles > 0 {
			simWall += u.wall
		}
	}
	if simWall > 0 {
		m.set("pipeline.self.share", 1-(wl+pr+cf)/(1e9*simWall))
	}
}

// Profile symbols the shares are taken from, matched by exact name. The
// probe methods are the benchmark's own; the others are the simulator's.
const (
	symRun       = "bce/internal/pipeline.(*Sim).Run"
	symStage     = "bce/internal/pipeline.(*Sim)."
	symHierarchy = "bce/internal/cache.(*Hierarchy).Access"
)

var shareSymbols = func() map[string][]string {
	s := map[string][]string{
		"workload.new.share": {"bce/internal/workload.New"},
		"workload.share":     {"main.(*sourceProbe).Next", "main.(*pathProbe).Next"},
		"predictor.share":    {"main.(*predictorProbe).Predict", "main.(*predictorProbe).Update"},
		"confidence.share": {"main.(*estimatorProbe).Estimate", "main.(*estimatorProbe).Train",
			"main.batchEstimate.EstimateBatch", "main.batchTrain.TrainBatch"},
		"cache.share": {symHierarchy},
	}
	for _, st := range pipelineStages {
		s["pipeline."+st+".share"] = []string{symStage + st}
	}
	return s
}()

// profileLayers records each layer's CPU-profile share: the cumulative
// CPU of its symbols over all CPU sampled in the traced phase. A
// simulator symbol that never appears although Run took a second of CPU
// has probably been renamed; its share reads 0 with a warning.
func profileLayers(m *metricSet, data []byte) {
	p, err := prof.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: cpu profile: %v\n", err)
		return
	}
	agg := prof.Aggregate(p)
	total := p.Total()
	if total == 0 {
		return
	}
	for name, syms := range shareSymbols {
		var cum int64
		for _, s := range syms {
			cum += agg[s].Cum
		}
		m.set(name, float64(cum)/float64(total))
	}
	if agg[symRun].Cum < int64(time.Second) {
		return
	}
	for _, st := range pipelineStages {
		if s := symStage + st; agg[s].Cum == 0 {
			fmt.Fprintf(os.Stderr, "benchmark: warning: no profile samples in %s\n", s)
		}
	}
	if agg[symHierarchy].Cum == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: no profile samples in %s\n", symHierarchy)
	}
}

func writeSpans(path string, spans []telemetry.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpanTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
