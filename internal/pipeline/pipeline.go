// Package pipeline implements the cycle-accurate out-of-order
// superscalar timing model the paper's experiments run on (§4, Table
// 1): a deep front end feeding a renamed ROB with per-class scheduling
// windows and execution units, a trace cache, load/store buffers, a
// data-cache hierarchy, speculative wrong-path execution with
// squash/recovery, and the pipeline-gating + branch-reversal machinery
// under study.
//
// The clock advances by events: Run steps every cycle in which some
// stage can act and jumps over the idle cycles between them (the
// machine waiting on memory behind a full fetch queue, a redirect
// bubble), with results identical to ticking every cycle.
//
// The model is trace-driven: the workload generator supplies the
// correct path, and a WrongPath synthesizer supplies the uops fetched
// past a mispredicted branch until it resolves (see DESIGN.md,
// substitution 3).
//
// Update disciplines: the branch predictor predicts and trains at
// fetch in program order (standard trace-driven practice; wrong-path
// branches are predicted but never trained). The confidence estimator
// estimates at fetch and trains at retirement, as in the paper; each
// estimate carries its history snapshot so training replays exactly
// what the front end saw.
package pipeline

import (
	"bce/internal/cache"
	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/predictor"
	"bce/internal/telemetry"
	"bce/internal/trace"
	"bce/internal/workload"
)

// Options configures a simulation.
type Options struct {
	// Machine is the timing model; zero value means Baseline40x4.
	Machine config.Machine
	// Predictor is the branch predictor; nil means the Table 1
	// bimodal-gshare hybrid. Ignored when Perfect is set.
	Predictor predictor.Predictor
	// Estimator is the confidence estimator; nil means AlwaysHigh
	// (no confidence machinery).
	Estimator confidence.Estimator
	// Gating is the pipeline-gating policy (zero = disabled).
	Gating gating.Policy
	// Reversal reverses the direction of branches estimated strongly
	// low confident (§5.5). Only meaningful with an estimator that
	// produces StrongLow (PerceptronCIC with a reversal threshold, or
	// the oracle).
	Reversal bool
	// Perfect uses oracle branch prediction (no mispredictions); the
	// mispredict-free executed-uop counts of Table 2 come from this.
	Perfect bool
	// SpeculativeCETrain trains the confidence estimator at fetch
	// instead of retirement — an ablation of the paper's §3 argument
	// that training must wait until the branch is known to be on the
	// correct path. Wrong-path branches still never train (the trace
	// knows the path), so the ablation isolates the *timeliness*
	// effect from wrong-path pollution.
	SpeculativeCETrain bool
	// Hierarchy is the data-cache hierarchy; nil means the Table 1
	// baseline hierarchy.
	Hierarchy *cache.Hierarchy
	// Sink receives telemetry events (stage transitions, squashes,
	// gating, confidence estimates/training) as they happen. Nil means
	// telemetry is off; the simulation then never constructs an event,
	// so timing results and benchmark numbers are unaffected.
	Sink telemetry.Sink
	// WatchdogInterval is the forward-progress watchdog's patience: if
	// no uop retires for this many consecutive cycles, Run aborts by
	// panicking with a structured *WatchdogError instead of spinning
	// forever on a scheduler livelock. Zero means
	// DefaultWatchdogInterval; it cannot be disabled, only widened.
	WatchdogInterval uint64
}

const (
	sFetched uint8 = iota
	sDispatched
	sIssued
	sDone
)

const (
	clInt uint8 = iota
	clMem
	clFP
)

type renameEntry struct {
	idx int32
	seq uint64
}

// schedRef names a pool entry together with its seq: the ready queues
// and complete()'s due set keep the seq inline so ordering them never
// touches the pool.
type schedRef struct {
	idx int32
	seq uint64
}

type inflight struct {
	u         trace.Uop
	seq       uint64
	state     uint8
	class     uint8
	wrongPath bool

	dispatchAt uint64 // earliest dispatch cycle (fetch + frontend depth)
	doneAt     uint64 // completion cycle, set at issue

	// Wakeup state, set at dispatch (rename). pendingSrc counts the
	// source operands whose producer has not completed. For each such
	// source slot i, srcProd[i] is the producer's pool index and
	// depNext[i] links this uop into the producer's dependents list;
	// srcProd[i] is -1 when the slot waits on nothing.
	srcProd    [2]int32
	depNext    [2]int32
	pendingSrc uint8
	// deps heads this uop's own dependents list, youngest consumer
	// first. A link is consumerIdx<<1 | slot; -1 ends the list.
	deps int32
	// wheelPrev and wheelNext doubly link an issued uop into its
	// completion bucket (or the far list); -1 ends either direction.
	wheelPrev, wheelNext int32

	// Conditional-branch state.
	isBranch     bool
	predTaken    bool // raw predictor direction
	finalTaken   bool // after any reversal
	actualTaken  bool
	mispredOrig  bool // predTaken != actual (trains the estimator)
	mispredFinal bool // finalTaken != actual (what performance sees)
	reversed     bool
	gated        bool // armed the gating counter
	diverge      bool // correct-path branch that sends fetch down the wrong path
	tok          confidence.Token
}

// Sim is one simulation instance. Construct with New; Run may be
// called repeatedly (warmup then measurement) — state persists across
// calls, statistics do not.
type Sim struct {
	opt   Options
	gen   trace.Source
	wrong workload.PathSource
	pred  predictor.Predictor
	est   confidence.Estimator
	gate  *gating.Controller
	hier  *cache.Hierarchy
	tc    *cache.Cache
	sink  telemetry.Sink

	pool   []inflight
	free   []int32
	fetchQ ring // fetch order, awaiting dispatch
	rob    ring // program order, dispatched
	rename [trace.NumRegs]renameEntry
	ckpt   [trace.NumRegs]renameEntry // rename snapshot at the diverge branch

	// Event-driven scheduler: per-cycle work is proportional to the
	// uops that move, never to the window or ROB size. readyQ holds,
	// per class, the dispatched uops whose sources are all done, in seq
	// order; issue merges the three oldest-first. Completion wakes
	// dependents through the intrusive lists in inflight. An issued uop
	// waits in wheel[doneAt & wheelMask] when it completes less than
	// wheelSize cycles after the current one, otherwise on the far list
	// until a wheel turn brings it in range. due is complete()'s
	// scratch for the current cycle.
	readyQ [3]readyQueue
	wheel  []int32
	far    int32
	due    []schedRef

	windowUsed [3]int
	windowCap  [3]int
	unitCap    [3]int
	loadsUsed  int
	storesUsed int

	cycle      uint64
	seq        uint64
	stallUntil uint64

	peeked      trace.Uop
	peekedValid bool
	peekedWrong bool

	ctr          *runCounters
	lastRetireAt uint64
	divergeSeq   uint64
}

// New builds a simulation over a synthetic workload generator, wiring
// its CFG-walking wrong-path synthesizer. It panics on invalid machine
// configurations (experiment definitions are code, not user input).
func New(opt Options, gen *workload.Generator) *Sim {
	return NewFromSource(opt, gen, workload.NewWrongPath(gen))
}

// NewFromSource builds a simulation over any correct-path uop source
// and wrong-path synthesizer — e.g. a recorded trace replayed through
// workload.NewReplay. The source must be infinite relative to the
// requested run length.
func NewFromSource(opt Options, gen trace.Source, wrong workload.PathSource) *Sim {
	if gen == nil || wrong == nil {
		panic("pipeline: nil workload source")
	}
	if opt.Machine.Name == "" {
		opt.Machine = config.Baseline40x4()
	}
	if err := opt.Machine.Validate(); err != nil {
		panic(err)
	}
	m := opt.Machine
	s := &Sim{
		opt:   opt,
		gen:   gen,
		wrong: wrong,
		est:   opt.Estimator,
		gate:  gating.NewController(opt.Gating),
		hier:  opt.Hierarchy,
		sink:  opt.Sink,
		ctr:   newRunCounters(),
	}
	if s.est == nil {
		s.est = confidence.AlwaysHigh{}
	}
	if s.sink != nil {
		// Estimate/Train events come from inside the estimator wrapper,
		// so every caller of the estimator (retire-time training,
		// speculative-training ablations) is covered by one hook.
		s.est = confidence.Instrument(s.est, s.sink, func() uint64 { return s.cycle })
	}
	s.gate.SetTelemetry(s.sink, s.ctr.gateEpisode)
	if s.hier == nil {
		s.hier = cache.NewBaselineHierarchy()
	}
	if opt.Perfect {
		// Perfect mode bypasses prediction entirely in fetchBranch;
		// no predictor state is needed.
		s.pred = predictor.NewOracle()
	} else if opt.Predictor != nil {
		s.pred = opt.Predictor
	} else {
		s.pred = predictor.NewBaselineHybrid()
	}
	// Trace cache: capacity in uops at 4 bytes each, organized in
	// 64-byte (16-uop) lines.
	s.tc = cache.New(cache.Config{
		SizeBytes: m.TraceCacheUops * 4,
		Assoc:     m.TraceCacheAssoc,
		LineBytes: 64,
	})
	// Deep machines keep large instruction buffers ahead of dispatch
	// (§5.4.2); size the fetch queue to hold a full resolution shadow.
	fetchQCap := (m.FrontendDepth + m.BranchResolveExtra + 8) * m.FetchWidth
	poolCap := m.ROB + fetchQCap + 8
	s.pool = make([]inflight, poolCap)
	s.free = make([]int32, poolCap)
	for i := range s.free {
		s.free[i] = int32(poolCap - 1 - i)
	}
	s.fetchQ = newRing(fetchQCap)
	s.rob = newRing(m.ROB)
	// Every queue is bounded by what can be in flight, so the scheduler
	// never grows a list mid-run.
	s.readyQ = [3]readyQueue{newReadyQueue(m.IntSched), newReadyQueue(m.MemSched), newReadyQueue(m.FPSched)}
	s.wheel = make([]int32, wheelSize)
	for i := range s.wheel {
		s.wheel[i] = -1
	}
	s.far = -1
	s.due = make([]schedRef, 0, m.ROB)
	s.windowCap = [3]int{m.IntSched, m.MemSched, m.FPSched}
	s.unitCap = [3]int{m.IntUnits, m.MemUnits, m.FPUnits}
	for r := range s.rename {
		s.rename[r] = renameEntry{idx: -1}
	}
	return s
}

// Machine returns the simulated machine configuration.
func (s *Sim) Machine() config.Machine { return s.opt.Machine }

// Cycle returns the current simulated cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Hierarchy exposes the data-cache hierarchy (for statistics).
func (s *Sim) Hierarchy() *cache.Hierarchy { return s.hier }

func classOf(k trace.Kind) uint8 {
	switch {
	case k.IsMem():
		return clMem
	case k.IsFP():
		return clFP
	default:
		return clInt
	}
}

func (s *Sim) latency(u *trace.Uop) uint64 {
	switch u.Kind {
	case trace.Store:
		// Stores probe and fill the hierarchy (they bring lines in and
		// occupy the bus) but the store buffer hides their latency.
		s.hier.Access(u.Addr, s.cycle)
		return 1
	case trace.CondBranch:
		// Resolution happens at the end of the execution pipeline;
		// until then younger wrong-path work keeps flowing.
		return 1 + uint64(s.opt.Machine.BranchResolveExtra)
	case trace.ALU, trace.Nop, trace.Jump, trace.Call, trace.Ret:
		return 1
	case trace.Mul:
		return 3
	case trace.Div:
		return 20
	case trace.FP:
		return 4
	case trace.FPDiv:
		return 24
	case trace.Load:
		return uint64(s.hier.Access(u.Addr, s.cycle))
	default:
		return 1
	}
}

func (s *Sim) alloc() int32 {
	n := len(s.free)
	if n == 0 {
		return -1
	}
	idx := s.free[n-1]
	s.free = s.free[:n-1]
	s.pool[idx] = inflight{srcProd: [2]int32{-1, -1}, deps: -1}
	return idx
}

func (s *Sim) release(idx int32) {
	s.pool[idx].seq = 0
	s.free = append(s.free, idx)
}

// Run advances the simulation until n more uops retire and returns the
// statistics for exactly that span. Call once with a warmup count
// (discard the result), then with the measurement count.
//
// Run steps only the cycles in which some stage can act (see
// nextEvent) and moves the clock straight over the idle ones, counting
// them in the span's cycles and, where the gate holds fetch, in its
// gated cycles, exactly as ticking through them would.
//
// Run is guarded by the forward-progress watchdog: if no uop retires
// for Options.WatchdogInterval cycles, it panics with a structured
// *WatchdogError describing the wedged machine state (the diagnostic
// is also emitted to the telemetry sink and counted in the registry)
// rather than spinning forever.
func (s *Sim) Run(n uint64) metrics.Run {
	s.ctr.reg.Reset()
	s.gate.ResetStats()
	s.lastRetireAt = s.cycle
	start := s.cycle
	retired := s.ctr.retired
	wd := s.opt.WatchdogInterval
	if wd == 0 {
		wd = DefaultWatchdogInterval
	}
	for retired.Value() < n {
		// Jump over idle cycles. The skip precedes the step, so a span
		// ends right after its n-th retirement and the idle cycles that
		// follow belong to the next Run, as when the clock ticked them;
		// it stops at the watchdog's deadline, so an abort fires at the
		// cycle it always did.
		if t := s.nextEvent(s.lastRetireAt + wd); t > s.cycle {
			if from := max(s.cycle, s.stallUntil); t > from {
				s.gate.Skip(t - from)
			}
			s.cycle = t
		}
		s.step()
		if s.cycle-s.lastRetireAt > wd {
			err := s.watchdogError(wd)
			s.ctr.watchdogAborts.Inc()
			if s.sink != nil {
				s.sink.Emit(telemetry.Event{Kind: telemetry.EvWatchdog, Cycle: s.cycle,
					Seq: s.divergeSeq, N: uint64(s.rob.len())})
			}
			panic(err)
		}
	}
	gc, ge := s.gate.Stats()
	return s.ctr.snapshot(s.cycle-start, gc, ge)
}

// step advances one cycle: retire, complete, issue, dispatch, fetch.
func (s *Sim) step() {
	s.retire()
	s.complete()
	s.issue()
	s.dispatch()
	s.fetch()
	s.cycle++
}

// nextEvent returns the first cycle, from the current one up to limit,
// in which some stage can act; it returns the current cycle when that
// one is not idle. In every cycle before it nothing retires, completes,
// issues or dispatches, and fetch waits out a redirect or trace-cache
// bubble, a full fetch queue or a steady gate, so stepping those cycles
// would only advance the clock and count gated cycles. Idle cycles
// emit no telemetry.
//
// The tests are ordered cheapest first, so a busy machine leaves after
// a few loads.
func (s *Sim) nextEvent(limit uint64) uint64 {
	c := s.cycle
	if s.readyQ[clInt].n|s.readyQ[clMem].n|s.readyQ[clFP].n != 0 || s.wheel[c&wheelMask] >= 0 {
		return c
	}
	if s.far >= 0 {
		if c&wheelMask == 0 {
			return c // a wheel turn is due
		}
		limit = min(limit, (c|wheelMask)+1)
	}
	if s.rob.len() > 0 && s.pool[s.rob.at(0)].state == sDone {
		return c
	}
	// Fetch waits until stallUntil, and past it only while a steady
	// gate holds or the fetch queue stays full.
	if steady, holding := s.gate.Steady(); !steady || !holding && !s.fetchQ.full() {
		if c >= s.stallUntil {
			return c
		}
		limit = min(limit, s.stallUntil)
	}
	if s.fetchQ.len() > 0 {
		e := &s.pool[s.fetchQ.at(0)]
		if !s.dispatchBlocked(e) {
			return c
		}
		if e.dispatchAt > c {
			limit = min(limit, e.dispatchAt)
		}
	}
	// Every wheel uop completes within a turn of now, in the bucket of
	// its cycle; one pass over the buckets finds the earliest.
	for t := c + 1; t < limit && t-c < wheelSize; t++ {
		if s.wheel[t&wheelMask] >= 0 {
			return t
		}
	}
	return limit
}
