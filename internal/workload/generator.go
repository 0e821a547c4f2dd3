package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bce/internal/trace"
)

// Profile describes one synthetic benchmark. Construct a Generator
// from it with New.
type Profile struct {
	// Name is the benchmark name (gzip, vpr, …).
	Name string
	// Seed drives both CFG construction and runtime randomness; the
	// same profile always produces the same trace.
	Seed int64
	// Blocks is the number of static basic blocks (and roughly the
	// number of static branches).
	Blocks int
	// MeanBlockLen is the average number of non-branch uops per block;
	// it sets the branch density (≈ 1 branch per MeanBlockLen+1 uops).
	MeanBlockLen int
	// LoadFrac, StoreFrac and FPFrac set the body uop mix; the rest
	// are integer ALU ops with a sprinkle of Mul/Div.
	LoadFrac, StoreFrac, FPFrac float64
	// LoopFrac is the fraction of conditional branches wired as
	// backward (loop) edges; their behavior is structurally a Loop
	// with period drawn from [LoopMin, LoopMax]. Loop dwell amplifies
	// these branches' dynamic share far beyond LoopFrac.
	LoopFrac         float64
	LoopMin, LoopMax int
	// Mix is the behavior population of the remaining (forward)
	// conditional branches.
	Mix []MixEntry
	// Mem is the data-address model.
	Mem MemProfile
	// DepWindow is how far back (in uops) sources prefer to reach for
	// their producers; smaller means longer dependence chains and
	// lower ILP. Default 8.
	DepWindow int
	// PhaseLen is the mean program-phase length in conditional
	// branches; the global phase bit toggles with probability
	// 1/PhaseLen at each branch. Default 200.
	PhaseLen int
	// Segment selects an independent runtime-randomness stream over
	// the *same* static program (CFG, behaviors and calibration are
	// untouched). The paper evaluates two trace segments per benchmark
	// (§4); experiments average across segments the same way.
	Segment int
}

type block struct {
	pc      uint64
	body    []trace.Uop // static body uops (addresses filled per-instance)
	term    trace.Uop   // static terminal; Taken/Target resolved dynamically
	behave  Behavior    // nil for unconditional terminals
	bi      int         // behavior state index
	takenTo int
	fallTo  int
	// orient is the structural taken-bias of a forward conditional
	// branch: +1 strongly taken, -1 strongly not-taken, 0 balanced.
	// The hotness probe walks with it, and behavior assignment
	// respects it, so probe hotness predicts real hotness.
	orient int8
}

// Generator emits the benchmark's correct-path uop stream. It
// implements trace.Source and never ends.
type Generator struct {
	prof   Profile
	blocks []block
	states []BranchState
	rng    *rand.Rand
	mem    *memGen
	ghist  uint64
	phase  bool
	cur    int
	pos    int
	stack  callStack
	pcIdx  map[uint64]int // block start PC -> index (wrong-path entry)

	prevBlock int

	branches uint64
	uops     uint64
}

const codeBase = 0x0040_0000

// runtimeSeed derives the dynamic-randomness seed from the profile's
// seed and segment; construction randomness never depends on it.
func runtimeSeed(p Profile) int64 {
	return (p.Seed ^ 0x5E3779B97F4A7C15) + int64(p.Segment)*0x6A09E667
}

// condTail is the number of trailing blocks whose terminals are forced
// to be conditional branches; together with forward-only unconditional
// jumps this guarantees the dynamic walk always reaches conditional
// branches (no unconditional-only cycles).
const condTail = 18

// New constructs the benchmark generator for a profile. It panics on
// structurally invalid profiles (no blocks, no mix): profiles are
// compiled into the binary, so these are programming errors.
func New(p Profile) *Generator {
	if p.Blocks < 2 {
		panic(fmt.Sprintf("workload %q: need at least 2 blocks", p.Name))
	}
	if p.MeanBlockLen < 1 {
		panic(fmt.Sprintf("workload %q: MeanBlockLen < 1", p.Name))
	}
	if len(p.Mix) == 0 {
		panic(fmt.Sprintf("workload %q: empty behavior mix", p.Name))
	}
	if p.DepWindow == 0 {
		p.DepWindow = 16
	}
	if p.PhaseLen == 0 {
		p.PhaseLen = 200
	}
	if p.LoopFrac > 0 && (p.LoopMin < 2 || p.LoopMax < p.LoopMin) {
		panic(fmt.Sprintf("workload %q: bad loop period range [%d,%d]", p.Name, p.LoopMin, p.LoopMax))
	}
	// Structure (block shapes, wiring, registers) and behavior
	// assignment draw from independent streams, so tuning the behavior
	// mix never rewires the CFG: hotness stays put while the branch
	// population changes, which keeps calibration stable.
	crng := rand.New(rand.NewSource(p.Seed))
	brng := rand.New(rand.NewSource(p.Seed*0x6C62272E + 0x1B873593))
	g := &Generator{
		prof:   p,
		blocks: make([]block, p.Blocks),
		states: make([]BranchState, p.Blocks),
		rng:    rand.New(rand.NewSource(runtimeSeed(p))),
		mem:    newMemGen(p.Mem, 0),
		pcIdx:  make(map[uint64]int, p.Blocks),
	}
	// Normalize mix weights into a CDF.
	var total float64
	for _, m := range p.Mix {
		if m.Weight < 0 || m.Make == nil {
			panic(fmt.Sprintf("workload %q: bad mix entry", p.Name))
		}
		total += m.Weight
	}
	if total == 0 {
		panic(fmt.Sprintf("workload %q: zero-weight mix", p.Name))
	}
	// Fraction of forward branches that are strongly directional
	// (the Extreme mix entries); wired structurally so the hotness
	// probe can walk with the right per-branch direction.
	var extremeWeight float64
	for _, m := range p.Mix {
		if m.Extreme {
			extremeWeight += m.Weight
		}
	}
	extremeFrac := extremeWeight / total

	pc := uint64(codeBase)
	// recent destination registers for dependence wiring
	recent := make([]uint8, 0, p.DepWindow)
	for i := range g.blocks {
		b := &g.blocks[i]
		b.pc = pc
		g.pcIdx[pc] = i
		n := 1 + crng.Intn(2*p.MeanBlockLen-1) // mean ≈ MeanBlockLen
		b.body = make([]trace.Uop, n)
		for j := range b.body {
			b.body[j] = g.makeBodyUop(crng, pc, &recent)
			pc += 4
		}
		b.term = g.makeTerminal(crng, pc, i)
		// The tail of the block array is forced conditional so that,
		// combined with unconditional terminals only jumping forward,
		// no unconditional-only cycle can exist (every wrap-around
		// path crosses the conditional tail).
		if i >= p.Blocks-condTail && b.term.Kind != trace.CondBranch {
			b.term.Kind = trace.CondBranch
			b.term.Taken = false
		}
		pc += 4
		b.bi = i
		// Fallthrough goes to the next block; taken targets depend on
		// the terminal kind (wired after behavior assignment below).
		b.fallTo = (i + 1) % p.Blocks
		switch b.term.Kind {
		case trace.CondBranch:
			// Loop-shaped backward edges get their Loop behavior right
			// here, structurally: loop dwell (and hence the loop share
			// of dynamic execution) must not depend on the tunable
			// behavior mix, or calibration chases its own tail.
			// Forward branches are dealt behaviors from the mix after
			// construction (see assignBehaviors).
			if crng.Float64() < p.LoopFrac && i > 0 {
				back := 1 + crng.Intn(4)
				if back > i {
					back = i
				}
				b.takenTo = i - back
				b.behave = Loop{Period: p.LoopMin + crng.Intn(p.LoopMax-p.LoopMin+1)}
			} else {
				b.takenTo = g.zipfBlock(crng)
				// Both draws are always consumed so that tuning the
				// mix (which moves extremeFrac) cannot shift the
				// structural random stream and rewire the CFG.
				side := crng.Intn(2)
				if crng.Float64() < extremeFrac {
					b.orient = 1
					if side == 0 {
						b.orient = -1
					}
				}
			}
		default:
			// Unconditional control flow only jumps a short distance
			// forward (see condTail above for why).
			b.takenTo = (i + 1 + crng.Intn(16)) % p.Blocks
		}
	}
	// Wire terminal targets now that all block PCs are known.
	for i := range g.blocks {
		b := &g.blocks[i]
		b.term.Target = g.blocks[b.takenTo].pc
	}
	g.assignBehaviors(brng, g.probeHotness())
	// The bare-CFG probe gets hot/cold ordering right but misjudges
	// individual hot blocks; since direction (orientation) and loop
	// dwell are structural, a walk with the assigned behaviors stays
	// representative under reassignment, so one refinement pass with
	// measured hotness converges. The behavior RNG is re-seeded so
	// both passes draw identical per-branch parameters for blocks
	// whose class did not move.
	brng2 := rand.New(rand.NewSource(p.Seed*0x6C62272E + 0x1B873593))
	g.assignBehaviors(brng2, g.measuredHotness())
	g.resetWalk()
	return g
}

// measuredHotness walks the CFG with the currently assigned behaviors
// and counts conditional-branch executions per block.
func (g *Generator) measuredHotness() []uint64 {
	g.resetWalk()
	visits := make([]uint64, len(g.blocks))
	steps := 300 * len(g.blocks)
	if steps < 200_000 {
		steps = 200_000
	}
	for n := 0; n < steps; n++ {
		u, _ := g.Next()
		if u.Kind.IsConditional() {
			visits[g.prevBlock]++
		}
	}
	return visits
}

// resetWalk rewinds all dynamic state so the generator starts from a
// pristine walk (used between construction-time probes and real use).
func (g *Generator) resetWalk() {
	for i := range g.states {
		g.states[i] = BranchState{}
	}
	g.rng = rand.New(rand.NewSource(runtimeSeed(g.prof)))
	g.mem = newMemGen(g.prof.Mem, 0)
	g.ghist = 0
	g.phase = false
	g.cur, g.pos = 0, 0
	g.prevBlock = 0
	g.stack.n = 0
	g.branches, g.uops = 0, 0
}

// assignBehaviors distributes the mix classes over the forward static
// branches so each class's *dynamic* share of execution approximates
// its weight. Uniform static assignment would let a rare class win a
// super-hot block by lottery and dominate the misprediction budget,
// so per-branch hotness is estimated with a probe walk first and
// classes are dealt greedily (hottest branches first) against
// per-class dynamic budgets. Backward (loop) branches already carry
// their structural Loop behavior and are skipped.
func (g *Generator) assignBehaviors(brng *rand.Rand, visits []uint64) {
	extreme := make([]int, 0, len(g.blocks))
	middle := make([]int, 0, len(g.blocks))
	for i := range g.blocks {
		b := &g.blocks[i]
		if b.term.Kind != trace.CondBranch || b.behave != nil {
			continue
		}
		if b.orient != 0 {
			extreme = append(extreme, i)
		} else {
			middle = append(middle, i)
		}
	}
	var extremeMix, middleMix []MixEntry
	for _, m := range g.prof.Mix {
		if m.Extreme {
			extremeMix = append(extremeMix, m)
		} else {
			middleMix = append(middleMix, m)
		}
	}
	if len(extremeMix) == 0 {
		extremeMix = middleMix
	}
	if len(middleMix) == 0 {
		middleMix = extremeMix
	}
	g.deal(brng, extreme, visits, extremeMix)
	g.deal(brng, middle, visits, middleMix)
}

// deal assigns behaviors from mix to the given branch blocks via
// deterministic stratified allocation: blocks are laid out hottest
// first along [0,1] by their share of probe visits, and each class
// owns a weight-proportional interval. A block falling inside one
// class's interval gets a pure behavior; a block spanning a boundary
// gets a Blend weighted by the overlaps. Class dynamic shares
// therefore match the weights exactly, and a small weight change only
// moves boundary blocks between adjacent classes — which is what
// keeps calibration smooth (greedy fills flip discretely when a hot
// block crosses a budget edge).
func (g *Generator) deal(brng *rand.Rand, blocks []int, visits []uint64, mix []MixEntry) {
	if len(blocks) == 0 {
		return
	}
	var wtotal float64
	for _, m := range mix {
		wtotal += m.Weight
	}
	var sum uint64
	for _, bi := range blocks {
		sum += visits[bi]
	}
	if wtotal == 0 || sum == 0 {
		for _, bi := range blocks {
			g.blocks[bi].behave = g.orientedMake(brng, mix[0], bi)
		}
		return
	}
	// Class interval upper edges in cumulative-weight space.
	edges := make([]float64, len(mix))
	cumW := 0.0
	for i, m := range mix {
		cumW += m.Weight / wtotal
		edges[i] = cumW
	}
	order := append([]int(nil), blocks...)
	sortByVisitsDesc(order, visits)
	cum := 0.0
	for _, bi := range order {
		f := float64(visits[bi]) / float64(sum)
		lo, hi := cum, cum+f
		cum = hi
		// Find overlapping class intervals.
		var parts []BlendPart
		prev := 0.0
		for ci, edge := range edges {
			if edge <= lo && ci != len(edges)-1 {
				prev = edge
				continue
			}
			overlap := math.Min(edge, hi) - math.Max(prev, lo)
			if hi <= lo {
				// Zero-visit block: assign purely to the interval
				// holding the current position.
				overlap = 1
			}
			if overlap > 0 {
				parts = append(parts, BlendPart{
					Weight: overlap,
					B:      g.orientedMake(brng, mix[ci], bi),
				})
			}
			prev = edge
			if edge >= hi {
				break
			}
		}
		switch len(parts) {
		case 0:
			g.blocks[bi].behave = g.orientedMake(brng, mix[len(mix)-1], bi)
		case 1:
			g.blocks[bi].behave = parts[0].B
		default:
			g.blocks[bi].behave = NewBlend(parts)
		}
	}
}

// orientedMake builds a behavior from a mix entry, flipping biased
// behaviors onto the block's structural orientation so the probe's
// assumed direction holds.
func (g *Generator) orientedMake(brng *rand.Rand, m MixEntry, bi int) Behavior {
	bh := m.Make(brng)
	orient := g.blocks[bi].orient
	if orient == 0 {
		return bh
	}
	wantTaken := orient > 0
	switch bb := bh.(type) {
	case Biased:
		if (bb.PTaken >= 0.5) != wantTaken {
			bb.PTaken = 1 - bb.PTaken
		}
		return bb
	case ContextBiased:
		if (bb.PMajor >= 0.5) != wantTaken {
			bb.PMajor = 1 - bb.PMajor
			bb.PMinor = 1 - bb.PMinor
		}
		return bb
	case PhaseBiased:
		if (bb.P1 >= 0.5) != wantTaken {
			bb.P1 = 1 - bb.P1
			bb.P0 = 1 - bb.P0
		}
		return bb
	default:
		return bh
	}
}

// probeHotness walks the bare CFG and counts conditional-branch
// executions per block. Backward edges already know their loop period,
// so their dwell is modeled exactly; forward branches are mild coin
// flips. The estimate only needs the hot/cold ordering roughly right.
func (g *Generator) probeHotness() []uint64 {
	visits := make([]uint64, len(g.blocks))
	prng := rand.New(rand.NewSource(g.prof.Seed ^ 0x2545F491))
	cur := 0
	steps := 200 * len(g.blocks)
	if steps < 100_000 {
		steps = 100_000
	}
	for n := 0; n < steps; n++ {
		b := &g.blocks[cur]
		switch b.term.Kind {
		case trace.CondBranch:
			visits[cur]++
			pTaken := 0.5
			switch {
			case b.orient > 0:
				pTaken = 0.97
			case b.orient < 0:
				pTaken = 0.03
			}
			if l, ok := b.behave.(Loop); ok {
				pTaken = 1 - 1/float64(l.Period)
			}
			if prng.Float64() < pTaken {
				cur = b.takenTo
			} else {
				cur = b.fallTo
			}
		default:
			cur = b.takenTo
		}
	}
	return visits
}

func sortByVisitsDesc(order []int, visits []uint64) {
	sort.Slice(order, func(a, b int) bool {
		if visits[order[a]] != visits[order[b]] {
			return visits[order[a]] > visits[order[b]]
		}
		return order[a] < order[b]
	})
}

// zipfBlock picks a block index with a heavy-tailed preference for
// low indices, concentrating execution on a hot subset like real code.
func (g *Generator) zipfBlock(rng *rand.Rand) int {
	f := math.Pow(rng.Float64(), 1.6)
	i := int(f * float64(len(g.blocks)))
	if i >= len(g.blocks) {
		i = len(g.blocks) - 1
	}
	return i
}

func (g *Generator) makeBodyUop(rng *rand.Rand, pc uint64, recent *[]uint8) trace.Uop {
	u := trace.Uop{PC: pc, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg}
	r := rng.Float64()
	p := g.prof
	switch {
	case r < p.LoadFrac:
		u.Kind = trace.Load
	case r < p.LoadFrac+p.StoreFrac:
		u.Kind = trace.Store
	case r < p.LoadFrac+p.StoreFrac+p.FPFrac:
		u.Kind = trace.FP
		if rng.Intn(20) == 0 {
			u.Kind = trace.FPDiv
		}
	default:
		u.Kind = trace.ALU
		switch rng.Intn(40) {
		case 0:
			u.Kind = trace.Div
		case 1, 2:
			u.Kind = trace.Mul
		}
	}
	u.Src1 = g.pickSrc(rng, *recent)
	if rng.Intn(3) == 0 {
		u.Src2 = g.pickSrc(rng, *recent)
	}
	if u.Kind != trace.Store {
		u.Dst = uint8(1 + rng.Intn(trace.NumRegs-1))
		*recent = append(*recent, u.Dst)
		if len(*recent) > g.prof.DepWindow {
			*recent = (*recent)[1:]
		}
	}
	return u
}

func (g *Generator) pickSrc(rng *rand.Rand, recent []uint8) uint8 {
	// Prefer a recent producer (dependence locality); fall back to a
	// random architectural register.
	if len(recent) > 0 && rng.Float64() < 0.5 {
		return recent[rng.Intn(len(recent))]
	}
	return uint8(rng.Intn(trace.NumRegs))
}

func (g *Generator) makeTerminal(rng *rand.Rand, pc uint64, i int) trace.Uop {
	u := trace.Uop{PC: pc, Dst: trace.NoReg, Src1: uint8(rng.Intn(trace.NumRegs)), Src2: trace.NoReg}
	switch r := rng.Float64(); {
	case r < 0.85:
		u.Kind = trace.CondBranch
	case r < 0.95:
		u.Kind = trace.Jump
		u.Taken = true
	case r < 0.98:
		u.Kind = trace.Call
		u.Taken = true
	default:
		u.Kind = trace.Ret
		u.Taken = true
	}
	return u
}

// Name returns the benchmark name.
func (g *Generator) Name() string { return g.prof.Name }

// Profile returns the profile the generator was built from.
func (g *Generator) Profile() Profile { return g.prof }

// StaticBranches returns the number of static conditional branches.
func (g *Generator) StaticBranches() int {
	n := 0
	for i := range g.blocks {
		if g.blocks[i].term.Kind == trace.CondBranch {
			n++
		}
	}
	return n
}

// Counts returns total uops and conditional branches emitted so far.
func (g *Generator) Counts() (uops, branches uint64) { return g.uops, g.branches }

// History returns the workload's global outcome history (for tests).
func (g *Generator) History() uint64 { return g.ghist }

// Next implements trace.Source; the stream is infinite so ok is
// always true.
func (g *Generator) Next() (trace.Uop, bool) {
	b := &g.blocks[g.cur]
	if g.pos < len(b.body) {
		u := b.body[g.pos]
		g.pos++
		if u.Kind.IsMem() {
			u.Addr = g.mem.next(g.rng)
		}
		g.uops++
		return u, true
	}
	// Terminal.
	u := b.term
	g.pos = 0
	g.prevBlock = g.cur
	switch u.Kind {
	case trace.CondBranch:
		if g.rng.Float64() < 1/float64(g.prof.PhaseLen) {
			g.phase = !g.phase
		}
		taken := b.behave.Outcome(&g.states[b.bi], Env{Ghist: g.ghist, Phase: g.phase}, g.rng)
		u.Taken = taken
		g.ghist = g.ghist<<1 | boolBit(taken)
		g.branches++
		if taken {
			g.cur = b.takenTo
		} else {
			g.cur = b.fallTo
		}
	case trace.Call:
		g.stack.push(int32(b.fallTo))
		g.cur = b.takenTo
	case trace.Ret:
		if ret, ok := g.stack.pop(); ok {
			g.cur = int(ret)
			u.Target = g.blocks[g.cur].pc
		} else {
			g.cur = b.takenTo
		}
	default: // Jump
		g.cur = b.takenTo
	}
	g.uops++
	return u, true
}

// callStack is the generator's return-address stack of block indices.
// The synthetic programs make more calls than returns, so on most
// benchmarks it grows for the whole run (tens of thousands of entries
// per million uops). It is stored in fixed-size chunks so that growth
// never copies the stack or leaves the old copy as garbage.
type callStack struct {
	chunks [][]int32
	n      int
}

const callStackChunk = 4096

func (c *callStack) push(v int32) {
	i := c.n / callStackChunk
	if i == len(c.chunks) {
		c.chunks = append(c.chunks, make([]int32, callStackChunk))
	}
	c.chunks[i][c.n%callStackChunk] = v
	c.n++
}

func (c *callStack) pop() (int32, bool) {
	if c.n == 0 {
		return 0, false
	}
	c.n--
	return c.chunks[c.n/callStackChunk][c.n%callStackChunk], true
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ trace.Source = (*Generator)(nil)

// PathSource is the wrong-path interface the timing pipeline consumes:
// a redirectable uop stream that supplies instructions fetched past a
// mispredicted branch until recovery. *WrongPath implements it over a
// Generator's CFG; Synthetic implements it for replayed traces with no
// CFG to walk.
type PathSource interface {
	// Restart points the wrong path at the given fetch target.
	Restart(targetPC uint64)
	// Stop deactivates the wrong path (on recovery).
	Stop()
	// Active reports whether a wrong path is being generated.
	Active() bool
	// Next yields the next wrong-path uop while active.
	Next() (trace.Uop, bool)
}

// BranchKinds maps each static conditional branch PC to its behavior
// class name; calibration tooling uses it to attribute mispredictions.
func (g *Generator) BranchKinds() map[uint64]string {
	out := make(map[uint64]string)
	for i := range g.blocks {
		b := &g.blocks[i]
		if b.term.Kind == trace.CondBranch && b.behave != nil {
			out[b.term.PC] = b.behave.Kind()
		}
	}
	return out
}

// BehaviorAt returns the behavior of the static conditional branch at
// pc, or nil; calibration tooling uses it to compute class-conditional
// statistics exactly.
func (g *Generator) BehaviorAt(pc uint64) Behavior {
	for i := range g.blocks {
		if g.blocks[i].term.PC == pc && g.blocks[i].term.Kind == trace.CondBranch {
			return g.blocks[i].behave
		}
	}
	return nil
}
