package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bce/internal/trace"
)

// Profile describes one synthetic benchmark. Build its Program with
// Build and walk it with Program.Walk, or do both at once with New;
// Load does the same for a compiled-in benchmark and builds its
// Program only once per process.
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
	// the *same* static program: Build never reads it, so the CFG,
	// behaviors and calibration are identical for every segment, and
	// only the walker's randomness (New, Program.Walk) depends on it.
	// The paper evaluates two trace segments per benchmark (§4);
	// experiments average across segments the same way.
	Segment int
}

// op is a static body uop. Its PC is the block's PC plus 4 per
// position, and a memory op's address is drawn per instance.
type op struct {
	Kind            trace.Kind
	Dst, Src1, Src2 uint8
}

type block struct {
	pc      uint64
	body    []op
	mems    int       // memory ops in body: the address draws walking it makes
	term    trace.Uop // static terminal; Taken/Target resolved dynamically
	behave  Behavior  // nil for unconditional terminals
	takenTo int
	fallTo  int
	// orient is the structural taken-bias of a forward conditional
	// branch: +1 strongly taken, -1 strongly not-taken, 0 balanced.
	// The hotness probe walks with it, and behavior assignment
	// respects it, so probe hotness predicts real hotness.
	orient int8
}

// Program is a benchmark's static program: the CFG of basic blocks,
// their uops and each conditional branch's behavior. It is immutable
// once built, so any number of walkers, on any goroutines, may share
// it.
type Program struct {
	prof   Profile // Segment is always zero
	blocks []block // in ascending PC order
	phaseP float64 // 1/PhaseLen: the phase toggle's probability per branch
}

// Generator walks a Program and emits the benchmark's correct-path uop
// stream for one runtime segment. It owns all the dynamic state: the
// per-branch behavior state, the runtime randomness, the data-address
// streams, the cursor, the return-address stack and the global
// history. It implements trace.Source and never ends; NextBranch walks
// the same stream one conditional branch at a time.
type Generator struct {
	prog    *Program
	segment int
	states  []BranchState
	rng     Rand
	mem     *memGen
	ghist   uint64
	phase   bool
	cur     int
	pos     int
	stack   callStack

	branches uint64
	uops     uint64
}

const codeBase = 0x0040_0000

// runtimeSeed derives the dynamic-randomness seed from the profile's
// seed and the segment; construction randomness never depends on it.
func runtimeSeed(seed int64, segment int) int64 {
	return (seed ^ 0x5E3779B97F4A7C15) + int64(segment)*0x6A09E667
}

// condTail is the number of trailing blocks whose terminals are forced
// to be conditional branches; together with forward-only unconditional
// jumps this guarantees the dynamic walk always reaches conditional
// branches (no unconditional-only cycles).
const condTail = 18

// New builds the program for a profile and returns a walker over it
// for p.Segment. It panics on structurally invalid profiles (see
// Build).
func New(p Profile) *Generator { return Build(p).Walk(p.Segment) }

// programs memoizes Build for the compiled-in profiles, by name.
var programs = func() map[string]*builtin {
	m := make(map[string]*builtin)
	for _, name := range Names() {
		m[name] = &builtin{}
	}
	return m
}()

type builtin struct {
	once sync.Once
	prog *Program
}

// Load returns a fresh walker over the named compiled-in benchmark for
// the given segment. The benchmark's Program is built on first use
// and shared by every later Load in the process; concurrent first
// calls build it once. The stream equals New's for that profile and
// segment. A caller that modifies a profile must use New.
func Load(name string, segment int) (*Generator, error) {
	b, ok := programs[name]
	if !ok {
		_, err := ByName(name)
		return nil, err
	}
	b.once.Do(func() {
		p, _ := ByName(name)
		b.prog = Build(p)
	})
	return b.prog.Walk(segment), nil
}

// Walk returns a fresh walker over the program for one runtime
// segment (see Profile.Segment). It never mutates the program.
func (g *Program) Walk(segment int) *Generator {
	w := &Generator{
		prog:    g,
		segment: segment,
		states:  make([]BranchState, len(g.blocks)),
		mem:     newMemGen(g.prof.Mem, 0),
	}
	w.rng.Seed(runtimeSeed(g.prof.Seed, segment))
	return w
}

// Build constructs the static program for a profile; p.Segment is
// ignored. It panics on structurally invalid profiles (no blocks, no
// mix): profiles are compiled into the binary, so these are
// programming errors.
func Build(p Profile) *Program {
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
	crng := NewRand(p.Seed)
	brng := NewRand(p.Seed*0x6C62272E + 0x1B873593)
	p.Segment = 0 // a Program serves every segment
	g := &Program{
		prof:   p,
		blocks: make([]block, p.Blocks),
		phaseP: 1 / float64(p.PhaseLen),
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
		n := 1 + crng.Intn(2*p.MeanBlockLen-1) // mean ≈ MeanBlockLen
		b.body = make([]op, n)
		for j := range b.body {
			b.body[j] = g.makeBodyOp(crng, &recent)
			if b.body[j].Kind.IsMem() {
				b.mems++
			}
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
	// The bare-CFG probe walk alone orders the blocks by hotness. It
	// gets the hot/cold ordering right; direction (orientation) and
	// loop dwell are structural, so the behaviors dealt against it do
	// not move execution far from what it measured.
	g.assignBehaviors(brng, g.probeHotness())
	return g
}

// assignBehaviors distributes the mix classes over the forward static
// branches so each class's *dynamic* share of execution approximates
// its weight. Uniform static assignment would let a rare class win a
// super-hot block by lottery and dominate the misprediction budget,
// so per-branch hotness is estimated with a probe walk first and
// classes are dealt greedily (hottest branches first) against
// per-class dynamic budgets. Backward (loop) branches already carry
// their structural Loop behavior and are skipped.
func (g *Program) assignBehaviors(brng *Rand, visits []uint64) {
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
func (g *Program) deal(brng *Rand, blocks []int, visits []uint64, mix []MixEntry) {
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
func (g *Program) orientedMake(brng *Rand, m MixEntry, bi int) Behavior {
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
func (g *Program) probeHotness() []uint64 {
	visits := make([]uint64, len(g.blocks))
	prng := NewRand(g.prof.Seed ^ 0x2545F491)
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
func (g *Program) zipfBlock(rng *Rand) int {
	f := math.Pow(rng.Float64(), 1.6)
	i := int(f * float64(len(g.blocks)))
	if i >= len(g.blocks) {
		i = len(g.blocks) - 1
	}
	return i
}

func (g *Program) makeBodyOp(rng *Rand, recent *[]uint8) op {
	u := op{Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg}
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

func (g *Program) pickSrc(rng *Rand, recent []uint8) uint8 {
	// Prefer a recent producer (dependence locality); fall back to a
	// random architectural register.
	if len(recent) > 0 && rng.Float64() < 0.5 {
		return recent[rng.Intn(len(recent))]
	}
	return uint8(rng.Intn(trace.NumRegs))
}

func (g *Program) makeTerminal(rng *Rand, pc uint64, i int) trace.Uop {
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
func (g *Generator) Name() string { return g.prog.prof.Name }

// Profile returns the profile the generator was built from, with the
// segment it walks.
func (g *Generator) Profile() Profile {
	p := g.prog.prof
	p.Segment = g.segment
	return p
}

// StaticBranches returns the number of static conditional branches.
func (g *Generator) StaticBranches() int {
	n := 0
	for i := range g.prog.blocks {
		if g.prog.blocks[i].term.Kind == trace.CondBranch {
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
	b := &g.prog.blocks[g.cur]
	if g.pos < len(b.body) {
		o, pos := b.body[g.pos], g.pos
		g.pos++
		g.uops++
		var addr uint64
		if o.Kind.IsMem() {
			addr = g.mem.next(&g.rng)
		}
		// The literal goes straight into the result: assembling the
		// uop in a local and returning that copies it with wide loads
		// that stall on the byte stores just made.
		return trace.Uop{PC: b.pc + 4*uint64(pos), Addr: addr, Kind: o.Kind, Dst: o.Dst, Src1: o.Src1, Src2: o.Src2}, true
	}
	taken, target := g.terminal(b)
	// Built as a literal too: copying b.term and setting Taken and
	// Target on the copy stalls the same way.
	t := &b.term
	return trace.Uop{PC: t.PC, Target: target, Kind: t.Kind, Taken: taken, Dst: t.Dst, Src1: t.Src1, Src2: t.Src2}, true
}

// NextBranch advances the walk to the next conditional branch and
// returns its PC and direction, and n, the number of uops consumed
// with the branch included. It walks a block per step and builds no
// uops, but it advances the address model over every memory op in
// order (memGen.skip), so the walk stays on the stream Next yields:
// after any mix of Next and NextBranch calls, Next continues exactly
// where the uop stream would, and Counts and History read the same.
func (g *Generator) NextBranch() (pc uint64, taken bool, n uint64) {
	for {
		b := &g.prog.blocks[g.cur]
		mems := b.mems
		if g.pos != 0 {
			mems = 0
			for _, o := range b.body[g.pos:] {
				if o.Kind.IsMem() {
					mems++
				}
			}
		}
		g.mem.skip(&g.rng, mems)
		body := uint64(len(b.body) - g.pos)
		g.uops += body
		n += body + 1
		taken, _ = g.terminal(b)
		if b.term.Kind == trace.CondBranch {
			return b.term.PC, taken, n
		}
	}
}

// terminal executes the terminal of b, the block at the cursor: it
// resolves the direction and target (drawing the phase toggle and the
// behavior outcome of a conditional branch), updates the history,
// branch count and return-address stack, and moves the cursor to the
// successor block.
func (g *Generator) terminal(b *block) (taken bool, target uint64) {
	taken, target = b.term.Taken, b.term.Target
	g.pos = 0
	g.uops++
	switch b.term.Kind {
	case trace.CondBranch:
		// The phase toggles with probability 1/PhaseLen.
		g.phase = g.phase != (g.rng.Float64() < g.prog.phaseP)
		taken = b.behave.Outcome(&g.states[g.cur], Env{Ghist: g.ghist, Phase: g.phase}, &g.rng)
		g.ghist = g.ghist<<1 | boolBit(taken)
		g.branches++
		// Both successors are loaded first so that the choice is a
		// conditional move, not a branch on the outcome.
		next, takenTo := b.fallTo, b.takenTo
		if taken {
			next = takenTo
		}
		g.cur = next
	case trace.Call:
		g.stack.push(int32(b.fallTo))
		g.cur = b.takenTo
	case trace.Ret:
		if ret, ok := g.stack.pop(); ok {
			g.cur = int(ret)
			target = g.prog.blocks[g.cur].pc
		} else {
			g.cur = b.takenTo
		}
	default: // Jump
		g.cur = b.takenTo
	}
	return taken, target
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
// Program's CFG; Synthetic implements it for replayed traces with no
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
	for i := range g.prog.blocks {
		b := &g.prog.blocks[i]
		if b.term.Kind == trace.CondBranch && b.behave != nil {
			out[b.term.PC] = b.behave.Kind()
		}
	}
	return out
}
