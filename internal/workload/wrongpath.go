package workload

import (
	"sort"

	"bce/internal/trace"
)

// WrongPath synthesizes the instruction stream fetched past a
// mispredicted branch. A real execution-driven simulator executes
// actual wrong-path code; a trace only records the correct path, so we
// walk the *same* static CFG from the mispredicted target with
// randomized branch outcomes (DESIGN.md substitution 3). The uops are
// real static code — same PCs, kinds and register structure — so
// wrong-path branches index the same predictor and estimator tables a
// real front end would touch; only their outcomes are synthetic, which
// is irrelevant because wrong-path uops are squashed, never retired or
// trained.
type WrongPath struct {
	prog *Program
	rng  Rand
	mem  *memGen
	cur  int
	pos  int
	live bool
}

// NewWrongPath returns a wrong-path synthesizer over the program g
// walks, with randomness drawn from g's segment. It never mutates g or
// its program.
func NewWrongPath(g *Generator) *WrongPath {
	p := g.prog.prof
	w := &WrongPath{prog: g.prog, mem: newMemGen(p.Mem, 1)}
	w.rng.Seed(wrongPathSeed(p.Seed, g.segment))
	return w
}

// wrongPathSeed derives the wrong path's seed from the profile's seed
// and the segment, apart from the correct path's (runtimeSeed).
func wrongPathSeed(seed int64, segment int) int64 {
	return (seed ^ 0x5DEECE66D) + int64(segment)*0x2545F491
}

// Restart points the wrong path at the given fetch target. Targets
// that are block starts (the usual case: a branch target or a
// fall-through PC) resume at that block; anything else hashes onto
// some block.
func (w *WrongPath) Restart(targetPC uint64) {
	blocks := w.prog.blocks
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].pc >= targetPC })
	if i < len(blocks) && blocks[i].pc == targetPC {
		w.cur = i
	} else {
		w.cur = int(targetPC>>2) % len(blocks)
	}
	w.pos = 0
	w.live = true
}

// Stop deactivates the wrong path (on recovery).
func (w *WrongPath) Stop() { w.live = false }

// Active reports whether a wrong path is being generated.
func (w *WrongPath) Active() bool { return w.live }

// Next implements trace.Source while active; ok is false when no
// wrong path is live.
func (w *WrongPath) Next() (trace.Uop, bool) {
	if !w.live {
		return trace.Uop{}, false
	}
	b := &w.prog.blocks[w.cur]
	if w.pos < len(b.body) {
		o, pos := b.body[w.pos], w.pos
		w.pos++
		var addr uint64
		if o.Kind.IsMem() {
			addr = w.mem.next(&w.rng)
		}
		// Returned directly, for the reason given in Generator.Next.
		return trace.Uop{PC: b.pc + 4*uint64(pos), Addr: addr, Kind: o.Kind, Dst: o.Dst, Src1: o.Src1, Src2: o.Src2}, true
	}
	w.pos = 0
	taken := b.term.Taken
	switch b.term.Kind {
	case trace.CondBranch:
		// Wrong-path branch outcomes are unknowable from the trace;
		// randomize. They are never retired, so this only affects
		// which wrong-path blocks are walked.
		taken = w.rng.Intn(2) == 0
		if taken {
			w.cur = b.takenTo
		} else {
			w.cur = b.fallTo
		}
	default:
		w.cur = b.takenTo
	}
	// Built as a literal, for the reason given in Generator.Next.
	t := &b.term
	return trace.Uop{PC: t.PC, Target: t.Target, Kind: t.Kind, Taken: taken, Dst: t.Dst, Src1: t.Src1, Src2: t.Src2}, true
}

var _ trace.Source = (*WrongPath)(nil)
