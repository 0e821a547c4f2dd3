package workload

import "bce/internal/trace"

// Replay adapts a recorded uop stream (any trace.Source, such as a
// trace.SliceSource over a caller's own uops) for the timing pipeline:
// it loops the recorded uops when the recording is shorter than the
// requested run, and builds an incremental PC index so the paired
// Synthetic wrong-path source can resume real recorded code at a
// mispredicted branch's target.
type Replay struct {
	src     trace.Source
	buf     []trace.Uop
	pcIdx   map[uint64]int // PC -> index of first occurrence in buf
	pos     int            // replay cursor when looping
	looping bool
}

// NewReplay wraps a recorded trace source. The whole source is
// buffered on first pass so it can loop; trace segments in the
// hundreds of millions of uops should be split before replay.
func NewReplay(src trace.Source) *Replay {
	if src == nil {
		panic("workload: nil replay source")
	}
	return &Replay{src: src, pcIdx: make(map[uint64]int)}
}

// Next implements trace.Source. After the recording ends, the stream
// loops from the start (an empty recording yields ok=false).
func (r *Replay) Next() (trace.Uop, bool) {
	if !r.looping {
		u, ok := r.src.Next()
		if ok {
			if _, seen := r.pcIdx[u.PC]; !seen {
				r.pcIdx[u.PC] = len(r.buf)
			}
			r.buf = append(r.buf, u)
			return u, true
		}
		r.looping = true
		r.pos = 0
	}
	if len(r.buf) == 0 {
		return trace.Uop{}, false
	}
	u := r.buf[r.pos]
	r.pos = (r.pos + 1) % len(r.buf)
	return u, true
}

// Recorded returns the number of distinct uops buffered so far.
func (r *Replay) Recorded() int { return len(r.buf) }

// WrongPath returns a wrong-path synthesizer over the replayed code:
// targets that match recorded PCs resume the recording from there
// (with randomized branch directions); unseen targets fall back to a
// synthetic instruction mix.
func (r *Replay) WrongPath(seed int64) *Synthetic {
	return &Synthetic{replay: r, rng: NewRand(seed)}
}

var _ trace.Source = (*Replay)(nil)

// Synthetic is the wrong-path source for replayed traces. When the
// mispredicted target is a PC the recording has visited, it re-serves
// the recorded uops from that point (randomizing conditional branch
// directions, since the wrong path's outcomes are unknowable); for
// unseen targets it emits a generic instruction mix at the target PC.
// Either way the uops are squashed before retirement, so only their
// resource footprint matters.
type Synthetic struct {
	replay *Replay
	rng    *Rand
	pos    int // cursor into replay.buf, -1 when synthesizing
	pc     uint64
	live   bool
}

// Restart implements PathSource.
func (s *Synthetic) Restart(targetPC uint64) {
	s.live = true
	if i, ok := s.replay.pcIdx[targetPC]; ok {
		s.pos = i
		return
	}
	s.pos = -1
	s.pc = targetPC
}

// Stop implements PathSource.
func (s *Synthetic) Stop() { s.live = false }

// Active implements PathSource.
func (s *Synthetic) Active() bool { return s.live }

// Next implements PathSource.
func (s *Synthetic) Next() (trace.Uop, bool) {
	if !s.live {
		return trace.Uop{}, false
	}
	if s.pos >= 0 && s.pos < len(s.replay.buf) {
		u := s.replay.buf[s.pos]
		s.pos++
		if u.Kind.IsConditional() {
			u.Taken = s.rng.Intn(2) == 0
		}
		return u, true
	}
	// Synthetic mix: mostly ALU with some loads, one conditional
	// branch every 8 uops, walking forward from the target.
	u := trace.Uop{PC: s.pc, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg}
	switch s.rng.Intn(8) {
	case 0:
		u.Kind = trace.CondBranch
		u.Taken = s.rng.Intn(2) == 0
		u.Target = s.pc + 64
	case 1, 2:
		u.Kind = trace.Load
		u.Addr = 0x2000_0000 + s.rng.Uint64()&0xFFFF8
		u.Dst = uint8(1 + s.rng.Intn(trace.NumRegs-1))
	default:
		u.Kind = trace.ALU
		u.Dst = uint8(1 + s.rng.Intn(trace.NumRegs-1))
		u.Src1 = uint8(s.rng.Intn(trace.NumRegs))
	}
	s.pc += 4
	return u, true
}

var _ PathSource = (*Synthetic)(nil)
