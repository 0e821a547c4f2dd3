package pipeline

import (
	"fmt"

	"bce/internal/confidence"
	"bce/internal/telemetry"
	"bce/internal/trace"
)

// ring is a fixed-capacity FIFO of pool indices. Index arithmetic
// wraps with a compare instead of %: the modulo was a measurable cost
// in the per-cycle walks, and capacities are not powers of two.
type ring struct {
	buf  []int32
	head int
	n    int
}

func newRing(capacity int) ring {
	return ring{buf: make([]int32, capacity)}
}

func (r *ring) len() int   { return r.n }
func (r *ring) full() bool { return r.n == len(r.buf) }

func (r *ring) push(v int32) {
	if r.full() {
		panic("pipeline: ring overflow")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

func (r *ring) at(i int) int32 {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return r.buf[j]
}

func (r *ring) pop() int32 {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// truncate keeps the first keep entries, dropping the tail.
func (r *ring) truncate(keep int) { r.n = keep }

func (r *ring) clear() { r.n = 0 }

// retire drains completed uops in program order, training the
// confidence estimator and accumulating branch statistics.
func (s *Sim) retire() {
	m := s.opt.Machine
	for retired := 0; retired < m.RetireWidth && s.rob.len() > 0; retired++ {
		idx := s.rob.at(0)
		e := &s.pool[idx]
		if e.state != sDone {
			return
		}
		if e.wrongPath {
			panic(fmt.Sprintf("pipeline: wrong-path uop %d reached retirement", e.seq))
		}
		s.rob.pop()
		switch e.u.Kind {
		case trace.Load:
			s.loadsUsed--
		case trace.Store:
			s.storesUsed--
		}
		if e.isBranch {
			if !s.opt.SpeculativeCETrain {
				s.est.Train(e.u.PC, e.tok, e.mispredOrig, e.actualTaken)
			}
			s.ctr.retiredBranches.Inc()
			s.ctr.observeConfusion(e.mispredOrig, e.tok.Band.Low())
			if e.mispredFinal {
				s.ctr.mispredicts.Inc()
			}
			if e.reversed {
				s.ctr.reversals.Inc()
				if e.mispredOrig && !e.mispredFinal {
					s.ctr.reversalsGood.Inc()
				}
			}
			// dispatchAt is fetch cycle + front-end depth, so this is
			// the branch's full fetch-to-retire latency.
			s.ctr.resolveLatency.Observe(s.cycle - (e.dispatchAt - uint64(m.FrontendDepth)))
		}
		s.ctr.retired.Inc()
		s.lastRetireAt = s.cycle
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvRetire, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC})
		}
		s.release(idx)
	}
}

// complete marks issued uops whose latency elapsed as done, resolves
// branches for the gating counter and triggers misprediction recovery.
//
// Instead of walking the whole ROB it walks the pending list — only
// the uops actually in flight in an execution unit. Squashed entries
// are dropped lazily by the seq check (squash never edits the list),
// and the due set is processed in seq order, which is exactly the
// program order the full ROB scan used, so event order and recovery
// timing are unchanged.
func (s *Sim) complete() {
	pending := s.pending
	due := s.due[:0]
	keep := 0
	for _, ref := range pending {
		e := &s.pool[ref.idx]
		if e.seq != ref.seq || e.state != sIssued {
			continue // squashed (slot freed or reallocated) — drop
		}
		if e.doneAt > s.cycle {
			pending[keep] = ref
			keep++
			continue
		}
		due = append(due, ref)
	}
	s.pending = pending[:keep]
	// The pending list is in issue order, not program order; restore
	// seq order with an insertion sort (the due set is tiny — bounded
	// by the execution units draining in one cycle — and nearly sorted
	// already, and sort.Slice would allocate).
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j-1].seq > due[j].seq; j-- {
			due[j-1], due[j] = due[j], due[j-1]
		}
	}
	s.due = due
	divergeDone := false
	for _, ref := range due {
		e := &s.pool[ref.idx]
		e.state = sDone
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvComplete, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC, WrongPath: e.wrongPath})
		}
		if e.isBranch {
			if e.gated {
				s.gate.OnResolve(e.seq)
			}
			if e.diverge {
				divergeDone = true
			}
		}
	}
	if divergeDone {
		s.recover()
	}
}

// recover squashes everything younger than the resolved diverging
// branch, restores the rename checkpoint and redirects fetch to the
// correct path.
func (s *Sim) recover() {
	var squashed uint64
	// The ROB tail younger than divergeSeq is all wrong-path.
	keep := s.rob.len()
	for keep > 0 {
		e := &s.pool[s.rob.at(keep-1)]
		if e.seq <= s.divergeSeq {
			break
		}
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvSquashUop, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC})
		}
		s.squashEntry(e, s.rob.at(keep-1))
		squashed++
		keep--
	}
	s.rob.truncate(keep)
	// Everything still in the fetch queue is younger too.
	for i := 0; i < s.fetchQ.len(); i++ {
		idx := s.fetchQ.at(i)
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvSquashUop, Cycle: s.cycle, Seq: s.pool[idx].seq, PC: s.pool[idx].u.PC})
		}
		s.squashEntry(&s.pool[idx], idx)
		squashed++
	}
	s.fetchQ.clear()
	s.ctr.squashDepth.Observe(squashed)
	if s.sink != nil {
		s.sink.Emit(telemetry.Event{Kind: telemetry.EvSquash, Cycle: s.cycle, Seq: s.divergeSeq, N: squashed})
	}
	if s.peekedValid && s.peekedWrong {
		s.peekedValid = false
	}
	s.rename = s.ckpt
	s.wrong.Stop()
	if s.stallUntil < s.cycle+1 {
		s.stallUntil = s.cycle + 1 // redirect bubble
	}
}

// squashEntry releases an entry's resources and returns it to the
// pool. The caller removes it from whatever queue held it.
func (s *Sim) squashEntry(e *inflight, idx int32) {
	if e.state == sDispatched {
		s.windowUsed[e.class]--
	}
	if e.state != sFetched {
		switch e.u.Kind {
		case trace.Load:
			s.loadsUsed--
		case trace.Store:
			s.storesUsed--
		}
	}
	if e.gated {
		s.gate.OnResolve(e.seq)
	}
	s.release(idx)
}

// ready reports whether an entry's operands are available: a producer
// slot is outstanding only while the referenced pool entry still holds
// the same seq and has not completed.
func (s *Sim) ready(e *inflight) bool {
	if e.src1Idx >= 0 {
		p := &s.pool[e.src1Idx]
		if p.seq == e.src1Seq && p.state != sDone {
			return false
		}
		e.src1Idx = -1
	}
	if e.src2Idx >= 0 {
		p := &s.pool[e.src2Idx]
		if p.seq == e.src2Seq && p.state != sDone {
			return false
		}
		e.src2Idx = -1
	}
	return true
}

// issue selects ready uops oldest-first, subject to the global issue
// width and per-class execution-unit limits.
//
// The candidates live in the waiting list — only dispatched-not-issued
// uops, appended in dispatch order, which is program order, so
// oldest-first selection is a front-to-back walk rather than a full
// ROB scan. The walk compacts the list in place: issued uops move to
// the pending list and squashed ones (seq mismatch) drop out.
func (s *Sim) issue() {
	m := s.opt.Machine
	issued := 0
	var unitUsed [3]int
	w := s.waiting
	keep := 0
	for _, ref := range w {
		e := &s.pool[ref.idx]
		if e.seq != ref.seq || e.state != sDispatched {
			continue // squashed — drop
		}
		if issued >= m.IssueWidth {
			w[keep] = ref
			keep++
			continue
		}
		cl := e.class
		if unitUsed[cl] >= s.unitCap[cl] || !s.ready(e) {
			w[keep] = ref
			keep++
			continue
		}
		e.state = sIssued
		e.doneAt = s.cycle + s.latency(e.u)
		s.windowUsed[cl]--
		unitUsed[cl]++
		issued++
		s.pending = append(s.pending, ref)
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvIssue, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC, WrongPath: e.wrongPath})
		}
	}
	s.waiting = w[:keep]
}

// dispatch renames and inserts fetched uops into the ROB and
// scheduling windows, in order, as resources allow.
func (s *Sim) dispatch() {
	m := s.opt.Machine
	for n := 0; n < m.DispatchWidth && s.fetchQ.len() > 0; n++ {
		idx := s.fetchQ.at(0)
		e := &s.pool[idx]
		if e.dispatchAt > s.cycle || s.rob.full() {
			return
		}
		cl := e.class
		if s.windowUsed[cl] >= s.windowCap[cl] {
			return
		}
		switch e.u.Kind {
		case trace.Load:
			if s.loadsUsed >= m.LoadBufs {
				return
			}
		case trace.Store:
			if s.storesUsed >= m.StoreBufs {
				return
			}
		}
		s.fetchQ.pop()
		s.rob.push(idx)
		s.windowUsed[cl]++
		switch e.u.Kind {
		case trace.Load:
			s.loadsUsed++
		case trace.Store:
			s.storesUsed++
		}
		s.ctr.executed.Inc()
		if e.wrongPath {
			s.ctr.wrongPathExecuted.Inc()
		}
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvDispatch, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC, WrongPath: e.wrongPath})
		}
		s.renameSources(e)
		if e.u.Dst != trace.NoReg {
			s.rename[e.u.Dst] = renameEntry{idx: idx, seq: e.seq}
		}
		if e.diverge {
			s.ckpt = s.rename
		}
		e.state = sDispatched
		s.waiting = append(s.waiting, schedRef{idx: idx, seq: e.seq})
	}
}

func (s *Sim) renameSources(e *inflight) {
	e.src1Idx, e.src2Idx = -1, -1
	if r := e.u.Src1; r != trace.NoReg {
		if re := s.rename[r]; re.idx >= 0 {
			if p := &s.pool[re.idx]; p.seq == re.seq && p.state != sDone {
				e.src1Idx, e.src1Seq = re.idx, re.seq
			}
		}
	}
	if r := e.u.Src2; r != trace.NoReg {
		if re := s.rename[r]; re.idx >= 0 {
			if p := &s.pool[re.idx]; p.seq == re.seq && p.state != sDone {
				e.src2Idx, e.src2Seq = re.idx, re.seq
			}
		}
	}
}

// fetch pulls uops from the active path (correct or wrong), predicting
// and confidence-estimating conditional branches, honoring trace-cache
// misses, pipeline gating and redirect bubbles.
func (s *Sim) fetch() {
	if s.cycle < s.stallUntil {
		return
	}
	if s.gate.Stalled(s.cycle) {
		return
	}
	m := s.opt.Machine
	brBudget := m.BranchPerCycle
	for budget := m.FetchWidth; budget > 0; budget-- {
		if s.fetchQ.full() {
			return
		}
		if !s.peekedValid {
			if s.wrong.Active() {
				u, ok := s.wrong.Next()
				if !ok {
					panic("pipeline: active wrong path yielded nothing")
				}
				s.peeked, s.peekedWrong = u, true
			} else {
				u, ok := s.gen.Next()
				if !ok {
					panic("pipeline: workload stream ended")
				}
				s.peeked, s.peekedWrong = u, false
			}
			s.peekedValid = true
		}
		u := s.peeked
		// Trace-cache probe at line granularity.
		if !s.tc.Access(u.PC &^ 63) {
			s.stallUntil = s.cycle + uint64(m.TCMissPenalty)
			return
		}
		if u.Kind.IsConditional() {
			if brBudget == 0 {
				return
			}
			brBudget--
		}
		idx := s.alloc()
		if idx < 0 {
			return
		}
		s.seq++
		e := &s.pool[idx]
		e.u = u
		e.seq = s.seq
		e.class = classOf(u.Kind)
		e.wrongPath = s.peekedWrong
		e.dispatchAt = s.cycle + uint64(m.FrontendDepth)
		e.state = sFetched
		if u.Kind.IsConditional() {
			s.fetchBranch(e)
		}
		s.fetchQ.push(idx)
		s.peekedValid = false
		s.ctr.fetched.Inc()
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvFetch, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC, WrongPath: e.wrongPath})
		}
		// A diverging branch switches the fetch source; the rest of
		// this cycle's slots fill from the wrong path.
	}
}

// fetchBranch runs prediction, confidence estimation, reversal and
// gating for one fetched conditional branch.
func (s *Sim) fetchBranch(e *inflight) {
	e.isBranch = true
	e.actualTaken = e.u.Taken
	switch {
	case s.opt.Perfect:
		e.predTaken = e.actualTaken
	case e.wrongPath:
		// Predicted (it consumes prediction/estimation bandwidth and
		// can arm the gating counter) but never trained.
		e.predTaken = s.pred.Predict(e.u.PC)
	default:
		e.predTaken = s.pred.Predict(e.u.PC)
		s.pred.Update(e.u.PC, e.actualTaken)
	}
	if s.sink != nil {
		s.sink.Emit(telemetry.Event{Kind: telemetry.EvPredict, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC,
			Taken: e.predTaken, WrongPath: e.wrongPath})
	}
	if or, ok := s.est.(confidence.TraceOracle); ok {
		or.ObserveNext(e.predTaken != e.actualTaken)
	}
	e.tok = s.est.Estimate(e.u.PC, e.predTaken)
	e.finalTaken = e.predTaken
	if s.opt.Reversal && e.tok.Band == confidence.StrongLow {
		e.finalTaken = !e.predTaken
		e.reversed = true
	}
	e.mispredOrig = e.predTaken != e.actualTaken
	e.mispredFinal = e.finalTaken != e.actualTaken
	if e.reversed && s.sink != nil {
		s.sink.Emit(telemetry.Event{Kind: telemetry.EvReversal, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC,
			Taken: e.finalTaken, Mispred: e.mispredOrig && !e.mispredFinal, WrongPath: e.wrongPath})
	}
	gateIt := e.tok.Band == confidence.WeakLow ||
		(e.tok.Band == confidence.StrongLow && !s.opt.Reversal)
	if gateIt && s.gate.Enabled() {
		s.gate.OnFetch(e.seq, s.cycle)
		e.gated = true
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvGateArm, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC,
				WrongPath: e.wrongPath})
		}
	}
	if s.opt.SpeculativeCETrain && !e.wrongPath && !s.opt.Perfect {
		s.est.Train(e.u.PC, e.tok, e.mispredOrig, e.actualTaken)
	}
	if e.mispredFinal && !e.wrongPath && !s.opt.Perfect {
		e.diverge = true
		s.divergeSeq = e.seq
		target := e.u.PC + 4
		if e.finalTaken {
			target = e.u.Target
		}
		s.wrong.Restart(target)
	}
}
