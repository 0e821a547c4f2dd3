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

// readyQueue is one class's issue candidates: dispatched uops whose
// source operands are all done, oldest (lowest seq) at the head. It is
// a ring sized to the class's scheduling window, which bounds it.
type readyQueue struct {
	buf  []schedRef
	mask int
	head int
	n    int
}

func newReadyQueue(window int) readyQueue {
	size := 1
	for size < window {
		size <<= 1
	}
	return readyQueue{buf: make([]schedRef, size), mask: size - 1}
}

func (q *readyQueue) at(i int) *schedRef { return &q.buf[(q.head+i)&q.mask] }

// insert places r in seq order. A dispatched uop is the youngest in
// flight, so dispatch always appends; a wakeup may land anywhere.
func (q *readyQueue) insert(r schedRef) {
	if q.n == len(q.buf) {
		panic("pipeline: ready queue overflow")
	}
	i := q.n
	for ; i > 0; i-- {
		p := q.at(i - 1)
		if p.seq < r.seq {
			break
		}
		*q.at(i) = *p
	}
	*q.at(i) = r
	q.n++
}

func (q *readyQueue) pop() schedRef {
	r := q.buf[q.head]
	q.head = (q.head + 1) & q.mask
	q.n--
	return r
}

// truncateAfter drops every entry younger than seq.
func (q *readyQueue) truncateAfter(seq uint64) {
	for q.n > 0 && q.at(q.n-1).seq > seq {
		q.n--
	}
}

// wheelSize is the completion wheel's span in cycles, a power of two.
// It covers every fixed latency and a DRAM miss on the Table 1
// hierarchy; longer waits (bus queueing, slower memories) go to the far
// list.
const (
	wheelSize = 512
	wheelMask = wheelSize - 1
)

// schedule files an issued uop under its completion cycle doneAt: in
// its wheel bucket when that is less than wheelSize cycles away, else
// on the far list.
func (s *Sim) schedule(idx int32, e *inflight) {
	head := &s.far
	if e.doneAt-s.cycle < wheelSize {
		head = &s.wheel[e.doneAt&wheelMask]
	}
	e.wheelPrev, e.wheelNext = -1, *head
	if *head >= 0 {
		s.pool[*head].wheelPrev = idx
	}
	*head = idx
}

// unschedule removes an issued uop from its bucket or the far list.
func (s *Sim) unschedule(idx int32, e *inflight) {
	switch {
	case e.wheelPrev >= 0:
		s.pool[e.wheelPrev].wheelNext = e.wheelNext
	case s.wheel[e.doneAt&wheelMask] == idx:
		s.wheel[e.doneAt&wheelMask] = e.wheelNext
	default:
		s.far = e.wheelNext
	}
	if e.wheelNext >= 0 {
		s.pool[e.wheelNext].wheelPrev = e.wheelPrev
	}
}

// turnWheel runs when the wheel wraps (cycle is a multiple of
// wheelSize) and moves the far uops completing within the coming turn
// into their buckets, so every uop is in a bucket by its completion
// cycle.
func (s *Sim) turnWheel() {
	for idx := s.far; idx >= 0; {
		e := &s.pool[idx]
		next := e.wheelNext
		if e.doneAt-s.cycle < wheelSize {
			s.unschedule(idx, e)
			s.schedule(idx, e)
		}
		idx = next
	}
}

// wake resolves a completed producer's dependents: each consumer's
// pending-source count drops, and a consumer left with none joins its
// class's ready queue.
func (s *Sim) wake(p *inflight) {
	for l := p.deps; l >= 0; {
		ci, slot := l>>1, l&1
		c := &s.pool[ci]
		l = c.depNext[slot]
		c.srcProd[slot] = -1
		c.pendingSrc--
		if c.pendingSrc == 0 {
			s.readyQ[c.class].insert(schedRef{idx: ci, seq: c.seq})
		}
	}
	p.deps = -1
}

// retire drains completed uops in program order, training the
// confidence estimator and accumulating branch statistics.
func (s *Sim) retire() {
	m := &s.opt.Machine
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

// complete marks the uops whose latency elapses this cycle as done,
// wakes their dependents, resolves branches for the gating counter and
// triggers misprediction recovery.
//
// The cycle's completions are exactly one wheel bucket. They are
// processed in seq order, the program order a full ROB scan would
// visit, so event order and recovery timing do not depend on the
// order the uops issued in.
func (s *Sim) complete() {
	if s.cycle&wheelMask == 0 && s.far >= 0 {
		s.turnWheel()
	}
	b := &s.wheel[s.cycle&wheelMask]
	if *b < 0 {
		return
	}
	due := s.due[:0]
	for idx := *b; idx >= 0; idx = s.pool[idx].wheelNext {
		if len(due) == cap(due) {
			// More uops than the ROB holds: the list is corrupt (a
			// cycle would otherwise grow due without bound).
			panic("pipeline: completion bucket holds more uops than the ROB")
		}
		due = append(due, schedRef{idx: idx, seq: s.pool[idx].seq})
	}
	*b = -1
	// The bucket is in reverse issue order; restore seq order with an
	// insertion sort (the set is tiny, bounded by the execution units
	// draining in one cycle, and sort.Slice would allocate).
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
		s.wake(e)
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
	for cl := range s.readyQ {
		s.readyQ[cl].truncateAfter(s.divergeSeq)
	}
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
// pool. The caller removes it from the ROB or fetch queue, and recover
// truncates the ready queues.
//
// A waiting uop is popped off its producers' dependents lists. Those
// lists are youngest-first and recover squashes youngest-first, so the
// uop is at each list's head (slot 1 was linked last, so it comes off
// first).
func (s *Sim) squashEntry(e *inflight, idx int32) {
	switch e.state {
	case sDispatched:
		s.windowUsed[e.class]--
		for slot := 1; slot >= 0; slot-- {
			if p := e.srcProd[slot]; p >= 0 {
				if s.pool[p].deps != idx<<1|int32(slot) {
					panic(fmt.Sprintf("pipeline: squashed uop %d is not its producer's youngest dependent", e.seq))
				}
				s.pool[p].deps = e.depNext[slot]
			}
		}
	case sIssued:
		s.unschedule(idx, e)
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

// issue selects ready uops oldest-first, subject to the global issue
// width and per-class execution-unit limits: a three-way merge of the
// class ready queues by seq that skips a class once its units are used
// up. That is the order a program-order walk of every waiting uop
// would issue in, so the data-cache accesses of latency() and every
// telemetry event keep that order.
func (s *Sim) issue() {
	var unitUsed [3]int
	for issued := 0; issued < s.opt.Machine.IssueWidth; issued++ {
		cl := -1
		var oldest uint64
		for c := range s.readyQ {
			q := &s.readyQ[c]
			if q.n == 0 || unitUsed[c] >= s.unitCap[c] {
				continue
			}
			if seq := q.at(0).seq; cl < 0 || seq < oldest {
				cl, oldest = c, seq
			}
		}
		if cl < 0 {
			return
		}
		idx := s.readyQ[cl].pop().idx
		e := &s.pool[idx]
		e.state = sIssued
		// A zero-latency result is still only visible next cycle.
		e.doneAt = s.cycle + max(s.latency(&e.u), 1)
		s.windowUsed[cl]--
		unitUsed[cl]++
		s.schedule(idx, e)
		if s.sink != nil {
			s.sink.Emit(telemetry.Event{Kind: telemetry.EvIssue, Cycle: s.cycle, Seq: e.seq, PC: e.u.PC, WrongPath: e.wrongPath})
		}
	}
}

// dispatch renames and inserts fetched uops into the ROB and
// scheduling windows, in order, as resources allow.
func (s *Sim) dispatch() {
	m := &s.opt.Machine
	for n := 0; n < m.DispatchWidth && s.fetchQ.len() > 0; n++ {
		idx := s.fetchQ.at(0)
		e := &s.pool[idx]
		if s.dispatchBlocked(e) {
			return
		}
		cl := e.class
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
		s.linkSource(idx, e, 0, e.u.Src1)
		s.linkSource(idx, e, 1, e.u.Src2)
		if e.u.Dst != trace.NoReg {
			s.rename[e.u.Dst] = renameEntry{idx: idx, seq: e.seq}
		}
		if e.diverge {
			s.ckpt = s.rename
		}
		e.state = sDispatched
		if e.pendingSrc == 0 {
			s.readyQ[cl].insert(schedRef{idx: idx, seq: e.seq})
		}
	}
}

// dispatchBlocked reports whether the fetch-queue head e cannot
// dispatch this cycle: it is still in the front end, or the ROB, its
// class's window or its load or store buffer is full.
func (s *Sim) dispatchBlocked(e *inflight) bool {
	if e.dispatchAt > s.cycle || s.rob.full() || s.windowUsed[e.class] >= s.windowCap[e.class] {
		return true
	}
	switch e.u.Kind {
	case trace.Load:
		return s.loadsUsed >= s.opt.Machine.LoadBufs
	case trace.Store:
		return s.storesUsed >= s.opt.Machine.StoreBufs
	}
	return false
}

// linkSource renames source slot of the uop at idx, which reads
// register r: if r's producer has not completed, the uop joins the
// head of the producer's dependents list and waits for its wakeup.
func (s *Sim) linkSource(idx int32, e *inflight, slot int32, r uint8) {
	if r == trace.NoReg {
		return
	}
	re := s.rename[r]
	if re.idx < 0 {
		return
	}
	p := &s.pool[re.idx]
	if p.seq != re.seq || p.state == sDone {
		return
	}
	e.srcProd[slot] = re.idx
	e.depNext[slot] = p.deps
	p.deps = idx<<1 | slot
	e.pendingSrc++
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
	m := &s.opt.Machine
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
