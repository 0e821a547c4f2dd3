package pipeline

import (
	"math/rand"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/workload"
)

// checkInvariants asserts the structural invariants that must hold at
// any cycle boundary.
func checkInvariants(t *testing.T, s *Sim) {
	t.Helper()
	m := s.opt.Machine
	if s.rob.len() > m.ROB {
		t.Fatalf("ROB occupancy %d > %d", s.rob.len(), m.ROB)
	}
	for cl, used := range s.windowUsed {
		if used < 0 || used > s.windowCap[cl] {
			t.Fatalf("window %d occupancy %d outside [0,%d]", cl, used, s.windowCap[cl])
		}
	}
	if s.loadsUsed < 0 || s.loadsUsed > m.LoadBufs {
		t.Fatalf("load buffer occupancy %d outside [0,%d]", s.loadsUsed, m.LoadBufs)
	}
	if s.storesUsed < 0 || s.storesUsed > m.StoreBufs {
		t.Fatalf("store buffer occupancy %d outside [0,%d]", s.storesUsed, m.StoreBufs)
	}
	if s.gate.Count() < 0 {
		t.Fatalf("gating counter negative")
	}
	// Pool conservation: free + fetchQ + rob == capacity.
	if got := len(s.free) + s.fetchQ.len() + s.rob.len(); got != len(s.pool) {
		t.Fatalf("pool leak: free %d + fetchq %d + rob %d != %d",
			len(s.free), s.fetchQ.len(), s.rob.len(), len(s.pool))
	}
	// Program order in the ROB.
	var prev uint64
	for i := 0; i < s.rob.len(); i++ {
		e := &s.pool[s.rob.at(i)]
		if e.seq <= prev {
			t.Fatalf("ROB order violated at %d: %d after %d", i, e.seq, prev)
		}
		prev = e.seq
	}
	checkScheduler(t, s)
}

// checkScheduler asserts the wakeup scheduler's bookkeeping against
// the ROB, in time linear in the ROB and uop pool:
//
//   - every dispatched uop is on exactly pendingSrc live producers'
//     dependents lists, one link per waiting source slot, and each list
//     is youngest-first (what squash relies on);
//   - a dispatched uop is in its class's ready queue iff pendingSrc is
//     zero, and each class's window occupancy counts exactly its
//     dispatched uops;
//   - the ready queues are strictly seq-sorted and hold only live
//     dispatched entries;
//   - every issued uop is in exactly one list: the bucket its doneAt
//     maps to (completing within one wheel turn), or the far list
//     (completing no earlier than the next wheel turn), and the lists
//     walked hold nothing else. A stray entry in another bucket is
//     caught when that bucket comes up next, before it completes.
func checkScheduler(t *testing.T, s *Sim) {
	t.Helper()
	n := len(s.pool)
	// Per pool slot: in the ROB, dependents-list links, ready-queue
	// entries, completion-list entries.
	type marks struct {
		inROB                bool
		links, ready, listed uint8
	}
	mk := make([]marks, n)
	for i := 0; i < s.fetchQ.len(); i++ {
		if e := &s.pool[s.fetchQ.at(i)]; e.deps != -1 || e.pendingSrc != 0 {
			t.Fatalf("fetched uop seq %d has dependents %d, pendingSrc %d", e.seq, e.deps, e.pendingSrc)
		}
	}
	// Dependents lists, walking the ROB youngest-first so every
	// consumer is already marked as in the ROB when its producer lists
	// it.
	var dispatched [3]int
	for i := s.rob.len() - 1; i >= 0; i-- {
		pi := s.rob.at(i)
		p := &s.pool[pi]
		mk[pi].inROB = true
		if p.state == sDispatched {
			dispatched[p.class]++
		}
		if p.state == sDone && p.deps != -1 {
			t.Fatalf("completed uop seq %d still has dependents", p.seq)
		}
		var prevSeq uint64
		prevSlot := int32(-1)
		steps := 0
		for l := p.deps; l >= 0; {
			ci, slot := l>>1, l&1
			c := &s.pool[ci]
			if !mk[ci].inROB || c.state != sDispatched || c.seq <= p.seq {
				t.Fatalf("producer seq %d lists a dependent at idx %d (seq %d, state %d, in ROB %v)",
					p.seq, ci, c.seq, c.state, mk[ci].inROB)
			}
			if c.srcProd[slot] != pi {
				t.Fatalf("dependent seq %d slot %d names producer %d, listed by %d", c.seq, slot, c.srcProd[slot], pi)
			}
			if prevSlot >= 0 && !(c.seq < prevSeq || (c.seq == prevSeq && prevSlot == 1 && slot == 0)) {
				t.Fatalf("producer seq %d dependents not youngest-first: seq %d slot %d after seq %d slot %d",
					p.seq, c.seq, slot, prevSeq, prevSlot)
			}
			prevSeq, prevSlot = c.seq, slot
			mk[ci].links++
			l = c.depNext[slot]
			if steps++; steps > 2*n {
				t.Fatalf("producer seq %d dependents list does not terminate", p.seq)
			}
		}
	}
	if dispatched != s.windowUsed {
		t.Fatalf("window occupancy %v, dispatched uops per class %v", s.windowUsed, dispatched)
	}
	// Ready queues.
	for cl := range s.readyQ {
		q := &s.readyQ[cl]
		if q.n < 0 || q.n > len(q.buf) {
			t.Fatalf("ready queue %d length %d outside [0,%d]", cl, q.n, len(q.buf))
		}
		var prev uint64
		for i := 0; i < q.n; i++ {
			ref := *q.at(i)
			e := &s.pool[ref.idx]
			if !mk[ref.idx].inROB || e.seq != ref.seq || e.state != sDispatched || int(e.class) != cl || e.pendingSrc != 0 {
				t.Fatalf("ready queue %d entry %d (idx %d seq %d) is not a ready dispatched uop of its class",
					cl, i, ref.idx, ref.seq)
			}
			if i > 0 && ref.seq <= prev {
				t.Fatalf("ready queue %d out of order at %d: %d after %d", cl, i, ref.seq, prev)
			}
			prev = ref.seq
			mk[ref.idx].ready++
		}
	}
	// Completion lists: the far list, the bucket complete() drains
	// next (so a stray entry is caught before it completes), and the
	// bucket each issued uop's doneAt maps to, each walked once.
	nextTurn := (s.cycle + wheelMask) &^ wheelMask
	var walked [wheelSize]bool
	walk := func(bucket int) { // -1 is the far list
		head := s.far
		if bucket >= 0 {
			if walked[bucket] {
				return
			}
			walked[bucket] = true
			head = s.wheel[bucket]
		}
		prev := int32(-1)
		steps := 0
		for idx := head; idx >= 0; idx = s.pool[idx].wheelNext {
			e := &s.pool[idx]
			ok := e.doneAt >= nextTurn
			if bucket >= 0 {
				ok = int(e.doneAt&wheelMask) == bucket && e.doneAt >= s.cycle && e.doneAt-s.cycle < wheelSize
			}
			if !mk[idx].inROB || e.state != sIssued || !ok {
				t.Fatalf("completion list %d (-1 far) holds idx %d (seq %d, state %d, doneAt %d, cycle %d, in ROB %v)",
					bucket, idx, e.seq, e.state, e.doneAt, s.cycle, mk[idx].inROB)
			}
			if e.wheelPrev != prev {
				t.Fatalf("completion list %d (-1 far): idx %d back link %d, want %d", bucket, idx, e.wheelPrev, prev)
			}
			mk[idx].listed++
			prev = idx
			if steps++; steps > n {
				t.Fatalf("completion list %d (-1 far) does not terminate", bucket)
			}
		}
	}
	walk(-1)
	walk(int(s.cycle & wheelMask))
	// Per-uop membership. An issued uop's own bucket is walked at the
	// latest on its turn here.
	for i := 0; i < s.rob.len(); i++ {
		idx := s.rob.at(i)
		e := &s.pool[idx]
		if e.state == sIssued && e.doneAt >= s.cycle && e.doneAt-s.cycle < wheelSize {
			walk(int(e.doneAt & wheelMask))
		}
		waits := 0
		for _, p := range e.srcProd {
			if p >= 0 {
				waits++
			}
		}
		if waits != int(e.pendingSrc) || int(mk[idx].links) != waits {
			t.Fatalf("uop seq %d (state %d): pendingSrc %d, %d waiting slots, on %d dependents lists",
				e.seq, e.state, e.pendingSrc, waits, mk[idx].links)
		}
		if e.state != sDispatched && waits != 0 {
			t.Fatalf("uop seq %d in state %d still waits on %d sources", e.seq, e.state, waits)
		}
		if want := b2i(e.state == sDispatched && e.pendingSrc == 0); int(mk[idx].ready) != want {
			t.Fatalf("uop seq %d (state %d, pendingSrc %d) is in the ready queue %d times, want %d",
				e.seq, e.state, e.pendingSrc, mk[idx].ready, want)
		}
		if want := b2i(e.state == sIssued); int(mk[idx].listed) != want {
			t.Fatalf("uop seq %d (state %d) is on %d completion lists, want %d", e.seq, e.state, mk[idx].listed, want)
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// randomMachine draws a valid machine shape with every width, depth
// and capacity randomized.
func randomMachine(t *testing.T, rng *rand.Rand) config.Machine {
	t.Helper()
	m := config.Baseline40x4()
	m.Name = "fuzz"
	m.FetchWidth = 1 + rng.Intn(8)
	m.DispatchWidth = 1 + rng.Intn(8)
	m.IssueWidth = 1 + rng.Intn(12)
	m.RetireWidth = 1 + rng.Intn(8)
	m.FrontendDepth = 2 + rng.Intn(18)
	m.BranchResolveExtra = rng.Intn(40)
	m.Depth = m.FrontendDepth + m.BranchResolveExtra + 5
	m.BranchPerCycle = 1 + rng.Intn(3)
	m.ROB = 16 << rng.Intn(4) // 16..128
	m.LoadBufs = 4 + rng.Intn(48)
	m.StoreBufs = 4 + rng.Intn(32)
	m.IntSched = 8 + rng.Intn(48)
	m.MemSched = 4 + rng.Intn(24)
	m.FPSched = 4 + rng.Intn(56)
	m.IntUnits = 1 + rng.Intn(4)
	m.MemUnits = 1 + rng.Intn(3)
	m.FPUnits = 1 + rng.Intn(2)
	if err := m.Validate(); err != nil {
		t.Fatalf("invalid machine: %v", err)
	}
	return m
}

// Randomized machine shapes must preserve the structural invariants
// every step and still retire everything asked of them.
func TestInvariantsUnderRandomMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		m := randomMachine(t, rng)
		bench := workload.Names()[rng.Intn(12)]
		var est confidence.Estimator
		pol := gating.Policy{}
		switch rng.Intn(3) {
		case 1:
			est = confidence.NewCIC(0)
			pol = gating.PL(1 + rng.Intn(3))
		case 2:
			est = confidence.NewEnhancedJRS(7)
			pol = gating.Policy{Threshold: 2, Latency: rng.Intn(10)}
		}
		s := New(Options{Machine: m, Estimator: est, Gating: pol}, gen(t, bench))
		target := uint64(4000)
		for steps := 0; s.ctr.retired.Value() < target; steps++ {
			s.step()
			if steps%512 == 0 {
				checkInvariants(t, s)
			}
			if steps > 5_000_000 {
				t.Fatalf("trial %d (%s on %dx%d): no forward progress", trial, bench,
					m.FetchWidth, m.Depth)
			}
		}
		checkInvariants(t, s)
	}
}

// Reversal plus gating plus estimator latency together must preserve
// the invariants and the retired-uop contract.
func TestInvariantsCombinedMechanisms(t *testing.T) {
	est := confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
	s := New(Options{
		Estimator: est,
		Gating:    gating.Policy{Threshold: 2, Latency: 9},
		Reversal:  true,
	}, gen(t, "twolf"))
	for s.ctr.retired.Value() < 30_000 {
		s.step()
		if s.cycle%1024 == 0 {
			checkInvariants(t, s)
		}
	}
	checkInvariants(t, s)
}

// Zero-cycle L1 hits and thousand-cycle memory misses exercise both
// ends of the completion wheel: results due the very next cycle, and
// uops parked on the far list across several wheel turns.
func TestInvariantsZeroLatencyAndFarMemory(t *testing.T) {
	for _, bench := range []string{"gzip", "mcf"} {
		s := New(Options{
			Estimator: confidence.NewCIC(0),
			Gating:    gating.PL(1),
			Hierarchy: farHierarchy(),
		}, gen(t, bench))
		sawFar := false
		for steps := 0; s.ctr.retired.Value() < 6000; steps++ {
			s.step()
			if steps%8 == 0 {
				checkInvariants(t, s)
			}
			sawFar = sawFar || s.far >= 0
			if steps > 5_000_000 {
				t.Fatalf("%s: no forward progress", bench)
			}
		}
		if hits, _ := s.Hierarchy().L1().Stats(); hits == 0 {
			t.Errorf("%s: no zero-latency L1 hits", bench)
		}
		if !sawFar {
			t.Errorf("%s: the far list was never used", bench)
		}
	}
}

// Two interleavings of Run() calls must be equivalent to one long run:
// warmup/measure splitting cannot change simulated behavior.
func TestRunSplitEquivalence(t *testing.T) {
	a := New(Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)}, gen(t, "gzip"))
	ra1 := a.Run(10_000)
	ra2 := a.Run(10_000)
	ra3 := a.Run(10_000)

	b := New(Options{Estimator: confidence.NewCIC(0), Gating: gating.PL(1)}, gen(t, "gzip"))
	rb := b.Run(30_000)

	sum := ra1.Retired + ra2.Retired + ra3.Retired
	if sum != rb.Retired {
		t.Errorf("retired: split %d vs whole %d", sum, rb.Retired)
	}
	if got, want := ra1.Cycles+ra2.Cycles+ra3.Cycles, rb.Cycles; got != want {
		t.Errorf("cycles: split %d vs whole %d", got, want)
	}
	if got, want := ra1.Executed+ra2.Executed+ra3.Executed, rb.Executed; got != want {
		t.Errorf("executed: split %d vs whole %d", got, want)
	}
}

// TestDemoteStrongWithoutReversalIsIdentity is a metamorphic property
// over random machines: with reversal off, StrongLow and WeakLow both
// gate and both count as low confidence, so demoting StrongLow to
// WeakLow must not change a single counter of the run.
func TestDemoteStrongWithoutReversalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 4; trial++ {
		m := randomMachine(t, rng)
		bench := workload.Names()[rng.Intn(12)]
		pol := gating.PL(1 + rng.Intn(3))
		strong := &strongCounter{Estimator: confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})}
		run := func(wrap bool) metrics.Run {
			var est confidence.Estimator = confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
			if wrap {
				est = confidence.DemoteStrong{Inner: strong}
			}
			s := New(Options{Machine: m, Estimator: est, Gating: pol}, gen(t, bench))
			s.Run(2000)
			return s.Run(6000)
		}
		plain, demoted := run(false), run(true)
		if plain != demoted {
			t.Errorf("trial %d (%s, PL%d, %dw): demote-strong changed the run:\n plain:   %+v\n demoted: %+v",
				trial, bench, pol.Threshold, m.FetchWidth, plain, demoted)
		}
		if strong.n == 0 || plain.GateEvents == 0 {
			t.Errorf("trial %d: %d strongly-low estimates, %d gate events; the property is vacuous",
				trial, strong.n, plain.GateEvents)
		}
	}
}

// strongCounter counts the StrongLow estimates of the estimator it
// wraps.
type strongCounter struct {
	confidence.Estimator
	n int
}

func (c *strongCounter) Estimate(pc uint64, predictedTaken bool) confidence.Token {
	tok := c.Estimator.Estimate(pc, predictedTaken)
	if tok.Band == confidence.StrongLow {
		c.n++
	}
	return tok
}
