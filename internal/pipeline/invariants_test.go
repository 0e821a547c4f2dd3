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
	// Scheduler-list consistency: every dispatched-not-issued uop in
	// the ROB has exactly one live waiting ref, every issued-not-done
	// uop exactly one live pending ref, and live refs never point at
	// anything else. Stale refs (seq mismatch) are allowed — squash
	// invalidates lazily — but double-entry is not.
	liveWaiting := make(map[int32]int)
	for _, ref := range s.waiting {
		if e := &s.pool[ref.idx]; e.seq == ref.seq {
			if e.state != sDispatched {
				t.Fatalf("live waiting ref to state %d (idx %d seq %d)", e.state, ref.idx, ref.seq)
			}
			liveWaiting[ref.idx]++
		}
	}
	livePending := make(map[int32]int)
	for _, ref := range s.pending {
		if e := &s.pool[ref.idx]; e.seq == ref.seq {
			if e.state != sIssued {
				t.Fatalf("live pending ref to state %d (idx %d seq %d)", e.state, ref.idx, ref.seq)
			}
			livePending[ref.idx]++
		}
	}
	for i := 0; i < s.rob.len(); i++ {
		idx := s.rob.at(i)
		e := &s.pool[idx]
		switch e.state {
		case sDispatched:
			if liveWaiting[idx] != 1 {
				t.Fatalf("dispatched uop seq %d has %d waiting refs, want 1", e.seq, liveWaiting[idx])
			}
		case sIssued:
			if livePending[idx] != 1 {
				t.Fatalf("issued uop seq %d has %d pending refs, want 1", e.seq, livePending[idx])
			}
		}
	}
	for idx, n := range liveWaiting {
		if n > 1 {
			t.Fatalf("pool slot %d has %d waiting refs", idx, n)
		}
	}
	for idx, n := range livePending {
		if n > 1 {
			t.Fatalf("pool slot %d has %d pending refs", idx, n)
		}
	}
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
