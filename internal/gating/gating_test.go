package gating

import (
	"testing"
	"testing/quick"

	"bce/internal/telemetry"
)

func TestDisabled(t *testing.T) {
	c := NewController(Disabled())
	if c.Enabled() {
		t.Fatal("disabled policy enabled")
	}
	c.OnFetch(1, 0)
	if c.Stalled(5) {
		t.Fatal("disabled controller stalled")
	}
	if c.Count() != 0 {
		t.Fatal("disabled controller counted")
	}
}

func TestPL1ImmediateStall(t *testing.T) {
	c := NewController(PL(1))
	if c.Stalled(0) {
		t.Fatal("stalled with no branches")
	}
	c.OnFetch(10, 0)
	if !c.Stalled(0) {
		t.Fatal("PL1 not stalled with one low-conf branch")
	}
	c.OnResolve(10)
	if c.Stalled(1) {
		t.Fatal("stalled after resolve")
	}
}

func TestPL2NeedsTwo(t *testing.T) {
	c := NewController(PL(2))
	c.OnFetch(1, 0)
	if c.Stalled(0) {
		t.Fatal("PL2 stalled at count 1")
	}
	c.OnFetch(2, 0)
	if !c.Stalled(0) {
		t.Fatal("PL2 not stalled at count 2")
	}
	c.OnResolve(1)
	if c.Stalled(1) {
		t.Fatal("PL2 stalled at count 1 after resolve")
	}
}

func TestLatencyDelaysArming(t *testing.T) {
	c := NewController(Policy{Threshold: 1, Latency: 9})
	c.OnFetch(1, 100)
	if c.Stalled(100) || c.Stalled(108) {
		t.Fatal("stalled before latency elapsed")
	}
	if !c.Stalled(109) {
		t.Fatal("not stalled after latency elapsed")
	}
}

func TestResolveBeforeArming(t *testing.T) {
	// Branch resolves during the estimator latency window: it must
	// never arm.
	c := NewController(Policy{Threshold: 1, Latency: 9})
	c.OnFetch(1, 100)
	c.OnResolve(1)
	if c.Stalled(200) {
		t.Fatal("resolved-pending branch armed anyway")
	}
	if c.Count() != 0 {
		t.Fatal("count nonzero")
	}
}

func TestResolveUnknownSeqSafe(t *testing.T) {
	c := NewController(PL(1))
	c.OnResolve(999) // never fetched; must not go negative
	c.OnFetch(1, 0)
	if !c.Stalled(0) {
		t.Fatal("count corrupted by unknown resolve")
	}
}

func TestStats(t *testing.T) {
	c := NewController(PL(1))
	c.OnFetch(1, 0)
	c.Stalled(0)
	c.Stalled(1)
	c.OnResolve(1)
	c.Stalled(2)
	c.OnFetch(2, 3)
	c.Stalled(3)
	cycles, episodes := c.Stats()
	if cycles != 3 || episodes != 2 {
		t.Fatalf("stats = %d cycles, %d episodes; want 3, 2", cycles, episodes)
	}
	c.ResetStats()
	if cy, ep := c.Stats(); cy != 0 || ep != 0 {
		t.Fatal("ResetStats did not clear")
	}
	// In-flight state survives ResetStats.
	if !c.Stalled(4) {
		t.Fatal("in-flight branch lost by ResetStats")
	}
}

func TestPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative policy did not panic")
		}
	}()
	NewController(Policy{Threshold: -1})
}

// Property: count never goes negative and equals fetch-arms minus
// resolves of armed branches, for any interleaving.
func TestCounterQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewController(PL(2))
		live := map[uint64]bool{}
		var seq uint64
		cycle := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				seq++
				live[seq] = true
				c.OnFetch(seq, cycle)
			case 1:
				for s := range live {
					delete(live, s)
					c.OnResolve(s)
					break
				}
			case 2:
				cycle++
				c.Stalled(cycle)
			}
			if c.Count() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// recordingSink keeps every event it receives.
type recordingSink struct{ evs []telemetry.Event }

func (r *recordingSink) Emit(e telemetry.Event) { r.evs = append(r.evs, e) }

// WouldStall answers what Stalled would, and changes nothing: no arm,
// no stalled cycle, no episode, no event.
func TestWouldStallReadOnly(t *testing.T) {
	sink := &recordingSink{}
	c := NewController(Policy{Threshold: 1, Latency: 9})
	c.SetTelemetry(sink, nil)
	c.OnFetch(1, 100)
	if c.WouldStall(108) {
		t.Fatal("WouldStall before the arm is due")
	}
	if !c.WouldStall(109) {
		t.Fatal("WouldStall false once the arm is due")
	}
	if c.Count() != 0 || len(c.pending) != 1 || len(sink.evs) != 0 {
		t.Fatalf("WouldStall changed state: count %d, pending %d, %d events", c.Count(), len(c.pending), len(sink.evs))
	}
	if cy, ep := c.Stats(); cy != 0 || ep != 0 {
		t.Fatalf("WouldStall counted %d cycles, %d episodes", cy, ep)
	}
	if !c.Stalled(109) || c.Count() != 1 || len(sink.evs) != 1 {
		t.Fatal("Stalled disagrees with WouldStall")
	}
	if NewController(Disabled()).WouldStall(0) {
		t.Fatal("disabled controller would stall")
	}
}

// Steady holds exactly when no arm is pending and no transition is
// due; Skip(n) then counts what n Stalled calls would.
func TestSteadySkip(t *testing.T) {
	if steady, holding := NewController(Disabled()).Steady(); !steady || holding {
		t.Fatal("disabled controller not steady and released")
	}
	for _, lat := range []int{0, 9} {
		c := NewController(Policy{Threshold: 1, Latency: lat})
		ref := NewController(Policy{Threshold: 1, Latency: lat})
		if steady, holding := c.Steady(); !steady || holding {
			t.Fatalf("lat %d: fresh controller not steady and released", lat)
		}
		c.OnFetch(1, 0)
		ref.OnFetch(1, 0)
		if steady, _ := c.Steady(); steady {
			t.Fatalf("lat %d: steady with an arm pending or a gate-on due", lat)
		}
		for cycle := uint64(0); cycle <= uint64(lat); cycle++ {
			c.Stalled(cycle)
			ref.Stalled(cycle)
		}
		if steady, holding := c.Steady(); !steady || !holding {
			t.Fatalf("lat %d: armed gate not steady and holding", lat)
		}
		c.Skip(20)
		for cycle := uint64(lat + 1); cycle <= uint64(lat+20); cycle++ {
			ref.Stalled(cycle)
		}
		cy, ep := c.Stats()
		rcy, rep := ref.Stats()
		if cy != rcy || ep != rep {
			t.Fatalf("lat %d: Skip counted %d cycles, %d episodes; Stalled calls %d, %d", lat, cy, ep, rcy, rep)
		}
		c.OnResolve(1)
		if steady, _ := c.Steady(); steady {
			t.Fatalf("lat %d: steady with a gate-off due", lat)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lat %d: Skip with a transition due did not panic", lat)
				}
			}()
			c.Skip(1)
		}()
	}
}
