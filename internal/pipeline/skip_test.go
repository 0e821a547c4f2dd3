package pipeline

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"bce/internal/confidence"
	"bce/internal/config"
	"bce/internal/gating"
	"bce/internal/metrics"
	"bce/internal/trace"
)

// idleAt returns a fresh simulation moved to cycle c with an empty
// machine: nothing in flight, no bubble.
func idleAt(t *testing.T, opt Options, c uint64) *Sim {
	t.Helper()
	s := New(opt, gen(t, "gzip"))
	s.cycle = c
	return s
}

// issueLoad puts a load in the ROB, issued and due at cycle doneAt.
func (s *Sim) issueLoad(doneAt uint64) {
	idx := s.alloc()
	s.seq++
	e := &s.pool[idx]
	e.u = trace.Uop{Kind: trace.Load, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg}
	e.seq, e.class, e.state, e.doneAt = s.seq, clMem, sIssued, doneAt
	s.rob.push(idx)
	s.loadsUsed++
	s.schedule(idx, e)
}

// fetchALUs adds n fetched ALU uops that reach dispatch at dispatchAt.
func (s *Sim) fetchALUs(n int, dispatchAt uint64) {
	for range n {
		idx := s.alloc()
		s.seq++
		e := &s.pool[idx]
		e.u = trace.Uop{Kind: trace.ALU, Dst: trace.NoReg, Src1: trace.NoReg, Src2: trace.NoReg}
		e.seq, e.class, e.state, e.dispatchAt = s.seq, clInt, sFetched, dispatchAt
		s.fetchQ.push(idx)
	}
}

func (s *Sim) fillFetchQ(dispatchAt uint64) {
	s.fetchALUs(len(s.fetchQ.buf)-s.fetchQ.len(), dispatchAt)
}

const noLimit = 1 << 40

func TestNextEventLoadWithFullFetchQueue(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.issueLoad(1040)
	s.fillFetchQ(5000)
	if got := s.nextEvent(noLimit); got != 1040 {
		t.Fatalf("next event %d, want the load's completion at 1040", got)
	}
	// A fetch queue with room lets fetch act now.
	s.fetchQ.truncate(s.fetchQ.len() - 1)
	if got := s.nextEvent(noLimit); got != 1000 {
		t.Fatalf("next event %d with room to fetch, want 1000", got)
	}
}

func TestNextEventRedirectBubble(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.issueLoad(1040)
	s.stallUntil = 1005
	if got := s.nextEvent(noLimit); got != 1005 {
		t.Fatalf("next event %d, want the end of the bubble at 1005", got)
	}
	// With a full fetch queue, fetch stays idle past the bubble.
	s.fillFetchQ(5000)
	if got := s.nextEvent(noLimit); got != 1040 {
		t.Fatalf("next event %d with a full fetch queue, want 1040", got)
	}
}

func TestNextEventFarListWaitsForWheelTurn(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.issueLoad(5000)
	if s.far < 0 {
		t.Fatal("a load 4000 cycles out is not on the far list")
	}
	s.fillFetchQ(5000)
	if got := s.nextEvent(noLimit); got != 1024 {
		t.Fatalf("next event %d, want the wheel turn at 1024", got)
	}
	s.cycle = 1024
	if got := s.nextEvent(noLimit); got != 1024 {
		t.Fatalf("next event %d at a due wheel turn, want 1024", got)
	}
}

func TestNextEventFetchQueueHeadNotDue(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.stallUntil = 1020
	s.fetchALUs(1, 1010)
	if got := s.nextEvent(noLimit); got != 1010 {
		t.Fatalf("next event %d, want the head's dispatchAt 1010", got)
	}
	// A full ROB blocks dispatch until something retires.
	s.cycle = 1010
	for !s.rob.full() {
		s.issueLoad(1400)
	}
	if got := s.nextEvent(noLimit); got != 1020 {
		t.Fatalf("next event %d with a full ROB, want the bubble's end 1020", got)
	}
}

func TestNextEventWatchdogLimit(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.fillFetchQ(5000)
	if got := s.nextEvent(3000); got != 3000 {
		t.Fatalf("next event %d, want the limit 3000", got)
	}
}

func TestNextEventBusy(t *testing.T) {
	s := idleAt(t, Options{}, 1000)
	s.fillFetchQ(5000)
	s.issueLoad(1000)
	if got := s.nextEvent(noLimit); got != 1000 {
		t.Fatalf("next event %d with a completion due now, want 1000", got)
	}
	s = idleAt(t, Options{}, 1000)
	s.fillFetchQ(900)
	if got := s.nextEvent(noLimit); got != 1000 {
		t.Fatalf("next event %d with a dispatchable head, want 1000", got)
	}
}

// While an arm is pending or a gate transition is due, fetch must
// consult the controller every cycle: only a bubble may be skipped.
func TestNextEventGateNotSteady(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  gating.Policy
	}{
		{"pending arm", gating.Policy{Threshold: 1, Latency: 9}},
		{"gate-on due", gating.PL(1)},
	} {
		s := idleAt(t, Options{Gating: tc.pol}, 1000)
		s.issueLoad(1040)
		s.fillFetchQ(5000)
		s.gate.OnFetch(1, 995)
		if got := s.nextEvent(noLimit); got != 1000 {
			t.Errorf("%s: next event %d, want no skip (1000)", tc.name, got)
		}
		s.stallUntil = 1005
		if got := s.nextEvent(noLimit); got != 1005 {
			t.Errorf("%s: next event %d in a bubble, want 1005", tc.name, got)
		}
	}
	// Once the gate holds steadily, fetch is idle until the load.
	s := idleAt(t, Options{Gating: gating.PL(1)}, 1000)
	s.issueLoad(1040)
	s.gate.OnFetch(1, 999)
	s.gate.Stalled(999)
	if got := s.nextEvent(noLimit); got != 1040 {
		t.Fatalf("next event %d behind a holding gate, want 1040", got)
	}
}

// stepRun is Run with the clock ticking every cycle: the reference the
// skipping clock must match.
func stepRun(s *Sim, n uint64) metrics.Run {
	s.ctr.reg.Reset()
	s.gate.ResetStats()
	start := s.cycle
	for s.ctr.retired.Value() < n {
		s.step()
	}
	gc, ge := s.gate.Stats()
	return s.ctr.snapshot(s.cycle-start, gc, ge)
}

// Skipping idle cycles changes nothing observable: over random machines
// and gating with estimator latency, every span's statistics, the final
// cycle and the full telemetry stream equal those of a clock that ticks
// every cycle.
func TestSkipMatchesStepping(t *testing.T) {
	randomTrials(t, 28, 6, func(trial int, m config.Machine, bench string, warm, measure uint64) {
		opt := func(sink *hashSink) Options {
			return Options{
				Machine:   m,
				Estimator: confidence.NewCIC(0),
				Gating:    gating.Policy{Threshold: 1 + trial%2, Latency: 3 * (trial % 4)},
				Sink:      sink,
			}
		}
		ks, kt := &hashSink{h: sha256.New()}, &hashSink{h: sha256.New()}
		skip, tick := New(opt(ks), gen(t, bench)), New(opt(kt), gen(t, bench))
		for span, n := range []uint64{warm, measure / 3, measure / 3, measure / 3} {
			a, b := skip.Run(n), stepRun(tick, n)
			ca, _ := a.Canonical()
			cb, _ := b.Canonical()
			if !bytes.Equal(ca, cb) || skip.cycle != tick.cycle {
				t.Fatalf("trial %d (%s) span %d: skipping clock\n %s at cycle %d\nticking clock\n %s at cycle %d",
					trial, bench, span, ca, skip.cycle, cb, tick.cycle)
			}
		}
		if ks.n != kt.n || !bytes.Equal(ks.h.Sum(nil), kt.h.Sum(nil)) {
			t.Fatalf("trial %d (%s): event streams differ (%d vs %d events)", trial, bench, ks.n, kt.n)
		}
	})
}
