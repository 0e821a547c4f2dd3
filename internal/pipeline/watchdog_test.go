package pipeline

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bce/internal/cache"
	"bce/internal/confidence"
	"bce/internal/gating"
	"bce/internal/telemetry"
)

// hangHierarchy builds a data-cache hierarchy whose memory never
// answers within a simulation's lifetime: every L2 miss schedules its
// load's completion ~10^15 cycles out, so the first missing load
// wedges the ROB head and the watchdog must catch it.
func hangHierarchy() *cache.Hierarchy {
	return cache.NewHierarchy(cache.HierarchyConfig{
		Lat: cache.Latencies{L1: 3, L2: 16, Memory: 1 << 50},
	})
}

// The watchdog must convert a genuine livelock (a load that never
// completes) into a structured *WatchdogError panic with a populated
// machine-state diagnostic, a registry counter, and a telemetry event.
func TestWatchdogTripsOnHang(t *testing.T) {
	sink := &telemetry.CountingSink{}
	s := New(Options{
		Hierarchy:        hangHierarchy(),
		WatchdogInterval: 5_000,
		Sink:             sink,
	}, gen(t, "gzip"))

	var wde *WatchdogError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("run completed against a hung memory")
			}
			err, ok := r.(error)
			if !ok {
				t.Fatalf("panic value %T is not an error", r)
			}
			if !errors.As(err, &wde) {
				t.Fatalf("panic error %v is not a *WatchdogError", err)
			}
		}()
		s.Run(1_000_000)
	}()

	if wde.Interval != 5_000 {
		t.Errorf("Interval = %d, want 5000", wde.Interval)
	}
	if wde.Cycle-wde.LastRetire <= wde.Interval {
		t.Errorf("cycle %d - last retire %d not past interval %d",
			wde.Cycle, wde.LastRetire, wde.Interval)
	}
	if wde.Head == nil {
		t.Fatal("diagnostic has no ROB head; expected a wedged load")
	}
	if wde.Head.State != "issued" && wde.Head.State != "dispatched" {
		t.Errorf("head state %q, want issued or dispatched", wde.Head.State)
	}
	if wde.ROB == 0 {
		t.Error("ROB occupancy 0 in a back-end livelock")
	}
	if wde.Head.State == "issued" && wde.Executing == 0 {
		t.Error("head is issued but no uop is counted as executing")
	}
	if wde.Ready+wde.Executing > wde.ROB {
		t.Errorf("ready %d + executing %d exceed ROB occupancy %d", wde.Ready, wde.Executing, wde.ROB)
	}
	if s.ctr.watchdogAborts.Value() != 1 {
		t.Errorf("watchdog_aborts = %d, want 1", s.ctr.watchdogAborts.Value())
	}
	if sink.Count(telemetry.EvWatchdog) != 1 {
		t.Errorf("EvWatchdog count = %d, want 1", sink.Count(telemetry.EvWatchdog))
	}
	msg := wde.Error()
	for _, want := range []string{"watchdog", "no retirement", "rob=", "ready=", "executing=", "head seq"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

// A healthy run — even a slow one with gating, reversal and a real
// memory hierarchy — must never trip the watchdog at its default
// patience.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	est := confidence.NewCICWith(confidence.CICConfig{Lambda: -75, Reversal: 50})
	s := New(Options{
		Estimator: est,
		Gating:    gating.Policy{Threshold: 1, Latency: 9},
		Reversal:  true,
	}, gen(t, "twolf"))
	s.Run(50_000)
	if got := s.ctr.watchdogAborts.Value(); got != 0 {
		t.Errorf("watchdog_aborts = %d on a healthy run", got)
	}
}

// The empty-ROB diagnostic path must not dereference a head.
func TestWatchdogErrorEmptyROB(t *testing.T) {
	s := New(Options{}, gen(t, "gzip"))
	e := s.watchdogError(100)
	if e.Head != nil {
		t.Fatalf("fresh sim reported head %+v", e.Head)
	}
	if !strings.Contains(e.Error(), "rob empty") {
		t.Errorf("Error() = %q missing empty-ROB note", e.Error())
	}
}

// chaosEstimator assigns random confidence bands, decoupled from any
// actual branch behavior. With Reversal on, random StrongLow bands
// reverse correct predictions into mispredicts, manufacturing dense
// squash/recovery storms far beyond what a real estimator produces.
type chaosEstimator struct {
	rng *rand.Rand
}

func (c *chaosEstimator) Estimate(pc uint64, predictedTaken bool) confidence.Token {
	band := confidence.Class(c.rng.Intn(3))
	return confidence.Token{Band: band, PredTaken: predictedTaken}
}

func (c *chaosEstimator) Train(pc uint64, tok confidence.Token, mispredicted, taken bool) {}

func (c *chaosEstimator) Name() string { return "chaos" }

// Squash/flush storms driven by a randomly-reversing estimator must
// preserve every structural invariant at every cycle and must not
// starve retirement long enough to trip the watchdog.
func TestInvariantsUnderSquashStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		est := &chaosEstimator{rng: rand.New(rand.NewSource(seed))}
		s := New(Options{
			Estimator:        est,
			Gating:           gating.Policy{Threshold: 1, Latency: 3},
			Reversal:         true,
			WatchdogInterval: DefaultWatchdogInterval,
		}, gen(t, "gcc"))
		target := uint64(20_000)
		for steps := 0; s.ctr.retired.Value() < target; steps++ {
			s.step()
			checkInvariants(t, s)
			if s.cycle-s.lastRetireAt > DefaultWatchdogInterval {
				t.Fatalf("seed %d: watchdog window exceeded under squash storm at cycle %d",
					seed, s.cycle)
			}
			if steps > 5_000_000 {
				t.Fatalf("seed %d: no forward progress", seed)
			}
		}
		if s.ctr.reversals.Value() == 0 {
			t.Fatalf("seed %d: chaos estimator produced no reversals; storm never happened", seed)
		}
		checkInvariants(t, s)
	}
}
