package dist

import (
	"testing"
	"time"
)

func TestBreakerProbeLifecycle(t *testing.T) {
	b := newBreaker(5 * time.Millisecond)
	if !b.Trip() {
		t.Fatal("closed breaker refused to trip")
	}
	if b.Trip() {
		t.Fatal("open breaker tripped twice")
	}
	if b.BeginProbe() {
		t.Fatal("probe began before the cooldown elapsed")
	}
	time.Sleep(6 * time.Millisecond)
	if !b.BeginProbe() {
		t.Fatal("probe refused after the cooldown elapsed")
	}
	if b.BeginProbe() {
		t.Fatal("second probe began while one was in flight")
	}
	// Failed probe: reopen with a doubled cooldown.
	if b.ProbeResult(false) {
		t.Fatal("failed probe re-admitted the worker")
	}
	if s := b.Snapshot(); s.State != "open" || s.ProbeFailures != 1 || s.Probes != 1 {
		t.Errorf("snapshot after failed probe = %+v", s)
	}
	if w := b.ProbeWait(); w <= 5*time.Millisecond {
		t.Errorf("cooldown after a failed probe = %v, want the doubled 10ms", w)
	}
	time.Sleep(11 * time.Millisecond) // doubled cooldown
	if !b.BeginProbe() {
		t.Fatal("probe refused after doubled cooldown")
	}
	if !b.ProbeResult(true) {
		t.Fatal("passing probe did not re-admit the worker")
	}
	if !b.Closed() {
		t.Fatal("breaker open after re-admission")
	}
	s := b.Snapshot()
	if s.Readmissions != 1 || s.ProbeFailures != 0 || s.Trips != 1 {
		t.Errorf("snapshot after re-admission = %+v", s)
	}
	// Re-admission resets the cooldown to its base, not the doubled one.
	b.Trip()
	if w := b.ProbeWait(); w > 6*time.Millisecond {
		t.Errorf("cooldown after re-admission = %v, want base 5ms", w)
	}
}

func TestBreakerExhaustsProbeBudget(t *testing.T) {
	b := newBreaker(time.Millisecond)
	b.Trip()
	for i := 0; i < maxProbeFailures; i++ {
		if b.Exhausted() {
			t.Fatalf("exhausted after %d failed probes, budget is %d", i, maxProbeFailures)
		}
		time.Sleep(b.ProbeWait())
		if !b.BeginProbe() {
			t.Fatalf("probe %d refused", i)
		}
		b.ProbeResult(false)
	}
	if !b.Exhausted() {
		t.Fatal("probe budget spent but breaker not exhausted")
	}
}

func TestBreakerStateString(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed": BreakerClosed, "open": BreakerOpen, "half-open": BreakerHalfOpen,
	} {
		if got := s.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", int(s), got, want)
		}
	}
	if got := BreakerState(42).String(); got != "unknown" {
		t.Errorf("invalid state string = %q", got)
	}
}
